"""Record golden.json: the outcome digest of every request of the default seed.

    python3 perfbench/record_golden.py

The benchmark compares each first outcome on the default seed against
these digests, which holds CLI stdout byte-stable from the commit that
recorded them.  Re-record only when the benchmark's request pools change.
"""

from __future__ import annotations

import json

import worker
import workloads


def main() -> None:
    recorded = {}
    for name in workloads.WORKLOADS:
        requests = workloads.build(name, worker.DEFAULT_SEED)
        execute = worker.make_executor(name, requests)
        recorded[name] = [workloads.digest(execute(i)) for i in range(len(requests))]
    doc = {"seed": worker.DEFAULT_SEED, "workloads": recorded}
    worker.GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
