"""CLI stdout stays byte-identical to the recorded benchmark corpus.

Replays the default-seed request pools of the CLI workloads in
``perfbench/`` through ``cli.main`` and compares each outcome digest
(exit code, stdout, stderr) with ``perfbench/golden.json``.  Nothing
under ``perfbench/`` is written.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import worker  # noqa: E402
import workloads  # noqa: E402

GOLDEN = json.loads(worker.GOLDEN.read_text())


@pytest.mark.parametrize("workload", ["cli_points", "kgroup_listing", "kmap_classes"])
def test_default_seed_outputs_match_golden(workload):
    assert GOLDEN["seed"] == worker.DEFAULT_SEED
    requests = workloads.build(workload, worker.DEFAULT_SEED)
    execute = worker.make_executor(workload, requests)
    digests = [workloads.digest(execute(i)) for i in range(len(requests))]
    expected = GOLDEN["workloads"][workload]
    assert len(digests) == len(expected)
    mismatched = [(i, requests[i].argv) for i, (got, want) in enumerate(zip(digests, expected))
                  if got != want]
    assert not mismatched
