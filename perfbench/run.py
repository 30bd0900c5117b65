"""Benchmark entry point for temperedk: one workload per run, or all four.

    python3 perfbench/run.py --workload cli_points --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 5 --trace 1

Run from the root of a checkout; the package is imported from its src/.
With ``--trace 0`` the run measures set-up time (fresh interpreters, one
at a time), then starts worker.py in a child process for the closed-loop
measurement, and prints the end-to-end metrics.  With ``--trace 1`` the
child runs half the time untraced and half traced, prints the per-layer
metrics and writes its spans to perfbench/out/.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.  See
perfbench/METRICS.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

SETUP_SPAWNS = 11  # timed, after one untimed spawn that warms the file cache
SPAWN_TIMEOUT_S = 30
RUN_BUDGET_S = 170  # every child is stopped before the run gets this old

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def measure_setup(workload: str, seed: int) -> tuple:
    """Median wall time from spawning an interpreter to the first answer.

    Returns (median seconds, the outcomes of the spawns).
    """
    first = workloads.build(workload, seed)[0]
    if workload == "lib_diagram":
        argv = [sys.executable, "-c", workloads.diagram_source(first.param)]
    else:
        argv = [sys.executable, "-m", "temperedk", *first.argv]
    times, outcomes = [], []
    for _ in range(1 + SETUP_SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=SPAWN_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        outcomes.append((proc.returncode, proc.stdout))
    return statistics.median(times[1:]), outcomes


def run_worker(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        argv += ["--spans-out", str(out_dir / f"spans-{workload}.jsonl")]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    if not trace:
        setup_s, spawns = measure_setup(workload, seed)
    worker = run_worker(workload, seed, seconds, trace, deadline)
    attempted, failed, reasons = worker["attempted"], worker["failed"], worker["reasons"]
    measured = worker["metrics"]
    if trace:
        units = dict(PER_LAYER)
        notes = [f"{worker['spans']} spans written to perfbench/out/spans-{workload}.jsonl"]
    else:
        expected = (0, "True\n") if workload == "lib_diagram" else None
        wrong = sum(o != expected if expected else workloads.digest(o) != worker["first_digest"] for o in spawns)
        attempted += len(spawns)
        failed += wrong
        if wrong:
            reasons["setup: first answer of a fresh interpreter is wrong"] = wrong
        measured["setup_s"] = setup_s
        units = END_TO_END_UNITS
        notes = [f"latencies are per-request minima over {measured['passes']} passes; latency_tail_ms is "
                 f"p{measured['tail_percentile']} of {measured['requests']} requests, {measured['beyond_tail']} "
                 f"beyond it; setup_s is the median of {SETUP_SPAWNS} spawns"]
    notes.append(f"{attempted} attempted, {failed} failed, failed_frac {failed / attempted:.6g}")
    notes += [f"failure: {reason} (x{count})" for reason, count in reasons.items()]
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
            "notes": notes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "temperedk" / "__init__.py").is_file():
        print(f"no temperedk sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 1
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        for note in result.pop("notes"):
            print(f"# {name}: {note}")
        if args.workload == "all":
            for metric, m in result["metrics"].items():
                print(f"{name:15s} {metric:38s} {m['value']:14.6g} {m['unit']}")
            print(f"{name:15s} {'failed_frac':38s} {result['failed'] / result['attempted']:14.6g} frac")
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
