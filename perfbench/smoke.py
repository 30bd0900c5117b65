"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs one pass of every workload at a tiny size, untraced and traced, and
requires every request to pass its check and every per-layer metric to be
reported.  Then it corrupts outcomes on purpose (a byte of stdout, an exit
code, a library result) and requires each corruption to be counted as a
failure.  Finally it runs run.py for one short workload and checks the
shape of its last line.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys

import tracing
import worker
import workloads

SEED = 7


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: {message}")


def tiny_runs() -> None:
    layer_names = {name for name, _ in tracing.PER_LAYER}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = worker.measure(name, SEED, 0, trace, tiny=True)
            expect(result["attempted"] > 0, f"{name} attempted nothing")
            expect(result["failed"] == 0, f"{name} trace={trace} failed: {result['reasons']}")
            if trace:
                missing = layer_names - set(result["metrics"])
                expect(not missing, f"{name} lacks per-layer metrics {sorted(missing)}")
        print(f"smoke: {name} ok")


def corrupted(workload: str, corrupt) -> dict:
    requests = workloads.build(workload, SEED, tiny=True)
    execute = worker.make_executor(workload, requests)
    return worker.measure(workload, SEED, 0, 0, tiny=True, execute=lambda i: corrupt(i, execute(i)))


def corruption_is_counted() -> None:
    def cli_corrupt(i, outcome):
        rc, out, err = outcome
        if i == 4:
            out = out.replace("1", "2", 1) if "1" in out else out + " "
        if i == 5:
            rc = 3
        if i == 6:
            rc, out = 0, out + "{}\n"
        return rc, out, err

    result = corrupted("cli_points", cli_corrupt)
    expect(result["failed"] == 3, f"3 corrupted CLI outcomes, {result['failed']} counted")
    print(f"smoke: corrupted stdout and exit codes give failed_frac {result['failed'] / result['attempted']:.3f}")

    def lib_corrupt(i, outcome):
        return (False, outcome[1]) if i == 4 else outcome

    result = corrupted("lib_diagram", lib_corrupt)
    expect(result["failed"] == 1, f"1 corrupted library result, {result['failed']} counted")
    print("smoke: a failed diagram check is counted")


def run_py_runs() -> None:
    proc = subprocess.run([sys.executable, str(worker.HERE / "run.py"), "--workload", "cli_points",
                           "--seconds", "0.5"], capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, f"run.py exited {proc.returncode}: {proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(last)}")
    expect(last["correct"] and last["failed"] == 0, f"run.py run failed: {proc.stdout}")
    print("smoke: run.py prints a correct result line")


if __name__ == "__main__":
    tiny_runs()
    corruption_is_counted()
    run_py_runs()
    print("smoke: all ok")
