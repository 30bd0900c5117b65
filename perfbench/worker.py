"""Runs one workload in this process and prints its measurements as JSON.

run.py starts this file in a child process, so the peak
resident memory it reports belongs to that workload alone.  Load is a
closed loop with one client: the next request starts when the previous one
has returned.  Whole passes over the request pool repeat until the timed
work reaches ``--seconds``.  A request's latency is its minimum over the
passes, and the timing metrics are taken over those minima.  Each outcome
is checked right after its request, outside the timed region; a repeat of
a request must give the same digest as its first run.  On the default seed
the first outcomes must also match the digests recorded in golden.json.

    PYTHONPATH=src python3 perfbench/worker.py --workload cli_points --seed 1 --seconds 2 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from diagram import build_parameter, diagram_check  # noqa: E402
from tracing import Tracer  # noqa: E402

GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
WARMUP = 3
WALL_SLACK_S = 60  # a phase stops after its current pass once this far over time
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def load_package():
    """Import the package from the checkout's src/, never from elsewhere."""
    src = HERE.parent / "src"
    sys.path.insert(0, str(src))
    import temperedk
    from temperedk import cli, langlands, weil

    if not Path(temperedk.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"temperedk was imported from {temperedk.__file__}, not {src}")
    return cli, langlands, weil


def make_executor(workload, requests):
    """A function running request i and returning its outcome tuple."""
    cli, langlands, weil = load_package()
    if workload == "lib_diagram":
        params = [build_parameter(weil, r.param) for r in requests]

        def execute(i):
            try:
                return diagram_check(weil, langlands, params[i])
            except Exception as exc:  # a raised error is a failed check
                return repr(exc), None

        return execute

    argvs = [r.argv for r in requests]

    def execute(i):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            rc = cli.main(argvs[i])
        except BaseException as exc:  # escaping main at all is a failure
            rc = repr(exc)
        finally:
            sys.stdout, sys.stderr = saved
        return rc, out.getvalue(), err.getvalue()

    return execute


class Checker:
    """Counts attempted and failed requests; checks run outside timed regions."""

    def __init__(self, requests, golden=None):
        self.requests = requests
        self.golden = golden
        self.first: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def record(self, i, outcome) -> None:
        self.attempted += 1
        d = workloads.digest(outcome)
        if i in self.first:
            reason = None if d == self.first[i] else "outcome differs between repeats"
        else:
            self.first[i] = d
            try:
                reason = self.requests[i].check(outcome)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                reason = f"malformed output: {exc!r}"
            if reason is None and self.golden is not None and self.golden[i] != d:
                reason = "stdout differs from golden.json"
        if reason is not None:
            self.failed += 1
            self.reasons[f"{self.requests[i].kind}: {reason}"] += 1


def run_phase(execute, size, checker, seconds, tracer=None) -> tuple:
    """Closed loop over whole passes.

    Returns each request's minimum latency in ns over its repeats, and the
    number of passes.  The minimum is the request's own cost: on a shared
    machine, other work only ever adds time to a repeat.
    """
    best = [math.inf] * size
    busy = passes = 0
    wall_start = time.perf_counter()
    while True:
        for i in range(size):
            if tracer is not None:
                tracer.request = passes * size + i
                root = tracer.begin("request")
            t0 = time.perf_counter_ns()
            outcome = execute(i)
            dt = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.end(root)
            best[i] = min(best[i], dt)
            busy += dt
            checker.record(i, outcome)
        passes += 1
        if busy >= seconds * 1e9 or time.perf_counter() - wall_start > seconds + WALL_SLACK_S:
            return best, passes


def throughput(best) -> float:
    """Requests per second for a pass at each request's minimum latency."""
    return len(best) / (sum(best) / 1e9)


def end_to_end(best, passes) -> dict:
    ms = sorted(x / 1e6 for x in best)
    n = len(ms)
    # highest listed percentile with at least ten requests beyond its rank
    pct = max((p for p in TAIL_PERCENTILES if n - math.ceil(p / 100 * n) >= 10), default=50)
    rank = math.ceil(pct / 100 * n)  # nearest-rank percentile
    return {
        "throughput_rps": throughput(best),
        "latency_p50_ms": statistics.median(ms),
        "latency_tail_ms": ms[rank - 1],
        "tail_percentile": pct,
        "requests": n,
        "beyond_tail": n - rank,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure(workload, seed, seconds, trace, tiny=False, spans_out=None, execute=None) -> dict:
    requests = workloads.build(workload, seed, tiny)
    if execute is None:
        execute = make_executor(workload, requests)
    golden = None
    if seed == DEFAULT_SEED and not tiny:
        golden = json.loads(GOLDEN.read_text())["workloads"][workload]
        if len(golden) != len(requests):
            raise SystemExit(f"golden.json holds {len(golden)} digests for {len(requests)} requests")
    checker = Checker(requests, golden)
    warm = [execute(i) for i in range(min(WARMUP, len(requests)))]
    result = {"first_digest": workloads.digest(warm[0])}
    # the pool and its expected outputs are the benchmark's; keep them out
    # of the collections the program's own garbage triggers
    gc.collect()
    gc.freeze()
    if not trace:
        result["metrics"] = end_to_end(*run_phase(execute, len(requests), checker, seconds))
    else:
        plain, _ = run_phase(execute, len(requests), checker, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, passes = run_phase(execute, len(requests), checker, seconds / 2, tracer)
        finally:
            tracer.remove()
        metrics = tracer.layer_metrics(passes * len(requests))
        metrics["trace.overhead_frac"] = 1 - throughput(traced) / throughput(plain)
        result["metrics"] = metrics
        if spans_out is not None:
            tracer.write(spans_out)
            result["spans"] = len(tracer.names)
    result.update(attempted=checker.attempted, failed=checker.failed, reasons=dict(checker.reasons))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", help="file for the traced spans, one JSON line each")
    args = ap.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, args.trace, spans_out=args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
