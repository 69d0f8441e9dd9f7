"""End-to-end and per-layer benchmark of the rampsched CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload random-128 --seed 1 --seconds 36 --trace 0

With --trace 0 each operation of the workload runs as a fresh
`python -m rampsched.cli` subprocess (with src/ on PYTHONPATH), one at a
time, in rounds, for --seconds seconds; the last line of standard output
is a JSON object with the end-to-end metrics.  With --trace 1 the same
operations run in this process through rampsched's public functions,
with spans recorded around each layer call, and the JSON object carries
the per-layer metrics instead.  Either way every output is checked by
perfbench/check.py, which does not use rampsched.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from verify import Verifier
from workloads import PLANS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
OP_TIMEOUT_S = 120


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_cli(argv, workdir):
    """Run one CLI command; return (exit code, wall seconds)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rampsched.cli", *argv],
            cwd=workdir, env=cli_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S,
        )
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = -1
    return code, time.perf_counter() - start


def setup(workload, seed, workdir):
    """Build the workload's inputs and warm the CLI once; return the plan.

    The warm-up run fills the page cache and compiles rampsched's
    bytecode, which every later invocation would otherwise pay once.
    """
    plan = PLANS[workload](seed, workdir)
    code, _ = run_cli(["--help"], workdir)
    if code != 0:
        raise SystemExit(f"error: the rampsched CLI does not start (exit code {code})")
    return plan


def timed_rounds(seconds, round_fn, start=None):
    """Run whole rounds while the next one still fits in `seconds` (at least one).

    `start` (a perf_counter reading) lets work done before the first
    round count against the same budget.
    """
    start = time.perf_counter() if start is None else start
    durations = []
    while True:
        t0 = time.perf_counter()
        round_fn()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return len(durations)


def cli_run(plan, workdir, seconds):
    """Rounds of CLI subprocesses; returns (metrics, attempted, failures per round)."""
    verifier = Verifier(plan)
    totals = {"gen": [], "solve": [], "simulate": []}
    failures = []

    def one_round():
        spent = dict.fromkeys(totals, 0.0)
        codes = []
        for op in plan.ops:
            code, dt = run_cli(op.argv(), workdir)
            spent[op.kind] += dt
            codes.append(code)
        for kind, value in spent.items():
            totals[kind].append(value)
        failures.append(verifier(codes, workdir))

    rounds = timed_rounds(seconds, one_round)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        f"{kind}_s": {"value": statistics.median(values), "unit": "s"}
        for kind, values in totals.items()
    }
    metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
    return metrics, rounds * len(plan.ops), failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so a running CLI child is killed and
    # the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "rampsched", "cli.py")):
        print(f"error: no rampsched sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            plan = setup(args.workload, args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        if args.trace:
            sys.path.insert(0, SRC)
            import inproc

            metrics, attempted, failures = inproc.traced_run(plan, workdir, args.seconds)
        else:
            metrics, attempted, failures = cli_run(plan, workdir, args.seconds)
            metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(len(f) for f in failures)
    unexpected = sorted({
        msg for f in failures for i, msg in f.items() if not plan.ops[i].known_fault
    })
    for msg in sorted({msg for f in failures for msg in f.values()}):
        print(f"failed: {msg}", file=sys.stderr)
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
