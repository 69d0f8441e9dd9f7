"""The traced run: a workload's operations in this process, layer by layer.

Each operation calls the same public functions the CLI command would
(`fileio`, `generators`, `offline`, `online`), and a span is recorded
around every such call: name, start, end and the span that caused it.
Spans stay in memory and are written out when the run ends.  Counts
come from a `PrecisionContext` subclass that counts compare and sqrt
calls, and from one cProfile pass that counts mpmath `_cmp` calls and
the `lrtb` calls the generators make.  Untraced rounds of the same
operations, interleaved with the traced ones, give the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

from rampsched.core import PrecisionContext, completion_from, work_in
from rampsched.fileio import load_instance, load_trace, save_instance, save_schedule, save_trace
from rampsched.generators import gen_lssf, gen_random_feasible, gen_srpt
from rampsched.offline import Feasibility, brute_force_optimal, lrtb
from rampsched.online import Policy, PolicySpec, max_stretch, simulate

from run import cli_env, timed_rounds
from verify import Verifier

ORACLE_RESOLUTION = 1024
IMPORT_SAMPLES = 5
MICRO_CALLS = 2000
MICRO_REPEATS = 5

EXIT_CODES = {Feasibility.FEASIBLE: 0, Feasibility.INFEASIBLE: 1, Feasibility.INDETERMINATE: 2}

# Per-layer metric -> span name whose durations it sums.
SPAN_METRICS = {
    "offline.lrtb_s": "offline.lrtb",
    "offline.brute_force_s": "offline.brute_force",
    **{f"online.simulate.{p.value}_s": f"online.simulate.{p.value}" for p in Policy},
    "generators.gen_random_s": "generators.gen_random",
    "generators.gen_lssf_s": "generators.gen_lssf",
    "generators.gen_srpt_s": "generators.gen_srpt",
    "fileio.save_instance_s": "fileio.save_instance",
    "fileio.load_instance_s": "fileio.load_instance",
    "fileio.save_schedule_s": "fileio.save_schedule",
    "fileio.save_trace_s": "fileio.save_trace",
    "fileio.load_trace_s": "fileio.load_trace",
}
COUNT_METRICS = ("offline.lrtb_segments", "online.events", "online.segments", "fileio.trace_bytes")

GENERATORS = {
    "random": lambda op, ctx: gen_random_feasible(op.n, op.seed, ctx),
    "lssf": lambda op, ctx: gen_lssf(op.n, ctx),
    "srpt": lambda op, ctx: gen_srpt(op.n, ctx),
}


class CountingContext(PrecisionContext):
    """PrecisionContext that counts its compare and sqrt calls."""

    __slots__ = ("compare_calls", "sqrt_calls")

    def __init__(self, bits):
        super().__init__(bits)
        self.compare_calls = 0
        self.sqrt_calls = 0

    def compare(self, a, b):
        self.compare_calls += 1
        return super().compare(a, b)

    def sqrt(self, x):
        self.sqrt_calls += 1
        return super().sqrt(x)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def totals(self):
        out = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self):
        """Each command's duration minus what its child spans cover."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent is None:
                out[name] += end - start - child[i]
        return out


class NullTracer:
    def span(self, name):
        return contextlib.nullcontext()


class Round:
    """One pass over the plan's operations in this process."""

    def __init__(self, plan, workdir, tracer, make_ctx):
        self.plan, self.workdir, self.tracer = plan, workdir, tracer
        self.contexts = {}
        self.make_ctx = make_ctx
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.oracle = {}

    def ctx(self, bits):
        if bits not in self.contexts:
            self.contexts[bits] = self.make_ctx(bits)
        return self.contexts[bits]

    def path(self, name):
        return os.path.join(self.workdir, name)

    def run(self):
        codes = []
        for op in self.plan.ops:
            try:
                codes.append(self.run_op(op))
            except Exception:  # the CLI would exit non-zero; count it there
                traceback.print_exc()
                codes.append(-1)
        return codes

    def run_op(self, op):
        span, ctx = self.tracer.span, self.ctx(op.bits)
        with span(f"cmd.{op.kind}"):
            if op.kind == "gen":
                with span(f"generators.gen_{op.family}"):
                    inst = GENERATORS[op.family](op, ctx)
                with span("fileio.save_instance"):
                    save_instance(inst, self.path(op.instance), ctx)
                return 0
            with span("fileio.load_instance"):
                inst = load_instance(self.path(op.instance), ctx)
            if op.kind == "solve":
                with span("offline.lrtb"):
                    schedule, verdict = lrtb(inst, ctx)
                self.counts["offline.lrtb_segments"] += len(schedule.segments)
                with span("fileio.save_schedule"):
                    save_schedule(inst, schedule, verdict, self.path(op.out), ctx)
                if op.tiny:
                    with span("offline.brute_force"):
                        self.oracle[op.instance] = brute_force_optimal(
                            inst, ORACLE_RESOLUTION, ctx)
                return EXIT_CODES[verdict.status]
            with span(f"online.simulate.{op.policy}"):
                trace = simulate(inst, PolicySpec(Policy(op.policy)), ctx)
            max_stretch(trace)
            with span("fileio.save_trace"):
                save_trace(trace, self.path(op.out), ctx)
            # No CLI command reads traces back; replaying each one is
            # where load_trace gets measured.
            with span("fileio.load_trace"):
                load_trace(self.path(op.out), ctx)
            self.counts["online.events"] += len(trace.events)
            self.counts["online.segments"] += len(trace.segments)
            self.counts["fileio.trace_bytes"] += os.path.getsize(self.path(op.out))
            return 0


def profile_counts(plan, workdir):
    """One round under cProfile: mpmath _cmp calls and lrtb calls per generated instance."""
    profiler = cProfile.Profile()
    rnd = Round(plan, workdir, NullTracer(), PrecisionContext)
    profiler.enable()
    try:
        codes = rnd.run()
    finally:
        profiler.disable()
    profiler.create_stats()
    cmp_calls = lrtb_from_gen = 0
    for (filename, _, func), (_, calls, _, _, callers) in profiler.stats.items():
        if func == "_cmp" and "mpmath" in filename:
            cmp_calls += calls
        if func == "lrtb" and filename.endswith(os.path.join("rampsched", "offline.py")):
            lrtb_from_gen += sum(
                c[1] for (caller_file, _, _), c in callers.items()
                if caller_file.endswith(os.path.join("rampsched", "generators.py"))
            )
    gens = sum(1 for op in plan.ops if op.kind == "gen")
    return codes, rnd.oracle, {
        "core.mpf_cmp_calls": cmp_calls,
        "generators.lrtb_calls": lrtb_from_gen / gens if gens else 0,
    }


def import_seconds():
    """Median time to import rampsched.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import rampsched.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], env=cli_env(), check=True,
                             capture_output=True, text=True, timeout=60).stdout
        samples.append(float(out.strip()))
    return statistics.median(samples)


def per_call_us(fn):
    samples = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        for _ in range(MICRO_CALLS):
            fn()
        samples.append((time.perf_counter() - t0) / MICRO_CALLS * 1e6)
    return statistics.median(samples)


def core_costs(plan, workdir):
    """Per-call cost of work_in, completion_from and compare at the workload's precision."""
    ctx = PrecisionContext(plan.bits)
    first = next(op for op in plan.ops if op.bits == plan.bits and op.kind != "gen")
    job = max(load_instance(os.path.join(workdir, first.instance), ctx).jobs,
              key=lambda j: (j.work, j.id))
    a = job.release + job.length / 4
    b = job.release + job.length * 3 / 4
    half = job.work / 2
    return {
        "core.work_in_us": per_call_us(lambda: work_in(job, a, b)),
        "core.completion_from_us": per_call_us(lambda: completion_from(job, a, half, ctx)),
        "core.compare_us": per_call_us(lambda: ctx.compare(a, b)),
    }


def traced_run(plan, workdir, seconds):
    """Returns (per-layer metrics, attempted, failures per round)."""
    start = time.perf_counter()
    metrics = {"cli.import_s": import_seconds()}
    codes, oracle, counted = profile_counts(plan, workdir)
    verifier = Verifier(plan, oracle)
    failures = [verifier(codes, workdir)]
    metrics.update(counted)
    metrics.update(core_costs(plan, workdir))

    traced, untraced, layer_totals = [], [], defaultdict(list)
    last = {}

    def untraced_round():
        gc.collect()
        t0 = time.perf_counter()
        codes = Round(plan, workdir, NullTracer(), PrecisionContext).run()
        untraced.append(time.perf_counter() - t0)
        failures.append(verifier(codes, workdir))

    def traced_round():
        tracer = Tracer()
        rnd = Round(plan, workdir, tracer, CountingContext)
        gc.collect()
        t0 = time.perf_counter()
        codes = rnd.run()
        traced.append(time.perf_counter() - t0)
        failures.append(verifier(codes, workdir))
        totals = tracer.totals()
        for metric, span in SPAN_METRICS.items():
            layer_totals[metric].append(totals.get(span, 0.0))
        last.update(tracer=tracer, round=rnd)

    def one_pair():
        # Alternate which side goes first, so drift and leftover garbage
        # from the previous round do not always land on the same side.
        first, second = (traced_round, untraced_round) if len(traced) % 2 else (
            untraced_round, traced_round)
        first()
        second()

    pairs = timed_rounds(seconds, one_pair, start)
    for metric, values in layer_totals.items():
        metrics[metric] = statistics.median(values)
    rnd, tracer = last["round"], last["tracer"]
    metrics.update(rnd.counts)
    metrics["core.compare_calls"] = sum(c.compare_calls for c in rnd.contexts.values())
    metrics["core.sqrt_calls"] = sum(c.sqrt_calls for c in rnd.contexts.values())
    untraced_s = statistics.median(untraced)
    metrics["trace.overhead_pct"] = (statistics.median(traced) - untraced_s) / untraced_s * 100

    spans_path = os.path.join(os.path.dirname(workdir), f"spans-{os.path.basename(workdir)}.json")
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "self_s": tracer.self_times()}, fh)
    for name, value in sorted(tracer.self_times().items()):
        print(f"self time {name}: {value:.4f} s")
    print(f"tracing overhead: {metrics['trace.overhead_pct']:.2f}% "
          f"(traced {statistics.median(traced):.3f} s, untraced {untraced_s:.3f} s per round)")

    units = {"_s": "s", "_us": "us", "_pct": "%", "_bytes": "bytes"}
    out = {}
    for name, value in metrics.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        out[name] = {"value": value, "unit": unit}
    attempted = (1 + 2 * pairs) * len(plan.ops)
    return out, attempted, failures
