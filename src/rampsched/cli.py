"""Command-line interface.

Subcommands: solve (offline feasibility), simulate (run a policy),
gen (instance families), check (surd-sum queries), bench (measurement
sweeps).  Exit codes for solve/check follow the verdict: 0 feasible,
1 infeasible, 2 indeterminate; usage and format errors, and an output
that cannot be written, exit 64.  A reader that closes stdout early
ends the command quietly with exit 141.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .core import (
    Policy,
    PrecisionContext,
    SchedulingError,
    UnsupportedInstanceError,
    retry_hint,
    total_busy_time,
)

# Each command imports the layers it runs itself, so a call compiles and
# runs only those: `solve` loads offline, `simulate` online, and `gen`
# the generators, which load offline and online only for the families
# that run the sweep or the simulator.  Only these three read or write
# files, so only they load fileio; `check`, `bench` and `--help` do not.

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141  # what a shell reports for a writer killed by SIGPIPE

# Exit code by the value of an offline.Feasibility.
_STATUS_EXIT = {
    "feasible": EXIT_FEASIBLE,
    "infeasible": EXIT_INFEASIBLE,
    "indeterminate": EXIT_INDETERMINATE,
}


class _Parser(argparse.ArgumentParser):
    """argparse that exits 64 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_precision(parser):
    parser.add_argument(
        "--precision",
        type=int,
        default=128,
        metavar="BITS",
        help="working precision in bits (default 128; <=53 uses doubles); "
        "the comparison tolerance is 2**-(BITS-16)",
    )


def _add_query(parser):
    """The surd-sum query options, read by `gen reduction` and `check`."""
    parser.add_argument("--xs", required=True, help="comma-separated integers")
    parser.add_argument("--threshold", type=int, required=True)


def _add_policy(parser):
    """The options that _policy_spec reads."""
    parser.add_argument("--policy", required=True, choices=[p.value for p in Policy])
    parser.add_argument("--alpha", default="2", help="idle threshold")
    parser.add_argument("--cap", default=None, help="cap speeds at CAP * speed(due date)")


def _context(args) -> PrecisionContext:
    try:
        return PrecisionContext(bits=args.precision)
    except ValueError as exc:
        raise SystemExit(_fail_usage(exc))


def _policy_spec(args, ctx):
    """The policy options as an online.PolicySpec, parsed at the working precision."""
    from .online import PolicySpec

    cap = None if args.cap is None else ctx.parse(args.cap)
    return PolicySpec(
        Policy(args.policy), alpha=ctx.parse(args.alpha), speed_cap_factor=cap
    )


def _short(x):
    """x to 12 significant digits, from the scalar itself outside float's range."""
    f = float(x)
    if not isinstance(x, float) and (math.isinf(f) or (f == 0 and x != 0)):
        return x.to_str(12)  # float() saturated to inf or flushed to 0
    return f"{f:.12g}"


def _fail_usage(message) -> int:
    print(message, file=sys.stderr)
    return EXIT_USAGE


def _finish(verdict, bits) -> int:
    """Print the retry hint for an indeterminate verdict; return the exit code."""
    code = _STATUS_EXIT[verdict.status.value]
    if code == EXIT_INDETERMINATE:
        print(f"margin is inside the comparison tolerance at {bits} bits; "
              + retry_hint(2 * bits))
    return code


# --- solve -------------------------------------------------------------------


def cmd_solve(args) -> int:
    from .fileio import FileFormatError, load_instance, save_schedule
    from .offline import solve

    ctx = _context(args)
    try:
        instance = load_instance(args.instance, ctx)
    except FileFormatError as exc:
        return _fail_usage(exc)
    try:
        schedule, verdict = solve(instance, ctx)
    except UnsupportedInstanceError as exc:
        return _fail_usage(f"{args.instance}: {exc}")
    print(f"instance: {instance.name or args.instance}")
    print(f"status: {verdict.status.value}")
    if verdict.margin is not None:
        print(f"margin: {_short(verdict.margin)}")
    if schedule is not None:
        print(f"busy time: {_short(total_busy_time(schedule))}")
    for jid, deficit in sorted(verdict.deficits.items()):
        print(f"job {jid} deficit: {_short(deficit)}")
    code = _finish(verdict, args.precision)
    if args.out:
        if schedule is None:
            print("no schedule to write (instance not feasible)", file=sys.stderr)
        else:
            save_schedule(instance, schedule, verdict, args.out, ctx)
            print(f"schedule written to {args.out}")
    return code


# --- simulate ----------------------------------------------------------------


def cmd_simulate(args) -> int:
    from .fileio import FileFormatError, load_instance, save_trace, write_plot_data
    from .online import max_stretch, missed_due_dates, simulate

    ctx = _context(args)
    try:
        instance = load_instance(args.instance, ctx)
        spec = _policy_spec(args, ctx)
    except (FileFormatError, ValueError) as exc:
        return _fail_usage(exc)
    try:
        trace = simulate(instance, spec, ctx)
    except SchedulingError as exc:
        return _fail_usage(exc)
    worst = max_stretch(trace)
    missed = missed_due_dates(trace)
    print(f"instance: {instance.name or args.instance}")
    print(f"policy: {spec.kind.value} (alpha={args.alpha}, cap={args.cap})")
    print(f"max stretch: {_short(worst)}")
    print(f"busy time: {_short(trace.busy_time)}")
    lo, hi = instance.horizon
    print(f"busy fraction of horizon: {float(total_busy_time(trace, until=hi) / (hi - lo)):.4f}")
    if missed:
        print(f"missed due dates: jobs {', '.join(str(j) for j in missed)}")
    else:
        print("missed due dates: none")
    if args.trace_out:
        save_trace(trace, args.trace_out, ctx)
        print(f"trace written to {args.trace_out}")
    if args.plot_out:
        gantt = write_plot_data(trace, args.plot_out, ctx)
        print(f"plot data written to {args.plot_out} and {gantt}")
    return 0


# --- gen ---------------------------------------------------------------------


def cmd_gen(args) -> int:
    import json

    from .fileio import instance_to_record, save_instance, save_trace

    ctx = _context(args)
    trace = None
    try:
        if args.family in ("lssf", "srpt"):
            from .generators import gen_lssf, gen_srpt

            rel = None if args.rationalize is None else ctx.parse(args.rationalize)
            family = gen_lssf if args.family == "lssf" else gen_srpt
            instance = family(args.n, ctx, rationalize=rel)
        elif args.family == "fifo":
            from .generators import gen_fifo

            instance = gen_fifo(args.target, ctx)
        elif args.family == "edd":
            from .generators import gen_edd

            instance = gen_edd(args.target, ctx)
        elif args.family == "random":
            from .generators import gen_random_feasible

            instance = gen_random_feasible(args.n, args.seed, ctx)
        elif args.family == "reduction":
            from .offline import SsrQuery, reduce_ssr

            query = SsrQuery(_parse_int_list(args.xs), args.threshold)
            instance = reduce_ssr(query, ctx)
        elif args.family == "adversary":
            from .generators import adaptive_adversary
            from .online import missed_due_dates

            trace, branch = adaptive_adversary(_policy_spec(args, ctx), ctx)
            instance = trace.instance
            print(f"branch: {branch}")
            print(f"policy missed a due date: {bool(missed_due_dates(trace))}")
        else:  # pragma: no cover - argparse restricts choices
            return _fail_usage(f"unknown family {args.family}")
    except (ValueError, SchedulingError) as exc:
        return _fail_usage(exc)
    if args.out:
        save_instance(instance, args.out, ctx)
        print(f"instance written to {args.out}")
    else:
        json.dump(instance_to_record(instance, ctx), sys.stdout, indent=2)
        print()
    if trace is not None and args.trace_out:
        save_trace(trace, args.trace_out, ctx)
        print(f"trace written to {args.trace_out}")
    return 0


def _parse_int_list(text):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_seed_spec(text):
    """Seed list like "1..100" or "3,7,21" (ranges are inclusive)."""
    seeds = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ".." in tok:
            lo_text, hi_text = tok.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"empty seed range {tok!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(tok))
    return seeds


# --- check -------------------------------------------------------------------


def cmd_check(args) -> int:
    from .offline import SsrQuery, check_reduction

    ctx = _context(args)
    try:
        query = SsrQuery(_parse_int_list(args.xs), args.threshold)
        _, verdict = check_reduction(query, ctx)
    except ValueError as exc:
        return _fail_usage(exc)
    total = " + ".join(f"sqrt({x})" for x in query.xs)
    print(f"query: {total} >= {query.threshold}")
    print(f"status: {verdict.status.value}")
    print(f"margin: {_short(verdict.margin)}")
    return _finish(verdict, args.precision)


# --- bench -------------------------------------------------------------------


def cmd_bench(args) -> int:
    import csv

    from .generators import gen_lssf, gen_random_feasible
    from .online import PolicySpec, max_stretch, missed_due_dates, simulate

    ctx = _context(args)
    try:
        seeds = _parse_seed_spec(args.seeds)
    except ValueError as exc:
        return _fail_usage(exc)
    if args.jobs < 1:
        return _fail_usage(f"--jobs must be at least 1, got {args.jobs}")
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        if args.suite == "thrashing":
            writer.writerow(["seed", "n", "variant", "max_stretch", "busy_time"])
            for seed in seeds:
                n = 1 + (seed % args.jobs)
                instance = gen_random_feasible(n, seed, ctx)
                for variant, cap in (("alpha2", None), ("alpha2-cap2", 2)):
                    spec = PolicySpec(Policy.THRASHING, alpha=2, speed_cap_factor=cap)
                    trace = simulate(instance, spec, ctx)
                    writer.writerow(
                        [seed, n, variant,
                         ctx.format(max_stretch(trace)), ctx.format(trace.busy_time)]
                    )
        elif args.suite == "lssf":
            writer.writerow(["n", "expected", "observed", "rel_err"])
            for n in range(3, args.jobs + 1):
                instance = gen_lssf(n, ctx)
                trace = simulate(instance, PolicySpec(Policy.LSSF), ctx)
                observed = max_stretch(trace)
                expected = ctx.sqrt(n - 1)
                rel = abs(observed - expected) / expected
                writer.writerow(
                    [n, ctx.format(expected), ctx.format(observed), _short(rel)]
                )
        elif args.suite == "policies":
            writer.writerow(["seed", "n", "policy", "max_stretch", "busy_time", "missed"])
            for seed in seeds:
                n = 1 + (seed % args.jobs)
                instance = gen_random_feasible(n, seed, ctx)
                for kind in Policy:
                    trace = simulate(instance, PolicySpec(kind), ctx)
                    writer.writerow(
                        [seed, n, kind.value,
                         ctx.format(max_stretch(trace)), ctx.format(trace.busy_time),
                         len(missed_due_dates(trace))]
                    )
        else:  # pragma: no cover - argparse restricts choices
            return _fail_usage(f"unknown suite {args.suite}")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="rampsched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="offline feasibility and busy time")
    p_solve.add_argument("instance", help="instance JSON file")
    p_solve.add_argument("--out", metavar="FILE", help="write the schedule as JSON")
    _add_precision(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="run an online policy")
    p_sim.add_argument("instance", help="instance JSON file")
    _add_policy(p_sim)
    p_sim.add_argument("--trace-out", metavar="FILE")
    p_sim.add_argument("--plot-out", metavar="FILE", help="CSV plot data")
    _add_precision(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_gen = sub.add_parser("gen", help="generate instances")
    fam = p_gen.add_subparsers(dest="family", required=True)

    f_lssf = fam.add_parser("lssf", help="stretch cascade family")
    f_srpt = fam.add_parser("srpt", help="shortest-remaining-time starvation family")
    for f in (f_lssf, f_srpt):
        f.add_argument("--n", type=int, required=True)
        f.add_argument(
            "--rationalize", default=None, metavar="REL",
            help="round parameters to nearby decimals (relative error bound)",
        )
    f_fifo = fam.add_parser("fifo", help="first-in-first-out sliver family")
    f_edd = fam.add_parser("edd", help="earliest-due-date sliver family")
    for f in (f_fifo, f_edd):
        f.add_argument("--target", required=True)
    f_rand = fam.add_parser("random", help="random feasible instance")
    f_rand.add_argument("--n", type=int, required=True)
    f_rand.add_argument("--seed", type=int, required=True)
    f_red = fam.add_parser("reduction", help="surd-sum reduction instance")
    _add_query(f_red)
    f_adv = fam.add_parser("adversary", help="adaptive two-phase adversary")
    _add_policy(f_adv)
    f_adv.add_argument("--trace-out", metavar="FILE")
    for f in (f_lssf, f_srpt, f_fifo, f_edd, f_rand, f_red, f_adv):
        f.add_argument("--out", metavar="FILE", help="write instance JSON here")
        _add_precision(f)
    p_gen.set_defaults(func=cmd_gen)

    p_check = sub.add_parser("check", help="decide sum(sqrt(x)) >= threshold")
    _add_query(p_check)
    _add_precision(p_check)
    p_check.set_defaults(func=cmd_check)

    p_bench = sub.add_parser("bench", help="measurement sweeps as CSV")
    p_bench.add_argument(
        "--suite", required=True, choices=["thrashing", "lssf", "policies"]
    )
    p_bench.add_argument(
        "--seeds", default="", help='seed list, e.g. "1..100" or "3,7"'
    )
    p_bench.add_argument(
        "--jobs", type=int, default=20, help="job-count bound (or sweep top for lssf)"
    )
    p_bench.add_argument("--out", metavar="FILE", help="CSV output path")
    _add_precision(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early; keep the exit-time flush from failing too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        return _fail_usage(f"rampsched: {exc}")


if __name__ == "__main__":
    sys.exit(main())
