"""Instance generators: adversarial families and random corpora.

gen_srpt and gen_lssf are closed forms: the stretch their policy
reaches is derived, and neither simulates nor runs the backward sweep.
gen_fifo and gen_edd shrink a sliver window until simulating the policy
reaches the target stretch, and keep only instances the backward sweep
certifies feasible, so the bad stretch is the policy's fault, not the
instance's.  gen_random_feasible redraws until the sweep certifies its
draw, and adaptive_adversary extends a seed instance after watching the
policy run on it.  The sum-of-square-roots reduction lives in
`offline`, beside its decider.

Where a construction needs exact boundary algebra (a job that fills
its window with zero slack), intervals are re-derived from the stored
endpoints after rounding so that d - r, and hence the feasibility
discriminant, is exact in the working precision.
"""

from __future__ import annotations

import math

from .core import (
    Instance,
    Policy,
    PrecisionContext,
    SchedulingError,
    lazy_job,
    work_in,
)

# The closed forms (gen_srpt, gen_lssf) need neither the sweep nor the
# simulator, so the functions that do import offline and online
# themselves: `gen lssf` and `gen srpt` load neither.  decimal and
# random are imported the same way, by their one user each.

__all__ = [
    "AdversaryOutcome",
    "gen_srpt",
    "gen_lssf",
    "gen_fifo",
    "gen_edd",
    "gen_random_feasible",
    "adaptive_adversary",
]


# --- decimal rationalization -------------------------------------------------


def _round_decimal(value, rel, ctx, up: bool):
    """Nearest decimal within relative distance `rel`, rounded outward."""
    from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal

    if not rel > 0:
        raise ValueError(f"rationalize bound must be positive, got {ctx.format(rel)}")
    if value == 0:
        return value
    scaled = float(abs(value) * rel)
    if not 0 < scaled < math.inf:
        raise ValueError(f"rationalize bound {ctx.format(rel)} is out of range")
    exponent = math.floor(math.log10(scaled))
    quantum = Decimal(1).scaleb(exponent)
    dec = Decimal(ctx.format(value))
    mode = ROUND_CEILING if up else ROUND_FLOOR
    # Enough digits for the quantized coefficient, with room for a carry.
    digits = Context(prec=max(1, dec.adjusted() - exponent + 2))
    return ctx.parse(str(dec.quantize(quantum, rounding=mode, context=digits)))


# --- worst-case families -----------------------------------------------------


def gen_srpt(n: int, ctx: PrecisionContext, rationalize=None) -> Instance:
    """Family where shortest-remaining-time starves the long job.

    One unit of work due at 2, plus n-1 half-unit jobs with a far due
    date, all released at 0.  The half-unit jobs always look shorter,
    so they run back to back, completing at 1, sqrt(2), ..., sqrt(n-1);
    the unit job finishes at sqrt(n+1), stretch sqrt(n+1)/2.
    """
    if n < 2:
        raise ValueError("need at least two jobs")
    far = ctx.sqrt(n) + 2
    if rationalize is not None:
        far = _round_decimal(far, ctx.real(rationalize), ctx, up=True)
    half = ctx.real(1) / 2
    jobs = [lazy_job(1, ctx.real(0), ctx.real(2), ctx.real(1))]
    for k in range(2, n + 1):
        jobs.append(lazy_job(k, ctx.real(0), far, half))
    return Instance(
        tuple(jobs),
        name=f"srpt-starve-{n}",
        provenance=f"gen_srpt(n={n})",
    )


def gen_lssf(n: int, ctx: PrecisionContext, rationalize=None) -> Instance:
    """Cascade in which greedy stretch-chasing snowballs to sqrt(n-1).

    Job 2 overtakes the long job 1 at stretch s = 1/4, finishing
    late; from job 3 on, each job's window is sized so its
    stretch-so-far when it finally starts is exactly sqrt(j-2), making
    it complete at stretch sqrt(j-1).  Every window from job 3 on is
    full (work = length^2/2) at the working precision, but not exactly:
    without `rationalize`, the rounded work of some of those jobs exceeds
    the capacity of their rounded window by about an ulp, so the stored
    instance is infeasible in exact arithmetic even though the backward
    sweep, with its tolerance, calls it feasible.  `rationalize` rounds
    each width up and each work down to a decimal grid, which leaves
    every window room to spare.
    """
    if n < 3:
        raise ValueError("the cascade needs at least three jobs")
    s = ctx.real(1) / 4
    r1 = ctx.real(-1)
    d1 = 1 / s  # crossing of (t - r1)/(d1 - r1) with t/1 lands exactly at s
    one = ctx.real(1)

    jobs = [lazy_job(2, ctx.real(0), one, one / 2)]
    completion = ctx.sqrt(1 + s * s)  # job 2 runs [s, C2]
    d = one  # due date of the job before j; job j is released there
    for j in range(3, n + 1):
        r = d
        q = ctx.sqrt(j - 2)  # stretch-so-far target at takeover
        width = (completion - r) / q
        if rationalize is not None:
            width = _round_decimal(width, ctx.real(rationalize), ctx, up=True)
        d = r + width
        width = d - r  # exact at working precision; keeps the window full
        w = width * width / 2
        if rationalize is not None:
            w = _round_decimal(w, ctx.real(rationalize), ctx, up=False)
        jobs.append(lazy_job(j, r, d, w))
        completion = r + ctx.sqrt(j - 1) * width

    # Job 1 runs [-1, s], is overtaken, and resumes after the cascade.
    early = (s - r1) * (s - r1) / 2
    tail_start = completion
    probe = lazy_job(1, r1, d1, one)  # geometry only; work set below
    tail = work_in(probe, tail_start, d1)
    if tail <= 0:
        raise SchedulingError("cascade ran past the long job's due date")
    w1 = early + tail / 2
    jobs.insert(0, lazy_job(1, r1, d1, w1))
    return Instance(
        tuple(jobs),
        name=f"lssf-cascade-{n}",
        provenance=f"gen_lssf(n={n})",
    )


def _sliver_target(target, ctx):
    target = ctx.parse(target)
    if not target > 1:
        raise ValueError("target stretch must exceed 1")
    # gen_fifo sizes its sliver from the target's binary logarithm in doubles.
    if not math.isfinite(float(target)):
        raise ValueError(f"target stretch {target} does not fit in a double")
    return target


def _verified_family(build, knob, kind, target, ctx):
    """Halve the knob until the simulated stretch reaches the target.

    build(knob) returns the jobs; `knob` is the first value tried, and
    8 values are tried at most.
    """
    from .offline import Feasibility, lrtb
    from .online import PolicySpec, max_stretch, simulate

    for _ in range(8):
        try:
            jobs = build(knob)
        except ValueError as exc:  # the sliver window collapsed onto its release
            raise ValueError(
                f"target stretch {ctx.format(target)} needs a sliver window "
                f"too narrow for {ctx.bits} bits ({exc})"
            ) from exc
        inst = Instance(
            jobs,
            name=f"{kind.value}-sliver-{ctx.format(target)}",
            provenance=f"gen_{kind.value}(target={ctx.format(target)})",
        )
        sched, verdict = lrtb(inst, ctx)
        if verdict.status is not Feasibility.FEASIBLE:
            raise SchedulingError(
                f"generated instance {inst.name} not certified feasible"
            )
        trace = simulate(inst, PolicySpec(kind), ctx)
        if max_stretch(trace) >= target:
            return inst
        knob = knob / 2
    raise SchedulingError("could not reach the target stretch")


def gen_fifo(target, ctx: PrecisionContext) -> Instance:
    """First-in-first-out forced to stretch a sliver job past `target`.

    A long job due comfortably late runs first and completes exactly
    at 2; a sliver released at 1 with window width delta then waits a
    full unit, giving stretch sqrt(1 + delta^2)/delta > 1/delta.
    """
    target = _sliver_target(target, ctx)

    def build(delta):
        return (
            lazy_job(1, ctx.real(0), ctx.real(3), ctx.real(2)),
            lazy_job(2, ctx.real(1), 1 + delta, delta * delta / 2),
        )

    start = ctx.real(2) ** -math.ceil(math.log2(float(target)))
    return _verified_family(build, start, Policy.FIFO, target, ctx)


def gen_edd(target, ctx: PrecisionContext) -> Instance:
    """Earliest-due-date forced to stretch a sliver job past `target`.

    Jobs 1 and 2 fill the prefix so tightly that serving job 2 first
    (its due date is earlier) leaves job 1 finishing late by a fixed
    amount; a sliver job due just after job 1 then inherits that
    lateness across a window of width lateness/target.
    """
    from .online import PolicySpec, simulate

    target = _sliver_target(target, ctx)
    pair = (
        lazy_job(1, ctx.real(0), ctx.real(2), ctx.real(53) / 32),
        lazy_job(2, ctx.real(1), ctx.real(3) / 2, ctx.real(3) / 32),
    )
    rehearsal = simulate(Instance(pair), PolicySpec(Policy.EDD), ctx)
    lateness = rehearsal.completions[1] - 2
    if not lateness > 0:
        raise SchedulingError("prefix failed to delay the anchor job")

    def build(delta):
        return pair + (lazy_job(3, ctx.real(2), 2 + delta, delta * delta / 4),)

    return _verified_family(build, lateness / target, Policy.EDD, target, ctx)


def gen_random_feasible(n: int, seed: int, ctx: PrecisionContext) -> Instance:
    """Random instance the backward sweep certifies feasible.

    Draws windows and work fractions from a seeded RNG, then shrinks
    work (and eventually redraws) until the feasibility verdict is
    decisive.  Deterministic in (n, seed).
    """
    import random

    from .offline import Feasibility, lrtb

    if n < 1:
        raise ValueError("need at least one job")
    rng = random.Random(seed)
    for _attempt in range(40):
        jobs = []
        for i in range(1, n + 1):
            r = rng.uniform(0, n)
            width = rng.uniform(0.5, 2.5)
            slope = rng.choice([0.5, 1.0, 2.0])
            frac = rng.uniform(0.1, 0.6)
            work = frac * slope * width * width / 2
            jobs.append(
                lazy_job(
                    i,
                    ctx.real(r),
                    ctx.real(r) + ctx.real(width),
                    ctx.real(work),
                    slope=ctx.real(slope),
                )
            )
        for _shrink in range(8):
            inst = Instance(
                tuple(jobs),
                name=f"random-{n}-{seed}",
                provenance=f"gen_random_feasible(n={n}, seed={seed})",
            )
            _, verdict = lrtb(inst, ctx)
            if verdict.status is Feasibility.FEASIBLE:
                return inst
            jobs = [
                lazy_job(j.id, j.release, j.due, j.work * 3 / 4, slope=j.slope)
                for j in jobs
            ]
    raise SchedulingError(f"no feasible draw for n={n}, seed={seed}")


# --- adaptive adversary ------------------------------------------------------


class AdversaryOutcome:
    """The policy's trace on the extended instance, and the branch chosen.

    The instance is trace.instance, and the policy missed a due date
    when online.missed_due_dates(trace) lists a job.  branch names the
    extension the adversary chose.
    """

    __slots__ = ("trace", "branch")

    def __init__(self, trace, branch: str):
        self.trace = trace
        self.branch = branch


_SEED_LONG = ("0", "10", "26.984375")  # release, due, work
_SEED_TIGHT = ("2", "4", "1.5")
_PROBE_TIME = 2


def adaptive_adversary(spec, ctx: PrecisionContext) -> AdversaryOutcome:
    """Watch the policy on a two-job seed, then add the job it cannot absorb.

    The seed pairs a long, work-heavy job with a tight one released at
    t=2.  A policy serving the tight job then is starved of the late
    cheap hours the long job needs, so a zero-slack job dropped into
    [5, 8] overloads it; a policy still on the long job (or idling) is
    running it during hours a tight sliver at [2.25, 3.03125] needed.
    Either extension stays feasible for the backward sweep.  Since
    simulation is deterministic and policies cannot see unreleased
    jobs, rerunning on the extended instance reproduces the observed
    prefix exactly.  spec is an online.PolicySpec.
    """
    from .online import simulate

    seed_jobs = (
        lazy_job(1, *(ctx.parse(v) for v in _SEED_LONG)),
        lazy_job(2, *(ctx.parse(v) for v in _SEED_TIGHT)),
    )
    rehearsal = simulate(Instance(seed_jobs), spec, ctx)
    probe = ctx.real(_PROBE_TIME)
    running = None
    for seg in rehearsal.segments:
        if seg.start <= probe < seg.end:
            running = seg.job
            break
    if running == 2:
        extra = lazy_job(4, ctx.real(5), ctx.real(8), ctx.real("4.5"))
        branch = "starve-late-hours"
    else:
        extra = lazy_job(
            3, ctx.parse("2.25"), ctx.parse("3.03125"), ctx.parse("0.3046875")
        )
        branch = "occupy-sliver-window"
    inst = Instance(
        seed_jobs + (extra,),
        name=f"adversary-{spec.kind.value}",
        provenance=f"adaptive_adversary(policy={spec.kind.value}, branch={branch})",
    )
    return AdversaryOutcome(simulate(inst, spec, ctx), branch)
