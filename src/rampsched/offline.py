"""Offline scheduling: feasibility, validation, and busy-time bounds.

The central routine is a backward sweep from the latest due date that
always runs the available job with the latest release time.  Running
late is maximally cheap in this model (speeds ramp up), so the sweep
packs work as close to the deadlines as priorities allow; it fails to
place some work only when every schedule fails, which makes it both a
busy-time minimizer and a feasibility decider.  That equivalence is
what the verdict logic below relies on.  The sweep costs O(n log n)
comparisons: one sort by due date, plus a heap keyed on release.

The module holds both feasibility deciders: the sweep, and the
sum-of-square-roots reduction with its checker, which decides an
instance built by `reduce_ssr` from the surd sum it encodes.  `solve`
routes an instance to one of them.  Busy time of a schedule is
`core.total_busy_time`.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from bisect import bisect_left, bisect_right

from .core import (
    DOUBLE,
    InfeasibleIntervalError,
    Instance,
    PrecisionContext,
    Record,
    Schedule,
    Segment,
    UnsupportedInstanceError,
    Verdict,
    dyadic,
    lazy_job,
    nonlazy_job,
    retry_hint,
    work_in,
)


class Feasibility(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INDETERMINATE = "indeterminate"


class FeasibilityVerdict:
    """Outcome of a feasibility check.

    deficits maps job id to work provably left over (infeasible case).
    margin is the smallest gap any decision rested on: time distance
    to a release for exhausted jobs, leftover work for deficient ones.
    Units are therefore mixed; treat it as a diagnostic of how close
    the instance is to the boundary, not as a single metric.  Every
    decider returns it beside its schedule, as (schedule or None, verdict).
    """

    __slots__ = ("status", "deficits", "margin")

    def __init__(self, status: Feasibility, deficits: dict | None = None, margin=None):
        self.status = status
        self.deficits = {} if deficits is None else deficits
        self.margin = margin


def _check_sweepable(instance: Instance):
    for j in instance.jobs:
        if j.work == 0:
            continue
        if not j.is_lazy:
            raise UnsupportedInstanceError(
                f"job {j.id} has a nonzero base speed; the backward sweep "
                "covers pure-ramp jobs only"
            )


def lrtb(instance: Instance, ctx: PrecisionContext):
    """Backward sweep prioritizing the latest release time.

    Returns (schedule, verdict).  The schedule holds whatever work
    could be placed, in forward order, so it is a witness exactly when
    the verdict is feasible; the verdict records per-job deficits for
    work that no schedule could place.  A step that exhausts its job
    appends its span without calling work_in.
    """
    _check_sweepable(instance)
    jobs = [j for j in instance.jobs if j.work > 0]
    rem = {j.id: j.work for j in jobs}
    segments = []
    deficits = {}
    margin = None
    indeterminate = False

    def note_margin(value):
        nonlocal margin
        if margin is None or value < margin:
            margin = value

    if jobs:
        # Jobs by due date, latest first; by_due[k:] are not yet admitted,
        # so their work is untouched and by_due[k].due is the next due date.
        by_due = sorted(jobs, key=lambda j: j.due, reverse=True)
        k = 0
        # Admitted jobs by (-release, id); spent ones leave lazily.  tau
        # stops at every due date and never drops below the top's release,
        # so every admitted job with work left is runnable.
        heap = []
        tau = by_due[0].due
        while True:
            while k < len(by_due) and by_due[k].due >= tau:
                j = by_due[k]
                heapq.heappush(heap, (-j.release, j.id, j))
                k += 1
            while heap and not rem[heap[0][1]] > 0:
                heapq.heappop(heap)
            next_due = by_due[k].due if k < len(by_due) else None
            if not heap:
                if next_due is None:
                    break
                tau = next_due
                continue
            top = heap[0][2]
            r = top.release
            # Where the top job's remaining work runs out, sweeping backward.
            disc = (tau - r) * (tau - r) - 2 * rem[top.id] / top.slope
            exhaust = r + ctx.sqrt(disc) if disc > 0 else None
            lo = r if exhaust is None else exhaust
            if next_due is not None and next_due > lo:
                lo = next_due
            if lo < tau:
                segments.append(Segment(top.id, lo, tau))
            if exhaust is not None and lo == exhaust:
                rem[top.id] = 0
                note_margin(exhaust - r)
            elif next_due is not None and lo == next_due:
                # next_due is below every admitted due date, so lo < tau.
                rem[top.id] = rem[top.id] - work_in(top, lo, tau)
            else:
                # Swept to the release without finishing; [tau, tau] holds no work.
                deficit = rem[top.id] - (work_in(top, lo, tau) if lo < tau else 0)
                rem[top.id] = 0
                cmp = ctx.compare(deficit, 0)
                if cmp is Verdict.GREATER:
                    deficits[top.id] = deficit
                elif cmp is Verdict.INDETERMINATE:
                    indeterminate = True
                note_margin(abs(deficit))
            # A residue of work can round exhaust an ulp above tau.  A step
            # forward would overlap the last segment, and could run a job
            # admitted at tau past its due date.
            tau = min(lo, tau)

    if deficits:
        status = Feasibility.INFEASIBLE
    elif indeterminate:
        status = Feasibility.INDETERMINATE
    else:
        status = Feasibility.FEASIBLE
    return Schedule(tuple(segments)), FeasibilityVerdict(status, deficits, margin)


# --- sum-of-square-roots reduction -------------------------------------------


class SsrQuery(Record):
    """Decide whether sum(sqrt(x)) >= threshold for positive integers x."""

    __slots__ = _fields = ("xs", "threshold")

    def __init__(self, xs, threshold: int):
        xs = tuple(int(x) for x in xs)
        if not xs or any(x < 1 for x in xs):
            raise ValueError("xs must be positive integers")
        threshold = int(threshold)
        if threshold < 1:
            raise ValueError("threshold must be a positive integer")
        self.xs = xs
        self.threshold = threshold


def reduce_ssr(query: SsrQuery, ctx: PrecisionContext) -> Instance:
    """Scheduling instance feasible iff sum(sqrt(x_i)) >= threshold.

    Surd i becomes job i, a ramp job with window length x_i + 2 and work
    (x_i^2 + 3x_i + 4)/2.  Since (x_i + 2)^2 - 2 * work == x_i, pushed
    flush against its due date it runs for exactly (x_i + 2) - sqrt(x_i),
    leaving sqrt(x_i) of idle room in its window.  Windows tile
    [0, sum(x_i + 2)]; for k surds, a constant-speed filler job k+1 due
    at the end needs `threshold` units of that room.

    This is the one definition of the reduction, and it is exact or
    refused: raises ValueError naming the precision to retry at when
    (x_i + 2)^2, x_i^2 + 3x_i + 4, a window end or the threshold is not
    a number of ctx.
    """
    ends = list(itertools.accumulate(x + 2 for x in query.xs))
    works = [x * x + 3 * x + 4 for x in query.xs]
    exact = [(x + 2) ** 2 for x in query.xs] + works + ends + [query.threshold]
    misfits = [n for n in exact if not _is_number_of(n, ctx)]
    if misfits:
        raise _needs_bits(misfits, ctx)
    jobs = [
        lazy_job(i, ctx.real(start), ctx.real(end), ctx.real(w) / 2)
        for i, (start, end, w) in enumerate(zip([0] + ends, ends, works), start=1)
    ]
    jobs.append(
        nonlazy_job(len(jobs) + 1, ctx.real(0), ctx.real(ends[-1]), ctx.real(query.threshold))
    )
    xs_text = ",".join(str(x) for x in query.xs)
    return Instance(
        tuple(jobs),
        name=f"ssr-{len(query.xs)}",
        provenance=f"reduce_ssr(xs=[{xs_text}], threshold={query.threshold})",
    )


def _is_number_of(n: int, ctx: PrecisionContext) -> bool:
    try:
        return ctx.real(n) == n
    except OverflowError:  # past a double's range
        return False


def _needs_bits(numbers, ctx: PrecisionContext) -> ValueError:
    """The error for a query whose integers `numbers` ctx cannot hold.

    Every int of at most b bits is exact at b bits, so the precision
    named holds all of them.
    """
    bits = max(n.bit_length() for n in numbers)
    return ValueError(
        f"the surd-sum query needs {bits} bits to be exact, not {ctx.bits}; "
        + retry_hint(bits)
    )


_THRESHOLD_BITS = 1 << 24  # 2 MB as an int


def recover_ssr_query(instance: Instance, ctx: PrecisionContext):
    """The query q with reduce_ssr(q, ctx).jobs == instance.jobs, or None.

    For k + 1 jobs the only candidate reads x_i from the window length of
    job i, i = 1..k, and the threshold from the work of job k+1.  It is
    the answer only when reduce_ssr rebuilds the instance from it exactly,
    ids included.
    """
    def whole(v, bits):
        # The int v holds, if it has at most `bits` bits.  Reading the
        # pair first keeps a huge value, such as a due date of 1e1000000,
        # from being expanded into an int at all.
        m, e = dyadic(v)
        if e < 0 or m.bit_length() + e > bits:
            raise ValueError("not an integer of the reduction")
        return m << e

    def x(i):
        # (x + 2)**2 and the work x**2 + 3x + 4 are both numbers of ctx only
        # when x + 2 has at most ctx.bits // 2 + 1 bits, so ctx.bits is ample.
        return whole(instance.by_id[i].length, ctx.bits) - 2

    k = len(instance.jobs) - 1
    try:
        # Job i of the reduction depends on x_1..x_i alone, so rebuilding
        # job 1 turns almost every other instance away in O(1).
        if reduce_ssr(SsrQuery((x(1),), 1), ctx).by_id[1] != instance.by_id[1]:
            return None
        # The threshold may be any int ctx holds, however many zero bits
        # end it; one of more than _THRESHOLD_BITS bits is not built.
        threshold = whole(instance.by_id[k + 1].work, _THRESHOLD_BITS)
        query = SsrQuery([x(i) for i in range(1, k + 1)], threshold)
        if reduce_ssr(query, ctx).jobs == instance.jobs:
            return query
    except (KeyError, ValueError, OverflowError):
        pass
    return None


def check_reduction(query: SsrQuery, ctx: PrecisionContext):
    """Decide the reduced instance: (witness or None, verdict).

    All-perfect-square queries resolve exactly through integer square
    roots.  Otherwise the surd sum is compared at working precision;
    a difference inside tolerance yields Indeterminate, since equality
    of an irrational sum cannot be certified numerically.  The witness
    is a schedule of the reduced instance, given only for a feasible
    verdict and only when reduce_ssr can build the instance at ctx.
    Raises ValueError naming the precision to retry at when a number of
    the query overflows ctx.
    """
    roots = [math.isqrt(x) for x in query.xs]
    threshold = query.threshold
    try:
        if all(r * r == x for r, x in zip(roots, query.xs)):
            surplus = sum(roots) - threshold
            margin, deficit = ctx.real(abs(surplus)), ctx.real(-surplus)
            cmp = Verdict.LESS if surplus < 0 else Verdict.GREATER
        else:
            total = ctx.real(0)
            for x in query.xs:
                total = total + ctx.sqrt(x)
            margin, deficit = abs(total - threshold), ctx.real(threshold) - total
            cmp = ctx.compare(total, ctx.real(threshold))
    except OverflowError:  # past a double's range
        raise _needs_bits((*query.xs, threshold), ctx) from None
    if cmp is Verdict.GREATER:
        try:
            witness = _reduction_witness(query, ctx)
        except ValueError:  # the instance itself does not fit ctx
            witness = None
        return witness, FeasibilityVerdict(Feasibility.FEASIBLE, {}, margin)
    if cmp is Verdict.LESS:
        return None, FeasibilityVerdict(
            Feasibility.INFEASIBLE, {len(query.xs) + 1: deficit}, margin
        )
    return None, FeasibilityVerdict(Feasibility.INDETERMINATE, {}, margin)


def _reduction_witness(query: SsrQuery, ctx: PrecisionContext) -> Schedule:
    """Push every surd job flush right, pour the filler into the gaps."""
    inst = reduce_ssr(query, ctx)
    filler = inst.by_id[len(query.xs) + 1]
    segments = []
    gaps = []
    for i, x in enumerate(query.xs, start=1):
        job = inst.by_id[i]
        # The last (x + 2) - sqrt(x) of the window, written without
        # cancellation: (x + 2)^2 - 2 * work == x.
        lo = job.due - 2 * job.work / (job.length + ctx.sqrt(x))
        segments.append(Segment(job.id, lo, job.due))
        if lo > job.release:
            gaps.append((job.release, lo))
    left = ctx.real(query.threshold)
    for lo, hi in gaps:
        if left <= 0:
            break
        room = hi - lo
        segments.append(Segment(filler.id, lo, hi if room < left else lo + left))
        left = left - room if room < left else 0
    return Schedule(tuple(segments))


def solve(instance: Instance, ctx: PrecisionContext):
    """Decide feasibility of any instance: (schedule or None, verdict).

    An instance that reduce_ssr rebuilds exactly (recover_ssr_query) is
    decided by check_reduction, whose schedule is its witness (None unless
    feasible); every other instance goes to lrtb, whose schedule holds
    whatever work it could place.
    Raises UnsupportedInstanceError where lrtb does.
    """
    query = recover_ssr_query(instance, ctx)
    return lrtb(instance, ctx) if query is None else check_reduction(query, ctx)


class ValidationReport:
    """validate_schedule's findings: ok is True when violations is empty.

    incomplete maps each job whose placed work falls short to the
    shortfall.
    """

    __slots__ = ("ok", "violations", "incomplete")

    def __init__(self, ok: bool, violations: list, incomplete: dict):
        self.ok = ok
        self.violations = violations
        self.incomplete = incomplete


def validate_schedule(
    instance: Instance,
    schedule,
    ctx: PrecisionContext,
    require_due_dates: bool = False,
) -> ValidationReport:
    """Check a Schedule or SimTrace against an instance.

    Violations cover overlap and execution outside a job's window.  A
    job's placed work is the sum of work_in over the in-window part of
    its segments, under the speed cap of the trace's policy, if any; a
    job whose placed work falls short is reported in `incomplete`,
    which is a violation only when due dates are required.
    """
    violations = []
    incomplete = {}
    policy = getattr(schedule, "policy", None)  # a Schedule has none
    prev = None
    placed = {j.id: 0 for j in instance.jobs}
    for seg in schedule.segments:
        job = instance.by_id.get(seg.job)
        if job is None:
            violations.append(f"segment references unknown job {seg.job}")
            continue
        # Segment ends, releases and due dates are stored numbers, so
        # overlap and containment are decided exactly.
        if prev is not None and seg.start < prev.end:
            violations.append(
                f"segments overlap: job {prev.job} until {prev.end}, "
                f"job {seg.job} from {seg.start}"
            )
        prev = seg
        if seg.start < job.release:
            violations.append(f"job {seg.job} runs before its release")
        if require_due_dates and seg.end > job.due:
            violations.append(f"job {seg.job} runs past its due date")
        # The speed function is undefined before the release, so integrate
        # from there; the pre-release part was already flagged above.
        lo = seg.start if seg.start > job.release else job.release
        if seg.end > lo:
            cap = None if policy is None else policy.cap(job)
            placed[seg.job] = placed[seg.job] + work_in(job, lo, seg.end, cap)
    for j in instance.jobs:
        cmp = ctx.compare(placed[j.id], j.work)
        if cmp is Verdict.LESS:
            incomplete[j.id] = j.work - placed[j.id]
            if require_due_dates:
                violations.append(f"job {j.id} is short {j.work - placed[j.id]} work")
        elif cmp is Verdict.GREATER:
            violations.append(f"job {j.id} overruns its work amount")
    return ValidationReport(not violations, violations, incomplete)


def _claim_sweep(claims, lengths):
    """Busy time of one job order claiming grid slices, or None if it fails.

    claims holds a (first, works, need) triple per job, in order: the job
    absorbs works[i] in slice first+i, whose length is lengths[first+i].
    It claims free slices from the right until its work covers its need,
    to within double-precision tolerance, so zero-slack jobs fit.
    """
    claimed = [False] * len(lengths)
    busy = 0.0
    for first, works, need in claims:
        if need <= 0.0:
            continue
        # close() cannot hold below `near`: keeps it off the per-slice path.
        near = need - 2 * DOUBLE.rel_tol * max(1.0, need)
        got = 0.0
        used = 0.0
        for s in range(first + len(works) - 1, first - 1, -1):
            if claimed[s]:
                continue
            claimed[s] = True
            got = got + works[s - first]
            used = used + lengths[s]
            if got >= need or (got >= near and DOUBLE.close(got, need)):
                break
        else:
            return None
        busy = busy + used
    return busy


def brute_force_optimal(instance: Instance, resolution: int, ctx: PrecisionContext):
    """Least busy time over grid-restricted schedules (float64 search).

    Each job's window is cut into `resolution` equal slices; the grids
    are merged and every job order claims slices right to left until
    its work fits.  The minimum over orders upper-bounds the true
    optimal busy time and converges to it as the grid refines.  Only
    meant as an oracle for tiny instances; capped at four active jobs.
    """
    _check_sweepable(instance)
    if int(resolution) < 1:
        raise ValueError("resolution must be a positive integer")
    resolution = int(resolution)
    active = [j for j in instance.jobs if j.work > 0]
    if not active:
        return 0.0
    if len(active) > 4:
        raise UnsupportedInstanceError(
            "grid search over job orders is limited to four active jobs"
        )
    del ctx  # search runs in float64; precision context kept for signature parity

    points = set()
    for j in active:
        r, d = float(j.release), float(j.due)
        step = (d - r) / resolution
        for k in range(resolution + 1):
            points.add(r + k * step)
    pts = sorted(points)
    lengths = [right - left for left, right in zip(pts, pts[1:])]

    # The slices inside a job's window form one index range of the grid.
    claims = []
    for j in active:
        r, d = float(j.release), float(j.due)
        m = float(j.slope)
        first = bisect_left(pts, r)
        works = []
        for s in range(first, bisect_right(pts, d) - 1):
            u = pts[s] - r
            v = pts[s + 1] - r
            works.append(m * (v * v - u * u) / 2)
        claims.append((first, works, float(j.work)))

    best = None
    for order in itertools.permutations(claims):
        busy = _claim_sweep(order, lengths)
        if busy is not None and (best is None or busy < best):
            best = busy
    if best is None:
        raise InfeasibleIntervalError(
            f"no job order fits the work at resolution {resolution}"
        )
    return best
