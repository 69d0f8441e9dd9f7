"""Tests for the backward sweep, schedule validation, and the grid oracle."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_mp_python import _mpf as mpf_type

from rampsched import (
    DOUBLE,
    Instance,
    InfeasibleIntervalError,
    PrecisionContext,
    Schedule,
    Segment,
    UnsupportedInstanceError,
    Verdict,
    lazy_job,
    nonlazy_job,
    work_in,
)
from rampsched.core import total_busy_time
from rampsched.generators import gen_lssf, gen_random_feasible, gen_srpt
from rampsched.offline import (
    Feasibility,
    FeasibilityVerdict,
    _claim_sweep,
    brute_force_optimal,
    lrtb,
    validate_schedule,
)

CTX = PrecisionContext(128)


def assert_near(ctx, got, want):
    assert ctx.close(got, want), f"{got} != {want}"


# --- backward sweep on hand-solved instances ---------------------------------


def test_single_job_packs_against_due_date():
    # One unit of work, slope 1, window [0, 2].  Running flush against
    # the due date, the work integral m*((d-r)^2 - (x-r)^2)/2 hits 1 at
    # x = sqrt(2), so the busy time is 2 - sqrt(2).
    inst = Instance((lazy_job(1, 0, 2, 1),))
    schedule, verdict = lrtb(inst, CTX)
    assert verdict.status is Feasibility.FEASIBLE
    assert verdict.witness is schedule
    root2 = CTX.sqrt(2)
    (seg,) = schedule.segments
    assert seg.job == 1
    assert_near(CTX, seg.start, root2)
    assert_near(CTX, seg.end, 2)
    assert_near(CTX, total_busy_time(schedule), 2 - root2)
    assert_near(CTX, verdict.margin, root2)


def test_slope_scales_the_exhaust_point():
    # Same window, slope 4, work 2: discriminant (2-0)^2 - 2*2/4 = 3.
    inst = Instance((lazy_job(1, 0, 2, 2, slope=4),))
    schedule, verdict = lrtb(inst, CTX)
    assert verdict.status is Feasibility.FEASIBLE
    assert_near(CTX, total_busy_time(schedule), 2 - CTX.sqrt(3))


def test_shared_due_date_gives_later_release_the_rightmost_block():
    # A: [0, 4] work 2.  B: [1, 4] work 3.  Sweeping back from 4, the
    # later release (B) runs first: disc_B = 9 - 6 = 3, so B occupies
    # [1 + sqrt(3), 4].  Then disc_A = (1 + sqrt(3))^2 - 4 = 2*sqrt(3)
    # and A occupies [sqrt(2*sqrt(3)), 1 + sqrt(3)].
    inst = Instance((lazy_job(1, 0, 4, 2), lazy_job(2, 1, 4, 3)))
    schedule, verdict = lrtb(inst, CTX)
    assert verdict.status is Feasibility.FEASIBLE
    root3 = CTX.sqrt(3)
    seg_a, seg_b = schedule.segments
    assert (seg_a.job, seg_b.job) == (1, 2)
    assert_near(CTX, seg_b.start, 1 + root3)
    assert_near(CTX, seg_b.end, 4)
    assert_near(CTX, seg_a.start, CTX.sqrt(2 * root3))
    assert_near(CTX, seg_a.end, 1 + root3)
    assert_near(CTX, total_busy_time(schedule), 4 - CTX.sqrt(2 * root3))


def test_earlier_due_date_splits_a_later_job():
    # A: [0, 3] work 2.  B: [1/2, 4] work 37/8.  B would exhaust at
    # 1/2 + sqrt(3) < 3, but A's due date interrupts at 3, so B runs
    # [3, 4] (3 units of work), resumes over [1/2 + sqrt(3), 3], and A
    # packs against 3 down to sqrt(sqrt(3) - 3/4).
    inst = Instance(
        (
            lazy_job(1, 0, 3, 2),
            lazy_job(2, CTX.real("0.5"), 4, CTX.real("4.625")),
        )
    )
    schedule, verdict = lrtb(inst, CTX)
    assert verdict.status is Feasibility.FEASIBLE
    root3 = CTX.sqrt(3)
    half = CTX.real("0.5")
    segs = schedule.segments
    assert [s.job for s in segs] == [1, 2, 2]
    assert_near(CTX, segs[0].start, CTX.sqrt(root3 - CTX.real("0.75")))
    assert_near(CTX, segs[0].end, half + root3)
    assert_near(CTX, segs[1].start, half + root3)
    assert_near(CTX, segs[1].end, 3)
    assert_near(CTX, segs[2].start, 3)
    assert_near(CTX, segs[2].end, 4)
    assert_near(
        CTX, total_busy_time(schedule), 4 - CTX.sqrt(root3 - CTX.real("0.75"))
    )
    assert_near(CTX, verdict.margin, CTX.sqrt(root3 - CTX.real("0.75")))
    report = validate_schedule(inst, schedule, CTX, require_due_dates=True)
    assert report.ok, report.violations


def test_overfull_window_reports_the_deficit():
    # Window [0, 1] at slope 1 holds 1/2 unit of work; asking for 1
    # leaves a deficit of exactly 1/2.
    inst = Instance((lazy_job(1, 0, 1, 1),))
    schedule, verdict = lrtb(inst, CTX)
    assert verdict.status is Feasibility.INFEASIBLE
    assert verdict.witness is None
    assert_near(CTX, verdict.deficits[1], CTX.real("0.5"))
    assert_near(CTX, verdict.margin, CTX.real("0.5"))
    # The sweep still places what fits.
    assert_near(CTX, total_busy_time(schedule), 1)


def test_one_bad_job_does_not_hide_the_good_one():
    inst = Instance((lazy_job(1, 0, 2, 1), lazy_job(2, 0, 1, 1)))
    schedule, verdict = lrtb(inst, CTX)
    assert verdict.status is Feasibility.INFEASIBLE
    assert list(verdict.deficits) == [2]
    assert_near(CTX, verdict.deficits[2], CTX.real("0.5"))
    assert_near(CTX, total_busy_time(schedule), 3 - CTX.sqrt(2))


# Each instance leaves one job with work when the sweep reaches its
# release; rows are (release, due, work) for jobs 1 and 2.
RELEASE_TIES = {
    # Job 2's due date stops the sweep at job 1's release mid-job.
    "release-at-other-due": (((1, 3, "3"), (0, 1, "0.1")), 1, "1"),
    # Job 1 fills the shared window exactly, down to the shared release.
    "shared-release": (((0, 2, "2"), (0, 2, "0.1")), 2, "0.1"),
}


@pytest.mark.parametrize("rows,dropped,deficit", RELEASE_TIES.values(), ids=RELEASE_TIES)
def test_job_reached_at_its_release_keeps_its_deficit(rows, dropped, deficit):
    jobs = tuple(
        lazy_job(i, r, d, CTX.real(w)) for i, (r, d, w) in enumerate(rows, start=1)
    )
    _, verdict = lrtb(Instance(jobs), CTX)
    assert verdict.status is Feasibility.INFEASIBLE
    assert list(verdict.deficits) == [dropped]
    assert_near(CTX, verdict.deficits[dropped], CTX.real(deficit))


def test_integer_grid_witnesses_meet_due_dates():
    feasible = 0
    for seed in range(300):
        rng = random.Random(seed)
        jobs = []
        for i in range(1, rng.randint(2, 5) + 1):
            r = rng.randint(0, 4)
            jobs.append(lazy_job(i, r, r + rng.randint(1, 3), rng.randint(1, 4) / 2))
        inst = Instance(tuple(jobs))
        _, verdict = lrtb(inst, DOUBLE)
        if verdict.status is Feasibility.FEASIBLE:
            feasible += 1
            report = validate_schedule(inst, verdict.witness, DOUBLE, require_due_dates=True)
            assert report.ok, (seed, report.violations)
    assert feasible > 50


def test_zero_slack_window_is_decisively_feasible():
    # Work 2 exactly fills [0, 2]: the deficit is exactly zero, which
    # must come out FEASIBLE with margin 0, not indeterminate.
    inst = Instance((lazy_job(1, 0, 2, 2),))
    schedule, verdict = lrtb(inst, CTX)
    assert verdict.status is Feasibility.FEASIBLE
    assert verdict.margin == 0
    (seg,) = schedule.segments
    assert (seg.start, seg.end) == (0, 2)


def test_verdict_defaults():
    verdict = FeasibilityVerdict(Feasibility.INDETERMINATE)
    assert (verdict.witness, verdict.deficits, verdict.margin) == (None, {}, None)
    # Every verdict gets its own deficits map.
    assert FeasibilityVerdict(Feasibility.FEASIBLE).deficits is not verdict.deficits
    keyed = FeasibilityVerdict(status=Feasibility.INFEASIBLE, deficits={2: 1}, margin=1)
    assert (keyed.status, keyed.witness, keyed.deficits, keyed.margin) == (
        Feasibility.INFEASIBLE, None, {2: 1}, 1,
    )


def test_hairline_deficit_depends_on_precision():
    # A deficit of 1e-13 is below double's comparison tolerance but far
    # above 128-bit tolerance, so the verdict sharpens with precision.
    jobs = (lazy_job(1, 0, 2, 2 + 1e-13),)
    _, blurry = lrtb(Instance(jobs), DOUBLE)
    assert blurry.status is Feasibility.INDETERMINATE
    assert blurry.witness is None
    exact = Instance((lazy_job(1, 0, 2, CTX.real("2.0000000000001")),))
    _, sharp = lrtb(exact, CTX)
    assert sharp.status is Feasibility.INFEASIBLE


def test_zero_work_jobs_contribute_nothing():
    inst = Instance((lazy_job(1, 0, 2, 0), nonlazy_job(2, 1, 3, 0)))
    schedule, verdict = lrtb(inst, CTX)
    assert verdict.status is Feasibility.FEASIBLE
    assert schedule.segments == ()
    assert verdict.margin is None


def test_constant_speed_jobs_are_rejected():
    inst = Instance((nonlazy_job(1, 0, 2, 1),))
    with pytest.raises(UnsupportedInstanceError):
        lrtb(inst, CTX)
    with pytest.raises(UnsupportedInstanceError):
        brute_force_optimal(inst, 8, DOUBLE)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sweep_witness_always_validates(seed):
    inst = gen_random_feasible(4, seed, DOUBLE)
    schedule, verdict = lrtb(inst, DOUBLE)
    assert verdict.status is Feasibility.FEASIBLE
    report = validate_schedule(inst, schedule, DOUBLE, require_due_dates=True)
    assert report.ok, report.violations
    assert not report.incomplete


# --- the sweep against its quadratic reference --------------------------------


def _quadratic_sweep(instance, ctx):
    """The sweep as first written: rescan every job at every step.

    Returns (status, segments, deficits, margin) for comparison with lrtb.
    """
    jobs = [j for j in instance.jobs if j.work > 0]
    rem = {j.id: j.work for j in jobs}
    segments, deficits, margin, indeterminate = [], {}, None, False
    tau = max((j.due for j in jobs), default=None)
    while jobs:
        next_due = max(
            (j.due for j in jobs if rem[j.id] > 0 and j.due < tau), default=None
        )
        runnable = [j for j in jobs if rem[j.id] > 0 and j.release <= tau <= j.due]
        if not runnable:
            if next_due is None:
                break
            tau = next_due
            continue
        top = min(runnable, key=lambda j: (-j.release, j.id))
        r = top.release
        disc = (tau - r) * (tau - r) - 2 * rem[top.id] / top.speed.slope
        exhaust = r + ctx.sqrt(disc) if disc > 0 else None
        lo = r if exhaust is None else exhaust
        if next_due is not None and next_due > lo:
            lo = next_due
        if lo < tau:
            segments.append(Segment(top.id, lo, tau, work_in(top, lo, tau)))
        if exhaust is not None and lo == exhaust:
            rem[top.id] = 0
            gap = exhaust - r
        elif next_due is not None and lo == next_due:
            rem[top.id] = rem[top.id] - work_in(top, next_due, tau)
            gap = None
        else:
            deficit = rem[top.id] - work_in(top, r, tau)
            rem[top.id] = 0
            cmp = ctx.compare(deficit, 0)
            if cmp is Verdict.GREATER:
                deficits[top.id] = deficit
            indeterminate |= cmp is Verdict.INDETERMINATE
            gap = abs(deficit)
        if gap is not None and (margin is None or gap < margin):
            margin = gap
        tau = lo
    if deficits:
        status = Feasibility.INFEASIBLE
    else:
        status = Feasibility.INDETERMINATE if indeterminate else Feasibility.FEASIBLE
    return status, Schedule(tuple(segments)).segments, deficits, margin


def _sweep_corpus(ctx):
    for seed in range(1, 31):
        base = gen_random_feasible(2 + seed % 40, seed, ctx)
        yield base
        for scale in ("1.05", "1.3", "2"):
            yield Instance(
                tuple(
                    lazy_job(j.id, j.release, j.due, j.work * ctx.real(scale), j.speed.slope)
                    for j in base.jobs
                )
            )
    for n in (3, 4, 7, 15, 40):
        yield gen_lssf(n, ctx)
        yield gen_srpt(n, ctx)
    for seed in range(300):
        rng = random.Random(seed)
        jobs = []
        for i in range(1, rng.randint(2, 6) + 1):
            r = rng.randint(0, 4)
            work = rng.randint(1, 6) / 2
            jobs.append(lazy_job(i, r, r + rng.randint(1, 3), work, rng.choice([1, 2])))
        yield Instance(tuple(jobs))


@pytest.mark.parametrize("bits", [53, 128])
def test_sweep_matches_the_quadratic_reference(bits):
    ctx = PrecisionContext(bits)
    for inst in _sweep_corpus(ctx):
        schedule, verdict = lrtb(inst, ctx)
        got = (verdict.status, schedule.segments, verdict.deficits, verdict.margin)
        assert got == _quadratic_sweep(inst, ctx), inst
        assert verdict.witness is (schedule if got[0] is Feasibility.FEASIBLE else None)


def test_sweep_comparisons_grow_as_n_log_n(monkeypatch):
    n = 800
    inst = gen_random_feasible(n, 7, CTX)
    calls = 0
    cmp = mpf_type._cmp

    def counting_cmp(*args):
        nonlocal calls
        calls += 1
        return cmp(*args)

    monkeypatch.setattr(mpf_type, "_cmp", counting_cmp)
    _, verdict = lrtb(inst, CTX)
    assert verdict.status is Feasibility.FEASIBLE
    assert 0 < calls <= 4 * n * math.log2(n)


def test_sweep_certifies_ten_thousand_jobs_at_double():
    inst = gen_random_feasible(10_000, 1, DOUBLE)
    _, verdict = lrtb(inst, DOUBLE)
    assert verdict.status is Feasibility.FEASIBLE
    report = validate_schedule(inst, verdict.witness, DOUBLE, require_due_dates=True)
    assert report.ok, report.violations[:3]
    assert not report.incomplete


def test_sweep_never_moves_forward_when_exhaust_rounds_up():
    # Job 2's sliver of work leaves disc equal to (tau - r)^2 in doubles,
    # and r + (tau - r) rounds an ulp above tau, job 2's due date.  Job 1
    # has already run from its own due date down to tau; it must resume
    # below tau, not overlap its first segment by that ulp.
    r, tau = 0.50000000011492, 1.5000000001551281
    assert r + math.sqrt((tau - r) * (tau - r) - 2e-30) > tau
    inst = Instance((lazy_job(1, 0.0, 3.0, 4.3), lazy_job(2, r, tau, 1e-30)))
    schedule, verdict = lrtb(inst, DOUBLE)
    assert verdict.status is Feasibility.FEASIBLE
    low, high = schedule.segments
    assert (low.job, high.job) == (1, 1)
    assert low.end == high.start == tau


# --- schedule validation ------------------------------------------------------


def _exact_segment(job, start, end):
    return Segment(job.id, start, end, work_in(job, start, end))


def test_validator_accepts_a_correct_schedule():
    job = lazy_job(1, 0, 2, 1)
    inst = Instance((job,))
    sched = Schedule((_exact_segment(job, CTX.sqrt(2), 2),))
    report = validate_schedule(inst, sched, CTX, require_due_dates=True)
    assert report.ok
    assert not report.incomplete
    assert report.violations == []


def test_validator_flags_overlap():
    a = lazy_job(1, 0, 4, 2)
    b = lazy_job(2, 0, 4, 4)
    inst = Instance((a, b))
    sched = Schedule((_exact_segment(a, 0, 2), _exact_segment(b, 1, 3)))
    report = validate_schedule(inst, sched, CTX)
    assert not report.ok
    assert any("overlap" in v for v in report.violations)


def test_validator_flags_an_overlap_inside_tolerance():
    # Segment ends are stored numbers, so an overlap of 2^-50, far below
    # the 53-bit tolerance, is still an overlap; touching ends are not.
    for start in (1 - 2.0**-50, 1):
        a = lazy_job(1, 0, 4, 0.5)
        b = lazy_job(2, 0, 4, (4 - start * start) / 2)
        sched = Schedule((_exact_segment(a, 0, 1), _exact_segment(b, start, 2)))
        report = validate_schedule(Instance((a, b)), sched, DOUBLE)
        overlaps = [v for v in report.violations if "overlap" in v]
        assert report.ok is (start == 1), report.violations
        assert len(overlaps) == (start < 1)


def test_validator_flags_running_before_release():
    job = lazy_job(1, 1, 3, 2)
    inst = Instance((job,))
    # Only the in-window half of [0.5, 1.5] can do work: 0.5^2/2.
    sched = Schedule((Segment(1, 0.5, 1.5, 0.125),))
    report = validate_schedule(inst, sched, CTX)
    assert not report.ok
    assert any("before its release" in v for v in report.violations)
    assert not any("speed function" in v for v in report.violations)


def test_validator_flags_due_dates_only_on_request():
    job = lazy_job(1, 0, 1, 1)
    inst = Instance((job,))
    sched = Schedule((_exact_segment(job, 0.5, 1.5),))
    relaxed = validate_schedule(inst, sched, CTX)
    assert relaxed.ok
    strict = validate_schedule(inst, sched, CTX, require_due_dates=True)
    assert not strict.ok
    assert any("past its due date" in v for v in strict.violations)


def test_validator_flags_inconsistent_segment_work():
    job = lazy_job(1, 0, 2, 1)
    inst = Instance((job,))
    sched = Schedule((Segment(1, CTX.sqrt(2), 2, CTX.real("1.01")),))
    report = validate_schedule(inst, sched, CTX)
    assert not report.ok
    assert any("speed function gives" in v for v in report.violations)


def test_validator_flags_unknown_job_and_overrun():
    job = lazy_job(1, 0, 2, CTX.real("0.25"))
    inst = Instance((job,))
    sched = Schedule(
        (_exact_segment(job, CTX.sqrt(2), 2), Segment(9, 0, 1, CTX.real("0.5")))
    )
    report = validate_schedule(inst, sched, CTX)
    assert not report.ok
    assert any("unknown job" in v for v in report.violations)
    assert any("overruns" in v for v in report.violations)


def test_validator_reports_shortfall_as_incomplete():
    job = lazy_job(1, 0, 2, 2)
    inst = Instance((job,))
    sched = Schedule((_exact_segment(job, 1, 2),))
    relaxed = validate_schedule(inst, sched, CTX)
    assert relaxed.ok
    assert_near(CTX, relaxed.incomplete[1], CTX.real("0.5"))
    strict = validate_schedule(inst, sched, CTX, require_due_dates=True)
    assert not strict.ok


# --- grid search oracle -------------------------------------------------------


def test_grid_minimum_converges_from_above():
    inst = Instance((lazy_job(1, 0, 2, 1),))
    exact = 2 - float(CTX.sqrt(2))
    prev = None
    for k in range(4, 11):
        busy = brute_force_optimal(inst, 2**k, DOUBLE)
        assert busy >= exact - 1e-12
        assert busy - exact <= 8 / 2**k
        if prev is not None:
            assert busy <= prev + 1e-12
        prev = busy


def test_sweep_never_beats_the_grid():
    for seed in range(12):
        inst = gen_random_feasible(1 + seed % 3, 5000 + seed, DOUBLE)
        swept = float(total_busy_time(lrtb(inst, DOUBLE)[0]))
        gaps = []
        for k in (6, 8, 10):
            busy = brute_force_optimal(inst, 2**k, DOUBLE)
            assert swept <= busy + 1e-12
            gaps.append(busy - swept)
        assert gaps[0] >= gaps[1] - 1e-12
        assert gaps[1] >= gaps[2] - 1e-12


def test_grid_rejects_impossible_instances():
    inst = Instance((lazy_job(1, 0, 1, 1),))
    with pytest.raises(InfeasibleIntervalError):
        brute_force_optimal(inst, 64, DOUBLE)


def test_grid_guardrails():
    jobs = tuple(lazy_job(i, i, i + 1, 0.1) for i in range(5))
    with pytest.raises(UnsupportedInstanceError):
        brute_force_optimal(Instance(jobs), 8, DOUBLE)
    inst = Instance((lazy_job(1, 0, 2, 1),))
    with pytest.raises(ValueError):
        brute_force_optimal(inst, 0, DOUBLE)
    assert brute_force_optimal(Instance((lazy_job(1, 0, 2, 0),)), 8, DOUBLE) == 0.0


def test_grid_fits_zero_slack_cascades():
    # Every window of the cascade is filled exactly, so claimed work only
    # matches the need to within roundoff.
    inst = gen_lssf(4, CTX)
    swept = float(total_busy_time(lrtb(inst, CTX)[0]))
    for k in range(6, 13):
        assert brute_force_optimal(inst, 2**k, DOUBLE) >= swept


# --- claim sweep semantics ----------------------------------------------------


def test_claims_run_right_to_left():
    # One job, slices of work [1, 2, 3] and lengths [10, 20, 30].  Need 4
    # takes slices 2 and 1 (works 3 then 2), busy 50.
    lengths = [10.0, 20.0, 30.0]
    assert _claim_sweep([(0, [1.0, 2.0, 3.0], 4.0)], lengths) == 50.0
    # Need beyond the total cannot be covered.
    assert _claim_sweep([(0, [1.0, 2.0, 3.0], 7.0)], lengths) is None
    # Zero need touches nothing.
    assert _claim_sweep([(0, [1.0, 2.0, 3.0], 0.0)], lengths) == 0.0


def test_claims_are_exclusive_between_jobs():
    # Job 0 takes the two rightmost slices; job 1 is left one slice short.
    claims = [(0, [1.0, 1.0, 1.0], 2.0), (0, [1.0, 1.0, 1.0], 2.0)]
    assert _claim_sweep(claims, [1.0, 1.0, 1.0]) is None
    # A job confined to the left slices is unaffected by one on the right.
    claims = [(2, [1.0], 1.0), (0, [1.0, 1.0], 2.0)]
    assert _claim_sweep(claims, [1.0, 1.0, 1.0]) == 3.0


def test_job_with_no_admissible_slice_is_infeasible():
    assert _claim_sweep([(0, [], 1.0)], [1.0, 1.0, 1.0]) is None
