"""Worst-case families, the surd-sum reduction, and the adaptive adversary."""

import math

import pytest

from rampsched import DOUBLE, Instance, Job, PrecisionContext, lazy_job, nonlazy_job
from rampsched.fileio import load_instance, save_instance
from rampsched.generators import (
    adaptive_adversary,
    gen_edd,
    gen_fifo,
    gen_lssf,
    gen_random_feasible,
    gen_srpt,
)
from rampsched.offline import (
    Feasibility,
    SsrQuery,
    check_reduction,
    lrtb,
    recover_ssr_query,
    reduce_ssr,
    validate_schedule,
)
from rampsched.online import (
    Policy,
    PolicySpec,
    SimTrace,
    max_stretch,
    missed_due_dates,
    simulate,
)

CTX = PrecisionContext(128)


# --- worst-case families ------------------------------------------------------


def test_srpt_family_starves_the_unit_job():
    inst = gen_srpt(5, DOUBLE)
    assert inst.name == "srpt-starve-5"
    assert len(inst.jobs) == 5
    trace = simulate(inst, PolicySpec(Policy.SRPT), DOUBLE)
    # Short jobs finish back to back at 1, sqrt(2), sqrt(3), 2 ...
    for k, want in ((2, 1.0), (3, math.sqrt(2)), (4, math.sqrt(3)), (5, 2.0)):
        assert trace.completions[k] == pytest.approx(want, rel=1e-12)
    # ... and the unit job drifts to sqrt(n + 1).
    assert trace.completions[1] == pytest.approx(math.sqrt(6), rel=1e-12)
    assert max_stretch(trace) == pytest.approx(math.sqrt(6) / 2, rel=1e-12)
    assert lrtb(inst, DOUBLE)[1].status is Feasibility.FEASIBLE


def test_srpt_family_rejects_tiny_n():
    with pytest.raises(ValueError):
        gen_srpt(1, DOUBLE)


def test_stretch_cascade_snowballs_to_the_root():
    inst = gen_lssf(6, CTX)
    assert inst.name == "lssf-cascade-6"
    _, verdict = lrtb(inst, CTX)
    assert verdict.status is Feasibility.FEASIBLE
    assert verdict.margin == 0  # the cascade windows are exactly full
    trace = simulate(inst, PolicySpec(Policy.LSSF), CTX)
    want = CTX.sqrt(5)
    assert abs(max_stretch(trace) - want) / want < CTX.real(10) ** -30
    # Job 2 takes the machine from job 1 at the designed crossing; the
    # later handoffs coincide with completions, so only the stretch and
    # the start order are stable observables.
    first_preempt = next(e for e in trace.events if e.kind.value == "preempt")
    assert first_preempt.job == 1
    assert first_preempt.time == CTX.real("0.25")
    first_starts = []
    for e in trace.events:
        if e.kind.value == "start" and e.job not in first_starts:
            first_starts.append(e.job)
    assert first_starts == [1, 2, 3, 4, 5, 6]


def test_rationalized_instances_stay_faithful():
    inst = gen_lssf(5, CTX, rationalize=1e-6)
    _, verdict = lrtb(inst, CTX)
    assert verdict.status is Feasibility.FEASIBLE
    trace = simulate(inst, PolicySpec(Policy.LSSF), CTX)
    assert abs(max_stretch(trace) - 2) < 1e-4
    short = gen_srpt(10, DOUBLE, rationalize=1e-6)
    far = short.by_id[2].due
    assert far == float(str(far))  # round decimal literal
    trace = simulate(short, PolicySpec(Policy.SRPT), DOUBLE)
    assert max_stretch(trace) == pytest.approx(math.sqrt(11) / 2, rel=1e-9)
    # A bound finer than Decimal's default 28 digits still rounds outward.
    rel = CTX.parse("1e-30")
    fine = gen_srpt(10, CTX, rationalize=rel).by_id[2].due
    exact = CTX.sqrt(10) + 2
    assert exact <= fine <= exact * (1 + rel)


@pytest.mark.parametrize("target", [10, 100])
def test_fifo_and_edd_slivers_reach_the_target(target):
    for build, policy in ((gen_fifo, Policy.FIFO), (gen_edd, Policy.EDD)):
        inst = build(target, DOUBLE)
        _, verdict = lrtb(inst, DOUBLE)
        assert verdict.status is Feasibility.FEASIBLE
        trace = simulate(inst, PolicySpec(policy), DOUBLE)
        assert max_stretch(trace) >= target


def test_sliver_targets_must_exceed_one():
    with pytest.raises(ValueError):
        gen_fifo(1, DOUBLE)
    with pytest.raises(ValueError):
        gen_edd(0.5, DOUBLE)


def test_random_family_is_deterministic_and_feasible():
    a = gen_random_feasible(5, 9, DOUBLE)
    b = gen_random_feasible(5, 9, DOUBLE)
    assert a.jobs == b.jobs
    assert a.name == "random-5-9"
    assert gen_random_feasible(5, 10, DOUBLE).jobs != a.jobs
    assert lrtb(a, DOUBLE)[1].status is Feasibility.FEASIBLE
    with pytest.raises(ValueError):
        gen_random_feasible(0, 1, DOUBLE)


# --- surd-sum reduction -------------------------------------------------------


def test_query_validation():
    q = SsrQuery((3, 1, 7), 4)
    assert q.xs == (3, 1, 7)
    with pytest.raises(ValueError, match="^xs must be positive integers$"):
        SsrQuery((), 1)
    with pytest.raises(ValueError, match="^xs must be positive integers$"):
        SsrQuery((0, 2), 1)
    with pytest.raises(ValueError, match="^threshold must be a positive integer$"):
        SsrQuery((2,), 0)
    # Keywords and any iterable of integers; equal queries hash alike.
    same = SsrQuery(xs=[3, 1, 7], threshold=4.0)
    assert (same.xs, same.threshold) == ((3, 1, 7), 4)
    assert same == q and hash(same) == hash(q)
    assert SsrQuery((3, 1, 7), 5) != q


def test_reduction_tiles_the_horizon():
    q = SsrQuery((2, 5), 3)
    inst = reduce_ssr(q, CTX)
    surd1, surd2 = inst.by_id[1], inst.by_id[2]
    filler = inst.by_id[3]
    assert (surd1.release, surd1.due, surd1.work) == (0, 4, 7)
    assert (surd2.release, surd2.due, surd2.work) == (4, 11, 22)
    assert filler.release == 0 and filler.due == 11
    assert filler.slope == 0 and filler.base == 1
    assert filler.work == 3


def test_recover_round_trips_and_rejects_lookalikes(tmp_path):
    for q in (SsrQuery((2, 5), 3), SsrQuery((1,), 1), SsrQuery((9, 9, 9), 8)):
        assert recover_ssr_query(reduce_ssr(q, CTX), CTX) == q

    base = reduce_ssr(SsrQuery((2, 5), 3), CTX)

    def mutate(replacement, inst=base):
        jobs = tuple(
            replacement if j.id == replacement.id else j for j in inst.jobs
        )
        return Instance(jobs)

    # Wrong surd work for its window.
    assert recover_ssr_query(mutate(lazy_job(1, 0, 4, 8)), CTX) is None
    # Gap in the tiling.
    assert recover_ssr_query(mutate(lazy_job(2, 5, 12, 22)), CTX) is None
    # Fractional filler demand.
    assert recover_ssr_query(mutate(nonlazy_job(3, 0, 11, 3.5)), CTX) is None
    # Filler must start at 0 and span the horizon.
    assert recover_ssr_query(mutate(nonlazy_job(3, 1, 11, 3)), CTX) is None
    assert recover_ssr_query(mutate(nonlazy_job(3, 0, 10.5, 3)), CTX) is None
    # No filler at all, or a generic instance.
    assert recover_ssr_query(Instance(base.jobs[:2]), CTX) is None
    assert recover_ssr_query(Instance((lazy_job(1, 0, 2, 1),)), CTX) is None
    # The same jobs under other ids.
    renumbered = Instance(tuple(
        Job(10 * j.id, j.release, j.due, j.work, j.base, j.slope) for j in base.jobs
    ))
    assert recover_ssr_query(renumbered, CTX) is None
    # Surd work one ulp off, at either precision: 22 carries 5 bits.
    assert recover_ssr_query(mutate(lazy_job(2, 4, 11, 22 + CTX.real(2) ** -123)), CTX) is None
    narrow = reduce_ssr(SsrQuery((2, 5), 3), DOUBLE)
    off = lazy_job(2, 4.0, 11.0, math.nextafter(22.0, math.inf))
    assert recover_ssr_query(mutate(off, narrow), DOUBLE) is None
    # A written file is still recognised once loaded back.
    for ctx, q in (
        (DOUBLE, SsrQuery((2, 3, 5), 5)),
        (CTX, SsrQuery((2, 3, 5), 5)),
        (CTX, SsrQuery((200000002, 3), 5)),
    ):
        path = tmp_path / f"ssr-{ctx.bits}-{q.xs[0]}.json"
        save_instance(reduce_ssr(q, ctx), path, ctx)
        assert recover_ssr_query(load_instance(path, ctx), ctx) == q


def test_reduction_refuses_what_the_precision_cannot_hold():
    # (x^2 + 3x + 4) for x = 200000002 is a 56-bit integer.
    q = SsrQuery((200000002, 3), 5)
    with pytest.raises(ValueError, match="needs 56 bits"):
        reduce_ssr(q, DOUBLE)
    assert reduce_ssr(q, PrecisionContext(56)) == reduce_ssr(q, CTX)
    # The verdict needs no instance, so it stands without a witness.
    witness, verdict = check_reduction(q, DOUBLE)
    assert verdict.status is Feasibility.FEASIBLE
    assert witness is None


def test_perfect_square_queries_resolve_exactly():
    witness, verdict = check_reduction(SsrQuery((1, 4, 9), 6), CTX)
    assert verdict.status is Feasibility.FEASIBLE
    assert verdict.margin == 0
    assert witness is not None
    witness, verdict = check_reduction(SsrQuery((1, 4, 9), 7), CTX)
    assert verdict.status is Feasibility.INFEASIBLE
    assert verdict.deficits == {4: 1}
    assert witness is None


def test_irrational_queries_compare_at_working_precision():
    _, yes = check_reduction(SsrQuery((2, 3), 3), CTX)
    assert yes.status is Feasibility.FEASIBLE
    assert CTX.close(yes.margin, CTX.sqrt(2) + CTX.sqrt(3) - 3)
    _, no = check_reduction(SsrQuery((2, 3), 4), CTX)
    assert no.status is Feasibility.INFEASIBLE
    assert CTX.close(no.deficits[3], 4 - CTX.sqrt(2) - CTX.sqrt(3))


def test_near_integer_sum_is_indeterminate_at_low_precision():
    # sqrt(1000001) = 1000.0000005; 24 bits cannot distinguish that
    # from the threshold, 128 bits can.
    q = SsrQuery((1000001,), 1000)
    witness, blurry = check_reduction(q, PrecisionContext(24))
    assert blurry.status is Feasibility.INDETERMINATE
    assert witness is None
    _, sharp = check_reduction(q, CTX)
    assert sharp.status is Feasibility.FEASIBLE


def test_feasible_witness_validates_against_the_reduction():
    for q in (SsrQuery((2, 3), 3), SsrQuery((1, 4, 9), 6), SsrQuery((5, 7, 11), 7)):
        witness, verdict = check_reduction(q, CTX)
        assert verdict.status is Feasibility.FEASIBLE
        inst = reduce_ssr(q, CTX)
        report = validate_schedule(inst, witness, CTX, require_due_dates=True)
        assert report.ok, report.violations
        assert not report.incomplete


def test_verdict_sign_matches_a_fresh_high_precision_sum():
    wide = PrecisionContext(512)
    for xs, threshold in (
        ((2, 3, 5), 5),
        ((2, 3, 5), 6),
        ((7,), 2),
        ((99, 101), 20),
        ((1, 2, 3, 4, 5, 6), 11),
    ):
        q = SsrQuery(xs, threshold)
        _, verdict = check_reduction(q, CTX)
        total = sum(wide.sqrt(x) for x in xs)
        if verdict.status is Feasibility.FEASIBLE:
            assert total >= threshold
        elif verdict.status is Feasibility.INFEASIBLE:
            assert total < threshold
        else:  # pragma: no cover - none of these sums sit inside tolerance
            pytest.fail(f"unexpected indeterminate verdict for {q}")


# --- adaptive adversary -------------------------------------------------------


@pytest.mark.parametrize("kind", list(Policy))
def test_adversary_defeats_every_policy(kind):
    spec = PolicySpec(kind, alpha=2)
    trace, branch = adaptive_adversary(spec, CTX)
    assert isinstance(trace, SimTrace)
    assert missed_due_dates(trace)
    assert branch in ("starve-late-hours", "occupy-sliver-window")
    # The extension must remain within reach of an offline schedule.
    _, verdict = lrtb(trace.instance, CTX)
    assert verdict.status is Feasibility.FEASIBLE


def test_adversary_extension_preserves_the_observed_prefix():
    spec = PolicySpec(Policy.SRPT)
    trace, _ = adaptive_adversary(spec, CTX)
    extra = [j for j in trace.instance.jobs if j.id > 2]
    assert len(extra) == 1
    cutoff = extra[0].release
    seed_only = Instance(tuple(j for j in trace.instance.jobs if j.id <= 2))
    rehearsal = simulate(seed_only, spec, CTX)
    pre = [e for e in trace.events if e.time < cutoff]
    assert pre == [e for e in rehearsal.events if e.time < cutoff]


def test_adversary_branches_depend_on_the_policy():
    branches = {
        kind: adaptive_adversary(PolicySpec(kind, alpha=2), CTX)[1]
        for kind in Policy
    }
    assert set(branches.values()) == {"starve-late-hours", "occupy-sliver-window"}
