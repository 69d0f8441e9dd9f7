"""Dispatcher, capped-speed kernels, and event-driven simulator tests."""

import math

import pytest

from rampsched import (
    DOUBLE,
    Instance,
    PrecisionContext,
    Schedule,
    SchedulingError,
    Verdict,
    lazy_job,
    nonlazy_job,
    completion_from,
    stretch,
    work_in,
)
from rampsched.generators import gen_random_feasible
from rampsched.offline import validate_schedule
from rampsched.online import (
    EventKind,
    Policy,
    PolicySpec,
    SimState,
    SimTrace,
    busy_time_in_window,
    lssf_crossing,
    max_stretch,
    next_dispatch,
    simulate,
    thrashing_activation,
)


def _state(jobs, running=None, t=None, remaining=None, alpha=None):
    state = SimState(
        jobs={j.id: j for j in jobs},
        remaining=remaining or {j.id: j.work for j in jobs},
        released={j.id for j in jobs},
        running=running,
        ctx=DOUBLE,
    )
    if alpha is not None:
        state.activation = {j.id: thrashing_activation(j, alpha) for j in jobs}
    return state


# --- policy primitives --------------------------------------------------------


def test_stretch_lines_cross_where_expected():
    a = lazy_job(1, 0, 4, 1)
    assert lssf_crossing(a, lazy_job(2, 1, 2, 1), now=0) == pytest.approx(4 / 3)
    assert lssf_crossing(a, lazy_job(2, 1, 3, 1), now=0) == pytest.approx(2.0)
    # Strictly in the future only.
    assert lssf_crossing(a, lazy_job(2, 1, 3, 1), now=2) is None
    assert lssf_crossing(a, lazy_job(2, 1, 3, 1), now=1.999) == pytest.approx(2.0)
    # Parallel stretch lines never meet.
    assert lssf_crossing(a, lazy_job(2, 1, 5, 1), now=0) is None


def test_thrashing_activation_point():
    job = lazy_job(1, 1, 3, 1)
    assert thrashing_activation(job, 2) == 5
    assert thrashing_activation(job, 1) == 3
    assert stretch(job, 5) == 2


def test_fifo_picks_earliest_release():
    jobs = (lazy_job(1, 1, 9, 1), lazy_job(2, 0, 3, 1), lazy_job(3, 0, 2, 1))
    assert next_dispatch(PolicySpec(Policy.FIFO), _state(jobs), 1) == 2


def test_edd_picks_earliest_due_and_sticks_on_ties():
    jobs = (lazy_job(1, 0, 4, 1), lazy_job(2, 0.5, 4, 1))
    spec = PolicySpec(Policy.EDD)
    assert next_dispatch(spec, _state(jobs), 1) == 1
    assert next_dispatch(spec, _state(jobs, running=2), 1) == 2


def test_srpt_ranks_by_time_to_finish_not_work():
    # Job 1 has more work left but has been ramping since 0, so it
    # finishes at t=5 (2 units away); job 2's ramp is young and takes
    # sqrt(5.01) ~ 2.24 units.  Remaining work alone would choose job 2.
    jobs = (lazy_job(1, 0, 10, 8), lazy_job(2, 2.9, 10, 2.5))
    state = _state(jobs)
    assert next_dispatch(PolicySpec(Policy.SRPT), state, 3) == 1


def test_stretch_rule_chases_the_largest_stretch():
    jobs = (lazy_job(1, 0, 10, 1), lazy_job(2, 0, 12.5, 1))
    assert next_dispatch(PolicySpec(Policy.LSSF), _state(jobs), 11) == 1


def test_stretch_tie_goes_to_the_faster_growing_job():
    # At t = 4/3 both stretches equal 1/3; the shorter window grows
    # faster and must win even while the other job holds the machine.
    jobs = (lazy_job(1, 0, 4, 1), lazy_job(2, 1, 2, 0.4))
    state = _state(jobs, running=1)
    assert next_dispatch(PolicySpec(Policy.LSSF), state, 4 / 3) == 2


def test_full_tie_prefers_the_running_job():
    jobs = (lazy_job(1, 0, 4, 1), lazy_job(2, 0, 4, 1))
    spec = PolicySpec(Policy.LSSF)
    assert next_dispatch(spec, _state(jobs, running=2), 1) == 2
    assert next_dispatch(spec, _state(jobs), 1) == 1


def test_thrashing_waits_for_activation():
    jobs = (lazy_job(1, 0, 2, 1), lazy_job(2, 1, 2, 0.2))
    spec = PolicySpec(Policy.THRASHING, alpha=2)
    state = _state(jobs, alpha=2)
    assert next_dispatch(spec, state, 1) is None  # activations at 4 and 3
    assert next_dispatch(spec, state, 3) == 2  # later release activates first
    assert next_dispatch(spec, state, 4.5) == 2
    assert next_dispatch(spec, _state(()), 0) is None


def test_policy_spec_validation():
    with pytest.raises(ValueError):
        PolicySpec(Policy.THRASHING, alpha=0.5)
    with pytest.raises(ValueError):
        PolicySpec(Policy.FIFO, speed_cap_factor=0)
    spec = PolicySpec(Policy.FIFO, speed_cap_factor=2)
    assert spec.speed_cap_factor == 2


# --- speed caps in the core kernels -------------------------------------------


def test_capped_work_splits_ramp_and_plateau():
    job = lazy_job(1, 0, 2, 100)
    # Cap 4 (twice the due-date speed) is reached at t = 4.
    assert work_in(job, 0, 6, cap=4) == pytest.approx(16.0)
    assert work_in(job, 4, 6, cap=4) == pytest.approx(8.0)
    assert work_in(job, 0, 3, cap=4) == pytest.approx(4.5)
    # No cap reproduces the plain integral.
    assert work_in(job, 0, 3) == pytest.approx(4.5)


def test_capped_completion_inverts_capped_work():
    job = lazy_job(1, 0, 2, 100)
    assert completion_from(job, 0, 16, DOUBLE, cap=4) == pytest.approx(6.0)
    # Within the ramp the cap changes nothing.
    assert completion_from(job, 0, 8, DOUBLE, cap=4) == pytest.approx(4.0)
    # Starting on the plateau is linear at the cap rate.
    assert completion_from(job, 5, 4, DOUBLE, cap=4) == pytest.approx(6.0)
    assert completion_from(job, 3, 0, DOUBLE, cap=4) == 3


def test_capped_constant_speed_job():
    job = nonlazy_job(1, 0, 2, 6, base=2)
    assert work_in(job, 0, 3, cap=1) == pytest.approx(3.0)
    assert completion_from(job, 0, 6, DOUBLE, cap=1) == pytest.approx(6.0)
    assert work_in(job, 0, 3, cap=20) == pytest.approx(6.0)


# --- the simulator ------------------------------------------------------------


def _kinds(trace):
    return [(e.kind, e.job) for e in trace.events]


def test_fifo_run_is_event_faithful():
    inst = Instance((lazy_job(1, 0, 4, 2), lazy_job(2, 1, 2, 0.375)))
    trace = simulate(inst, PolicySpec(Policy.FIFO), DOUBLE)
    assert _kinds(trace) == [
        (EventKind.RELEASE, 1),
        (EventKind.START, 1),
        (EventKind.RELEASE, 2),
        (EventKind.COMPLETE, 1),
        (EventKind.START, 2),
        (EventKind.COMPLETE, 2),
    ]
    assert trace.completions[1] == pytest.approx(2.0)
    assert trace.completions[2] == pytest.approx(1 + math.sqrt(1.75))
    assert trace.stretches[2] == pytest.approx(math.sqrt(1.75))  # misses due 2
    assert max_stretch(trace) == pytest.approx(math.sqrt(1.75))
    assert trace.busy_time == pytest.approx(1 + math.sqrt(1.75))


def test_edd_preempts_for_the_tighter_due_date():
    inst = Instance((lazy_job(1, 0, 4, 2), lazy_job(2, 1, 2, 0.375)))
    trace = simulate(inst, PolicySpec(Policy.EDD), DOUBLE)
    assert _kinds(trace) == [
        (EventKind.RELEASE, 1),
        (EventKind.START, 1),
        (EventKind.RELEASE, 2),
        (EventKind.PREEMPT, 1),
        (EventKind.START, 2),
        (EventKind.COMPLETE, 2),
        (EventKind.START, 1),
        (EventKind.COMPLETE, 1),
    ]
    assert trace.completions[2] == pytest.approx(1 + math.sqrt(0.75))
    assert max_stretch(trace) == pytest.approx(math.sqrt(0.75))
    # Preemption split job 1 into two segments.
    assert [s.job for s in trace.segments].count(1) == 2


def test_stretch_rule_takes_over_exactly_at_the_crossing():
    inst = Instance((lazy_job(1, 0, 4, 6), lazy_job(2, 1, 2, 0.4)))
    trace = simulate(inst, PolicySpec(Policy.LSSF), DOUBLE)
    preempts = [e for e in trace.events if e.kind is EventKind.PREEMPT]
    assert len(preempts) == 1
    assert preempts[0].job == 1
    assert preempts[0].time == pytest.approx(4 / 3)
    assert not any(
        DOUBLE.compare(trace.completions[j.id], j.due) is Verdict.GREATER
        for j in inst.jobs
    )


def test_thrashing_idles_until_activation():
    inst = Instance((lazy_job(1, 0, 1, 0.5),))
    trace = simulate(inst, PolicySpec(Policy.THRASHING, alpha=2), DOUBLE)
    assert _kinds(trace) == [
        (EventKind.RELEASE, 1),
        (EventKind.IDLE_BEGIN, None),
        (EventKind.IDLE_END, None),
        (EventKind.START, 1),
        (EventKind.COMPLETE, 1),
    ]
    idle_end = trace.events[2]
    assert idle_end.time == 2
    assert trace.completions[1] == pytest.approx(math.sqrt(5))
    assert trace.busy_time == pytest.approx(math.sqrt(5) - 2)


def test_speed_cap_slows_the_finish():
    inst = Instance((lazy_job(1, 0, 2, 8),))
    plain = simulate(inst, PolicySpec(Policy.FIFO), DOUBLE)
    capped = simulate(inst, PolicySpec(Policy.FIFO, speed_cap_factor=1), DOUBLE)
    assert plain.completions[1] == pytest.approx(4.0)
    assert capped.completions[1] == pytest.approx(5.0)
    assert capped.stretches[1] == pytest.approx(2.5)


def test_zero_work_jobs_complete_on_release():
    inst = Instance((lazy_job(1, 0, 2, 0), lazy_job(2, 0, 2, 1)))
    trace = simulate(inst, PolicySpec(Policy.EDD), DOUBLE)
    assert trace.completions[1] == 0
    assert trace.stretches[1] == 0
    assert (EventKind.COMPLETE, 1) in _kinds(trace)


def test_simulation_is_deterministic():
    inst = gen_random_feasible(6, 42, DOUBLE)
    a = simulate(inst, PolicySpec(Policy.LSSF), DOUBLE)
    b = simulate(inst, PolicySpec(Policy.LSSF), DOUBLE)
    assert a.events == b.events
    assert a.completions == b.completions
    assert a.busy_time == b.busy_time


def test_trace_segments_form_a_valid_schedule():
    for policy in Policy:
        inst = gen_random_feasible(5, 7, DOUBLE)
        trace = simulate(inst, PolicySpec(policy), DOUBLE)
        report = validate_schedule(inst, Schedule(trace.segments), DOUBLE)
        assert report.ok, (policy, report.violations)
        assert not report.incomplete
        lo, hi = inst.horizon
        everywhere = busy_time_in_window(trace, lo, max(hi, max(trace.completions.values())))
        assert everywhere == pytest.approx(float(trace.busy_time))


def test_busy_time_window_clips_and_filters():
    inst = Instance((lazy_job(1, 0, 4, 2), lazy_job(2, 1, 2, 0.375)))
    trace = simulate(inst, PolicySpec(Policy.FIFO), DOUBLE)
    # Segments: job 1 over [0, 2], job 2 over [2, 1 + sqrt(1.75)].
    assert busy_time_in_window(trace, 1, 2.1) == pytest.approx(1.1)
    only_contained = busy_time_in_window(trace, 0.5, 2.5, contained_only=True)
    assert only_contained == pytest.approx(math.sqrt(1.75) - 1)
    assert busy_time_in_window(trace, -5, -1) == 0
    with pytest.raises(ValueError):
        busy_time_in_window(trace, 3, 1)


def test_max_stretch_requires_completion():
    inst = Instance((lazy_job(1, 0, 2, 1),))
    orphan = SimTrace(
        instance=inst,
        policy=PolicySpec(Policy.FIFO),
        events=(),
        completions={},
        stretches={},
        segments=(),
        busy_time=0,
    )
    with pytest.raises(SchedulingError):
        max_stretch(orphan)


def test_simulate_rejects_an_empty_instance():
    with pytest.raises(ValueError):
        simulate(Instance(()), PolicySpec(Policy.FIFO), DOUBLE)


def test_high_precision_run_matches_double_closely():
    inst = Instance((lazy_job(1, 0, 4, 2), lazy_job(2, 1, 2, 0.375)))
    wide = simulate(inst, PolicySpec(Policy.EDD), PrecisionContext(128))
    narrow = simulate(inst, PolicySpec(Policy.EDD), DOUBLE)
    for jid in narrow.completions:
        assert float(wide.completions[jid]) == pytest.approx(
            narrow.completions[jid], rel=1e-12
        )
