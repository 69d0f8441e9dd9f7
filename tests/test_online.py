"""Dispatcher, capped-speed kernels, and event-driven simulator tests."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from rampsched import (
    DOUBLE,
    Instance,
    Job,
    PrecisionContext,
    SchedulingError,
    Verdict,
    lazy_job,
    nonlazy_job,
    completion_from,
    dyadic,
    speed_at,
    stretch,
    work_in,
)
from rampsched import online
from rampsched.binfloat import BinFloat
from rampsched.core import total_busy_time
from rampsched.fileio import schedule_to_record, trace_to_record
from rampsched.generators import (
    gen_edd,
    gen_fifo,
    gen_lssf,
    gen_random_feasible,
    gen_srpt,
)
from rampsched.offline import lrtb, validate_schedule
from rampsched.online import (
    EventKind,
    Policy,
    PolicySpec,
    SimState,
    SimTrace,
    TraceEvent,
    lssf_crossing,
    max_stretch,
    simulate,
    thrashing_activation,
)


def _state(spec, jobs, running=None, ctx=DOUBLE):
    state = SimState(spec=spec, jobs={j.id: j for j in jobs}, ctx=ctx)
    for j in jobs:
        state.admit(j)
    if running is not None:
        state.start(running)
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
    spec = PolicySpec(Policy.FIFO)
    assert _state(spec, jobs).dispatch(1) == 2


def test_edd_picks_earliest_due_and_sticks_on_ties():
    jobs = (lazy_job(1, 0, 4, 1), lazy_job(2, 0.5, 4, 1))
    spec = PolicySpec(Policy.EDD)
    assert _state(spec, jobs).dispatch(1) == 1
    assert _state(spec, jobs, running=2).dispatch(1) == 2


def test_srpt_ranks_by_time_to_finish_not_work():
    # Job 1 has more work left but has been ramping since 0, so it
    # finishes at t=5 (2 units away); job 2's ramp is young and takes
    # sqrt(5.01) ~ 2.24 units.  Remaining work alone would choose job 2.
    jobs = (lazy_job(1, 0, 10, 8), lazy_job(2, 2.9, 10, 2.5))
    spec = PolicySpec(Policy.SRPT)
    assert _state(spec, jobs).dispatch(3) == 1


def test_stretch_rule_chases_the_largest_stretch():
    jobs = (lazy_job(1, 0, 10, 1), lazy_job(2, 0, 12.5, 1))
    spec = PolicySpec(Policy.LSSF)
    assert _state(spec, jobs).dispatch(11) == 1


def test_stretch_tie_goes_to_the_faster_growing_job():
    # At t = 4/3 both stretches equal 1/3; the shorter window grows
    # faster and must win even while the other job holds the machine.
    jobs = (lazy_job(1, 0, 4, 1), lazy_job(2, 1, 2, 0.4))
    spec = PolicySpec(Policy.LSSF)
    assert _state(spec, jobs, running=1).dispatch(4 / 3) == 2


def test_full_tie_prefers_the_running_job():
    # Job 2's release sits a hair after job 1's, so the two wait in
    # separate buckets, yet both have length 4 and their stretches tie at
    # t = 1 within tolerance.  Only the running job breaks the tie.
    spec = PolicySpec(Policy.LSSF)
    for bits, offset in ((53, 2.0**-60), (128, 2**-120)):
        ctx = PrecisionContext(bits)
        x = ctx.real
        hair = x(offset)
        jobs = (lazy_job(1, x(0), x(4), x(1)), lazy_job(2, hair, x(4) + hair, x(1)))
        assert jobs[1].release > 0 and jobs[0].length == jobs[1].length
        assert ctx.close(stretch(jobs[0], x(1)), stretch(jobs[1], x(1)))
        assert len(_state(spec, jobs, ctx=ctx).buckets) == 2
        assert _state(spec, jobs, running=2, ctx=ctx).dispatch(x(1)) == 2
        assert _state(spec, jobs, ctx=ctx).dispatch(x(1)) == 1


def test_thrashing_waits_for_activation():
    jobs = (lazy_job(1, 0, 2, 1), lazy_job(2, 1, 2, 0.2))
    spec = PolicySpec(Policy.THRASHING, alpha=2)
    state = _state(spec, jobs)
    assert state.dispatch(1) is None  # activations at 4 and 3
    assert state.dispatch(3) == 2  # later release activates first
    assert state.dispatch(4.5) == 2
    assert _state(spec, ()).dispatch(0) is None


@pytest.mark.parametrize("bits", [53, 128])
def test_next_event_is_the_policys_own(bits):
    ctx = PrecisionContext(bits)
    x = ctx.real
    # Thrashing: the earliest activation still pending after dispatch.
    jobs = (lazy_job(1, x(0), x(2), x(1)), lazy_job(2, x(1), x(2), x(0.2)))
    spec = PolicySpec(Policy.THRASHING, alpha=2)
    state = _state(spec, jobs, ctx=ctx)
    assert state.dispatch(1) is None
    assert state.next_event(1) == 3
    # LSSF: the running job's next stretch crossing.
    jobs = (lazy_job(1, x(0), x(4), x(1)), lazy_job(2, x(1), x(2), x(0.4)))
    spec = PolicySpec(Policy.LSSF)
    state = _state(spec, jobs, running=1, ctx=ctx)
    assert state.next_event(1) == x(4) / 3
    # The others act only at releases and completions.
    for policy in (Policy.FIFO, Policy.EDD, Policy.SRPT):
        spec = PolicySpec(policy)
        state = _state(spec, jobs, ctx=ctx)
        state.start(state.dispatch(1))
        assert state.next_event(1) is None, policy


def test_srpt_buckets_hold_only_waiting_jobs():
    # Jobs 1 and 2 share every input, so they share a bucket.
    jobs = (lazy_job(1, 0, 4, 1), lazy_job(2, 0, 4, 1), lazy_job(3, 0, 5, 2))
    state = _state(PolicySpec(Policy.SRPT), jobs)

    def filed():
        assert all(state.buckets.values())
        entries = [(key, jid) for key, bucket in state.buckets.items() for jid in bucket]
        # Each waiting job sits once, in the bucket of its own key.
        waiting = set(state.remaining) - {state.running}
        assert sorted(jid for _, jid in entries) == sorted(waiting)
        assert all(state.bucket_key(jid) == key for key, jid in entries)
        return sorted(sorted(bucket) for bucket in state.buckets.values())

    def finish():
        del state.remaining[state.running]
        state.running = None

    assert filed() == [[1, 2], [3]]
    state.start(1)
    assert filed() == [[2], [3]]
    state.remaining[1] = 0.5
    state.preempt()  # refiled under its new remaining work
    assert filed() == [[1], [2], [3]]
    state.start(3)
    assert filed() == [[1], [2]]
    finish()
    state.start(1)
    assert filed() == [[2]]
    finish()
    state.start(2)
    assert filed() == []


def test_sim_state_takes_only_spec_jobs_and_ctx():
    with pytest.raises(TypeError):
        SimState(spec=PolicySpec(Policy.SRPT), jobs={}, ctx=DOUBLE, remaining={})
    jobs = {1: lazy_job(1, 0, 2, 1)}
    state = SimState(spec=PolicySpec(Policy.LSSF), jobs=jobs, ctx=DOUBLE)
    assert state.jobs is jobs
    assert (state.remaining, state.running, state.buckets) == ({}, None, {})
    assert state.screen is None  # 53 bits: nothing to screen
    # Each state starts with its own containers.
    other = SimState(PolicySpec(Policy.LSSF), jobs, DOUBLE)
    assert other.remaining is not state.remaining and other.crossings is not state.crossings
    # Above 53 bits, LSSF screens its decisions from the start.
    assert SimState(PolicySpec(Policy.LSSF), jobs, PrecisionContext(128)).screen is not None


def test_policy_spec_validation():
    with pytest.raises(ValueError):
        PolicySpec(Policy.THRASHING, alpha=0.5)
    with pytest.raises(ValueError):
        PolicySpec(Policy.FIFO, speed_cap_factor=0)
    spec = PolicySpec(Policy.FIFO, speed_cap_factor=2)
    assert spec.speed_cap_factor == 2


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_policy_spec_rejects_a_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="^idle threshold must be finite$"):
        PolicySpec(Policy.THRASHING, alpha=alpha)


def test_policy_specs_and_trace_events_compare_by_value():
    spec = PolicySpec(kind=Policy.THRASHING, alpha=3, speed_cap_factor=2)
    assert spec == PolicySpec(Policy.THRASHING, 3, 2)
    assert hash(spec) == hash(PolicySpec(Policy.THRASHING, 3, 2))
    assert spec != PolicySpec(Policy.THRASHING, 3)
    default = PolicySpec(Policy.FIFO)
    assert (default.alpha, default.speed_cap_factor) == (2, None)

    event = TraceEvent(time=1.5, kind=EventKind.START, job=2)
    assert event == TraceEvent(1.5, EventKind.START, 2)
    assert hash(event) == hash(TraceEvent(1.5, EventKind.START, 2))
    assert event != TraceEvent(1.5, EventKind.START, 3)
    assert event != TraceEvent(1.5, EventKind.PREEMPT, 2)
    assert TraceEvent(0, EventKind.IDLE_BEGIN).job is None
    assert [event] == [TraceEvent(1.5, EventKind.START, 2)]
    assert (event,) != (TraceEvent(2.5, EventKind.START, 2),)


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


@pytest.mark.parametrize("bits", [53, 128])
def test_trace_segments_form_a_valid_schedule(bits):
    # A run's segments place each job's work: validate_schedule takes the
    # trace itself and integrates the work over its spans, under the speed
    # cap of the trace's policy.
    ctx = PrecisionContext(bits)
    for inst in (gen_random_feasible(5, 7, ctx), gen_srpt(8, ctx)):
        for policy in Policy:
            for cap in (None, "2", "1", "0.5"):
                factor = None if cap is None else ctx.parse(cap)
                trace = simulate(inst, PolicySpec(policy, speed_cap_factor=factor), ctx)
                report = validate_schedule(inst, trace, ctx)
                assert report.ok, (policy, cap, report.violations)
                assert not report.incomplete
                # Clipped at the last completion, no segment loses any time.
                last = max(trace.completions.values())
                assert total_busy_time(trace, until=last) == trace.busy_time


def test_busy_time_until_clips_each_segment():
    inst = Instance((lazy_job(1, 0, 4, 2), lazy_job(2, 1, 2, 0.375)))
    trace = simulate(inst, PolicySpec(Policy.FIFO), DOUBLE)
    # Segments: job 1 over [0, 2], job 2 over [2, 1 + sqrt(1.75)].
    end = 1 + math.sqrt(1.75)
    assert total_busy_time(trace) == trace.busy_time == pytest.approx(end)
    assert total_busy_time(trace, until=1) == 1
    assert total_busy_time(trace, until=2) == 2
    assert total_busy_time(trace, until=2.1) == pytest.approx(2.1)
    assert total_busy_time(trace, until=end + 1) == trace.busy_time
    assert total_busy_time(trace, until=0) == 0
    assert total_busy_time(trace, until=-1) == 0


def test_a_log_that_leaves_a_job_unfinished_is_refused():
    inst = Instance((lazy_job(1, 0, 2, 1),))
    for events in ((), (TraceEvent(0, EventKind.RELEASE, 1),)):
        with pytest.raises(ValueError, match="job 1 never completes"):
            SimTrace(inst, PolicySpec(Policy.FIFO), events, DOUBLE)


def test_simulate_rejects_an_empty_instance():
    with pytest.raises(ValueError):
        simulate(Instance(()), PolicySpec(Policy.FIFO), DOUBLE)


def test_finish_lost_to_rounding_is_an_error():
    # At t ~ 2e200 a finish time 1e-200 later rounds onto the start at
    # 128 bits; completing anyway would report work that never ran.
    ctx = PrecisionContext(128)
    inst = gen_srpt(5, ctx)
    spec = PolicySpec(Policy.THRASHING, alpha=ctx.parse("1e200"))
    with pytest.raises(SchedulingError, match="rounds onto its start at 128 bits"):
        simulate(inst, spec, ctx)


def test_roundoff_remainder_completes_without_a_segment():
    # Job 2 arrives one ulp before job 1 finishes, so EDD preempts job 1
    # with a roundoff remainder that its restart cannot fit into a segment.
    first = lazy_job(1, 0.0, 10.0, 1.0)
    almost = math.nextafter(completion_from(first, 0.0, 1.0, DOUBLE), 0)
    inst = Instance((first, lazy_job(2, almost, almost + 3, 4.0)))
    trace = simulate(inst, PolicySpec(Policy.EDD), DOUBLE)
    assert trace.completions[1] == trace.completions[2]
    assert [seg.job for seg in trace.segments] == [1, 2]
    assert trace.segments[0].end == almost


def test_high_precision_run_matches_double_closely():
    inst = Instance((lazy_job(1, 0, 4, 2), lazy_job(2, 1, 2, 0.375)))
    wide = simulate(inst, PolicySpec(Policy.EDD), PrecisionContext(128))
    narrow = simulate(inst, PolicySpec(Policy.EDD), DOUBLE)
    for jid in narrow.completions:
        assert float(wide.completions[jid]) == pytest.approx(
            narrow.completions[jid], rel=1e-12
        )


# --- the simulator against its scan reference ---------------------------------


def _scan_dispatch(spec, jobs, released, remaining, caps, running, t, ctx):
    """The dispatch rule as first written: rescan every released job."""
    cands = [jobs[i] for i in released]
    kind = spec.kind
    if kind is Policy.FIFO:
        return min(cands, key=lambda j: (j.release, j.id)).id
    if kind is Policy.EDD:
        return min(cands, key=lambda j: (j.due, j.id != running, j.id)).id
    if kind is Policy.SRPT:
        def rpt(j):
            return completion_from(j, t, remaining[j.id], ctx, caps.get(j.id)) - t

        return min(cands, key=lambda j: (rpt(j), j.id != running, j.id)).id
    if kind is Policy.LSSF:
        so_far = [stretch(j, t) for j in cands]
        top = max(so_far)
        tied = [j for j, s in zip(cands, so_far) if ctx.close(s, top)]
        return min(tied, key=lambda j: (j.length, j.id != running, j.id)).id
    when = {j.id: thrashing_activation(j, spec.alpha) for j in cands}
    eligible = [j for j in cands if t >= when[j.id]]
    if not eligible:
        return None
    return min(eligible, key=lambda j: (-j.release, j.id != running, j.id)).id


def _scan_simulate(instance, spec, ctx):
    """The event loop as first written: every event rescans every released job.

    Like simulate, it computes in ctx's numbers whatever the jobs hold.
    """
    x = ctx.real
    order = [Job(j.id, x(j.release), x(j.due), x(j.work), j.base, j.slope)
             for j in instance.jobs]
    jobs, n = {j.id: j for j in order}, len(order)
    caps = {}
    if spec.speed_cap_factor is not None:
        caps = {j.id: spec.speed_cap_factor * speed_at(j, j.due) for j in order}
    released, remaining, completions = set(), {}, {}
    events = []
    idx, running, idle = 0, None, False
    t = order[0].release
    while True:
        while idx < n and order[idx].release == t:
            j = order[idx]
            idx += 1
            events.append(TraceEvent(t, EventKind.RELEASE, j.id))
            if j.work == 0:
                completions[j.id] = t
                events.append(TraceEvent(t, EventKind.COMPLETE, j.id))
            else:
                released.add(j.id)
                remaining[j.id] = j.work
        choice = None
        if released:
            choice = _scan_dispatch(
                spec, jobs, released, remaining, caps, running, t, ctx
            )
        if choice is None or choice != running:
            if running is not None:
                events.append(TraceEvent(t, EventKind.PREEMPT, running))
                running = None
            if choice is None:
                if not idle and len(completions) < n:
                    idle = True
                    events.append(TraceEvent(t, EventKind.IDLE_BEGIN))
            else:
                if idle:
                    idle = False
                    events.append(TraceEvent(t, EventKind.IDLE_END))
                events.append(TraceEvent(t, EventKind.START, choice))
                running = choice
        if len(completions) == n:
            break
        horizon = [order[idx].release] if idx < n else []
        if running is not None:
            job = jobs[running]
            finish_at = completion_from(
                job, t, remaining[running], ctx, caps.get(running)
            )
            finish_at = max(finish_at, t)
            horizon.append(finish_at)
            if spec.kind is Policy.LSSF:
                for jid in released - {running}:
                    cross = lssf_crossing(job, jobs[jid], t)
                    if cross is not None:
                        horizon.append(cross)
        if spec.kind is Policy.THRASHING:
            for jid in released:
                when = thrashing_activation(jobs[jid], spec.alpha)
                if when > t:
                    horizon.append(when)
        tn = min(horizon)
        if running is not None:
            if tn == finish_at:
                released.discard(running)
                del remaining[running]
                completions[running] = tn
                events.append(TraceEvent(tn, EventKind.COMPLETE, running))
                running = None
            else:
                left = remaining[running] - work_in(job, t, tn, caps.get(running))
                remaining[running] = left if left > 0 else 0
        t = tn
    return SimTrace(instance, spec, events, ctx)


def _bucket_stress(ctx):
    """Instances where SRPT and LSSF buckets hold several jobs, or nearly do."""
    x = ctx.real

    def job(jid, release, due, work, base="0", slope="1"):
        return Job(jid, x(release), x(due), x(work), x(base), x(slope))

    # Equal-work twins 1 and 3 arrive while job 2 runs with the same
    # time left, so only the running-job preference keeps job 2.
    yield Instance((job(2, "0", "10", "2", base="1", slope="0"),
                    job(1, "1", "10", "1", base="1", slope="0"),
                    job(3, "1", "10", "1", base="1", slope="0")), "run-twins")
    # Job 2 is preempted by job 4 with 0.5 left, the work of the waiting
    # job 3; job 1 shares job 2's release and speed but not its work.
    yield Instance((job(1, "0", "10", "1", base="1", slope="0"),
                    job(2, "0", "10", "0.75", base="1", slope="0"),
                    job(3, "0.25", "10", "0.5", base="1", slope="0"),
                    job(4, "0.25", "10", "0.125", base="1", slope="0")), "rem-equals-work")
    # A batch that differs only in due date: one bucket uncapped, two
    # buckets once the cap, a multiple of the due-date speed, applies.
    yield Instance((job(1, "0", "2", "3"), job(2, "0", "4", "3"),
                    job(3, "0", "2", "3"), job(4, "0.5", "6", "0.25")), "cap-twins")
    # LSSF twins 2 and 3 on one stretch line, an equal-length job 1 on a
    # parallel line, and a steep job 4 whose line crosses both.
    yield Instance((job(2, "0", "4", "1.5"), job(3, "0", "4", "1"),
                    job(1, "1", "5", "2"), job(4, "0.5", "1.5", "0.3")), "lssf-twins")
    # Ramps with a base speed: twins 1 and 2, job 3 differing in base only.
    yield Instance((job(1, "0", "3", "2", base="0.5"), job(2, "0", "3", "2", base="0.5"),
                    job(3, "0", "3", "2", base="1"),
                    job(4, "0.5", "2", "0.1", base="0.5")), "base-twins")


def _exact(v):
    m, e = dyadic(v)
    return Fraction(m) * Fraction(2) ** e


def _exact_crossing(a, b):
    ra, la, rb, lb = map(_exact, (a.release, a.length, b.release, b.length))
    return (ra * lb - rb * la) / (lb - la)


def _ulp(v, ctx):
    """Spacing of ctx's numbers at the positive number v."""
    m, e = dyadic(v)
    return ctx.real(2) ** (m.bit_length() + e - ctx.bits)


def _window_edge(ctx):
    """LSSF: at job 3's release, job 2's stretch rounds onto job 1's tie window.

    Exactly, job 2's stretch lies below the window, so only the rounding
    of `stretch` puts job 2 in the tie, where its shorter window wins.
    """
    x = ctx.real
    t = x(3) / 2
    first = lazy_job(1, x(0), x(1), x(2))
    edge = t - ctx.tolerance(t)  # the computed top is t, exactly
    length = x(9) / 10
    release = t - edge * length
    step = _ulp(release, ctx)
    for i in range(64):  # stretch at t falls as the release rises
        r = release + i * step
        second = lazy_job(2, r, r + length, x(1) / 100)
        if ctx.close(stretch(second, t), stretch(first, t)):
            tied = second
    assert _exact(tied.release) > _exact(t) - _exact(edge) * _exact(tied.length)
    return Instance((first, tied, lazy_job(3, t, t + 5, x(1) / 10)), "window-edge")


def _past_crossing(ctx):
    """LSSF: a crossing at or before a rebuild time that rounds to after it.

    Steep job 4 runs until t, when job 1 starts.  Job 2's line is nearly
    parallel to job 1's and meets it, exactly, at or before t; but
    lssf_crossing cancels and rounds that crossing to some t' > t, which
    becomes an event of the run.  Job 3's line meets job 1's just after
    t', inside the tie window, so job 3 takes over at t'; without the
    event at t', it would take over only at its own crossing.
    """
    x = ctx.real
    steep = lazy_job(4, x(0), x(1) / 8, x(2) / 5)
    rb, rd, length = x(1) / 3, x(7) / 8, ctx.sqrt(x(5))
    best = None
    for k in range(64):
        ra = rb + rb * x(2) ** -20 + k * _ulp(rb, ctx)
        # Job 4's finish as simulate computes it, across the releases.
        left = steep.work
        for lo, hi in ((x(0), rb), (rb, ra), (ra, rd)):
            left -= work_in(steep, lo, hi)
        t = completion_from(steep, rd, left, ctx)
        first = lazy_job(1, ra, ra + length, length * length / 2)
        due = rb + length + (ra - rb) * length / (t - ra)  # lines meet near t
        second = lazy_job(2, rb, due, x(1) / 4)
        cross = lssf_crossing(first, second, t)
        gap = _exact(t) - _exact_crossing(first, second)
        if cross is not None and gap >= 0 and (best is None or gap > best[0]):
            best = gap, first, second, t, cross
    _, first, second, t, cross = best
    top = stretch(first, cross)
    slopes = top / (cross - rd) - 1 / first.length  # job 3's slope less job 1's
    meet = cross + ctx.tolerance(top) / slopes / 2
    third = lazy_job(3, rd, rd + (meet - rd) * first.length / (meet - first.release),
                     x(1) / 4)
    assert not ctx.close(stretch(third, t), stretch(first, t))
    assert ctx.close(stretch(third, cross), stretch(first, cross))
    return Instance((first, second, third, steep), "past-crossing")


def _int_window_edge(ctx):
    """The same with int releases and due dates: stretches at int times are floats.

    The speeds are the context's numbers, so that completion times do
    not pass through floats.
    """
    one = ctx.real(1)
    big = 2**57
    t = 3 * big
    first = nonlazy_job(1, 0, big, 4 * big, base=one)  # still running at t
    length = big - 3
    for r in range(10, 100):  # from release 9, stretch 3 at t exactly, it falls
        if (t - r) / length != t / big:
            break
        tied = nonlazy_job(2, r, r + length, big, base=one)
    assert Fraction(t - tied.release, length) < Fraction(t, big)
    third = nonlazy_job(3, t, t + big, big, base=one)
    return Instance((first, tied, third), "int-window-edge")


def _screen_stress(ctx):
    """LSSF instances on which the screen's rounding bounds are nearly tight."""
    x = ctx.real
    third = x(1) / 3
    # Releases and lengths a few ulps apart: nearly parallel lines, whose
    # mpf crossings cancel to roundoff noise the size of the releases.
    ur, ul = _ulp(third, ctx), _ulp(2 * third, ctx)
    jobs = []
    shifts = ((0, 0), (3, -1), (1, 2), (5, 1), (2, -2), (4, 3), (6, -3), (7, 4))
    for jid, (dr, dl) in enumerate(shifts, 1):
        r = third + dr * ur
        length = 2 * third + dl * ul
        jobs.append(lazy_job(jid, r, r + length, length * length / 4))
    yield Instance(tuple(jobs), "ulp-lengths")
    # Lines 1 and 2 meet at stretch 1 at t = 2f, where job 3 is released:
    # a rounded crossing near the release (f = 1/3), and an exact one.
    for name, f in (("tie-at-release", third), ("exact-crossing", x(3) / 4)):
        yield Instance((lazy_job(1, x(0), 2 * f, 4 * f * f),
                        lazy_job(2, f, 2 * f, f * f / 4),
                        lazy_job(3, 2 * f, 5 * f, f * f / 8)), name)
    yield _past_crossing(ctx)
    yield _window_edge(ctx)
    yield _int_window_edge(ctx)
    # Int releases, due dates and work, which a run converts to ctx's
    # numbers: computed as ints, crossings and stretches at int times
    # would be doubles at every precision.
    one = ctx.real(1)
    yield Instance(tuple(lazy_job(jid, r, d, w, slope=one) for jid, r, d, w in (
        (1, 0, 7, 20), (2, 1, 4, 2), (3, 2, 5, 3), (4, 3, 6, 1), (5, 3, 10, 4))), "int-lines")


def _reference_corpus():
    # Ties that only the running-job preference settles: an equal due
    # date released later under a lower id (EDD), and an equal release
    # that activates while the other job runs (thrashing, alpha=2).
    yield Instance((lazy_job(2, 0, 4, 1), lazy_job(1, 1, 4, 1)), "edd-tie"), DOUBLE
    yield Instance((lazy_job(1, 0, 4, 1), lazy_job(2, 0, 1, 40)), "thr-tie"), DOUBLE
    for bits, seeds in ((53, range(1, 13)), (128, range(1, 4))):
        ctx = PrecisionContext(bits)
        for inst in _bucket_stress(ctx):
            yield inst, ctx
        for seed in seeds:
            yield gen_random_feasible(3 + (seed * 7) % 30, seed, ctx), ctx
        for n in (5, 17):
            yield gen_lssf(n, ctx), ctx
            yield gen_srpt(n, ctx), ctx
            yield gen_fifo(n, ctx), ctx
            yield gen_edd(n, ctx), ctx
    # Above 53 bits LSSF screens in exact integers; at 64 bits the tie
    # window, 2**-48, is wider than a double's spacing.
    for bits in (64, 128, 200):
        ctx = PrecisionContext(bits)
        for inst in _screen_stress(ctx):
            yield inst, ctx
        yield gen_lssf(17, ctx), ctx


def test_simulate_matches_the_scan_reference():
    specs = [PolicySpec(p, speed_cap_factor=cap)
             for p in Policy if p is not Policy.THRASHING for cap in (None, 1, 0.5)]
    specs += [PolicySpec(Policy.THRASHING, alpha=a, speed_cap_factor=cap)
              for a in (1, 2, 3) for cap in (None, 1, 0.5)]
    for inst, ctx in _reference_corpus():
        for spec in specs:
            got = simulate(inst, spec, ctx)
            want = _scan_simulate(inst, spec, ctx)
            assert trace_to_record(got, ctx) == trace_to_record(want, ctx), (
                inst.name, ctx.bits, spec,
            )
            assert got.segments == want.segments, (inst.name, ctx.bits, spec)


# (id, release, due, work, slope) rows.  They hold an LSSF crossing at
# 11/3, a completion at a release's int time and a thrashing activation
# at an int time.  Computed in Python's numbers, these come out as
# doubles at any precision, and capped runs, such as thrashing at cap 2
# on the second set, stop as unable to run their remaining work.
_INT_ROWS = (
    ((1, 1, 5, 8, 3), (2, 1, 4, 4, 3), (3, 1, 5, 5, 1), (4, 3, 4, 3, 3)),
    ((1, 2, 6, 3, 3), (2, 3, 5, 2, 2), (3, 4, 8, 2, 3), (4, 2, 5, 4, 2)),
    ((1, 1, 3, 5, 2), (2, 4, 7, 6, 2), (3, 2, 3, 5, 1), (4, 4, 8, 3, 3)),
)


@pytest.mark.parametrize("bits", [64, 128])
def test_int_typed_runs_compute_in_the_contexts_numbers(bits):
    # Jobs that hold Python ints run and sweep as their ctx.real twins do.
    ctx = PrecisionContext(bits)
    for rows in _INT_ROWS:
        ints = Instance(tuple(lazy_job(*row) for row in rows))
        twin = Instance(tuple(lazy_job(jid, *map(ctx.real, row)) for jid, *row in rows))
        for policy in Policy:
            for cap in (None, 2, 0.5):
                lifted = None if cap is None else ctx.real(cap)
                got = simulate(ints, PolicySpec(policy, speed_cap_factor=cap), ctx)
                want = simulate(twin, PolicySpec(policy, speed_cap_factor=lifted), ctx)
                assert trace_to_record(got, ctx) == trace_to_record(want, ctx), (rows, policy, cap)
        assert (schedule_to_record(ints, *lrtb(ints, ctx), ctx)
                == schedule_to_record(twin, *lrtb(twin, ctx), ctx)), rows


def _count_calls(monkeypatch, owner, name):
    """Count calls of owner.name from here on; returns a one-item list."""
    count = [0]
    inner = getattr(owner, name)

    def counting(*args):
        count[0] += 1
        return inner(*args)

    monkeypatch.setattr(owner, name, counting)
    return count


def test_static_key_dispatch_comparisons_grow_as_n_log_n(monkeypatch):
    # One batch released at 0: every event sees all unfinished jobs.
    ctx = PrecisionContext(128)
    rng = random.Random(5)
    n = 400
    jobs = []
    for i in range(1, n + 1):
        due = ctx.parse(repr(rng.uniform(1, 200)))
        share = ctx.parse(repr(rng.uniform(0.001, 0.01)))
        jobs.append(lazy_job(i, ctx.real(0), due, due * due / 2 * share))
    inst = Instance(tuple(jobs))
    # A BinFloat's compare entry points: the ordering operators and ==.
    counts = [_count_calls(monkeypatch, BinFloat, name)
              for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")]
    for policy in (Policy.FIFO, Policy.EDD, Policy.THRASHING):
        before = sum(count[0] for count in counts)
        trace = simulate(inst, PolicySpec(policy), ctx)
        assert len(trace.completions) == n
        assert sum(count[0] for count in counts) - before <= 6 * n * math.log2(n), policy


def test_stretch_crossings_are_computed_once_per_running_job(monkeypatch):
    ctx = PrecisionContext(128)
    inst = gen_lssf(241, ctx)
    calls = _count_calls(monkeypatch, online, "lssf_crossing")
    trace = simulate(inst, PolicySpec(Policy.LSSF), ctx)
    assert len(trace.completions) == 241
    assert 0 < calls[0] <= 11_000


def test_lssf_cascade_screens_its_mpf_kernels(monkeypatch):
    # Unscreened, each event evaluated ~29 stretches and ~14 crossings.
    ctx = PrecisionContext(128)
    inst = gen_lssf(241, ctx)
    stretches = _count_calls(monkeypatch, online, "stretch")
    crossings = _count_calls(monkeypatch, online, "lssf_crossing")
    trace = simulate(inst, PolicySpec(Policy.LSSF), ctx)
    assert len(trace.completions) == 241
    assert 0 < stretches[0] <= 3 * len(trace.events)
    assert 0 < crossings[0] <= 3 * len(trace.events)


# sha256 of the canonical JSON of each cascade's LSSF trace, as test_golden
# hashes records, recorded from the simulator before LSSF was screened.
UNSCREENED_CASCADES = {
    (241, 128): "04028e4d70992802c44c80845a71f20d295822fda484f3b7820a773bc3a69cc6",
    (800, 128): "f119d61341f9f90fb4b1d206432b706cf7d0e5d3d481291bf0d72e7992c03d2e",
    (400, 53): "fabc61ed331fa1a5341adde26823bd19f03add7d516203e3d071f22eafc8ec2e",
}


@pytest.mark.parametrize("n,bits", list(UNSCREENED_CASCADES))
def test_cascade_traces_match_the_unscreened_simulator(n, bits):
    ctx = PrecisionContext(bits)
    trace = simulate(gen_lssf(n, ctx), PolicySpec(Policy.LSSF), ctx)
    record = trace_to_record(trace, ctx)
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == UNSCREENED_CASCADES[n, bits]


def test_srpt_evaluates_each_bucket_once_per_event(monkeypatch):
    # 240 identical half-unit jobs and one unit job, all released at 0.
    ctx = PrecisionContext(128)
    inst = gen_srpt(241, ctx)
    calls = _count_calls(monkeypatch, online, "completion_from")
    trace = simulate(inst, PolicySpec(Policy.SRPT), ctx)
    assert len(trace.completions) == 241
    assert 0 < calls[0] <= 3 * len(trace.events)


def test_lssf_evaluates_each_bucket_once_per_event(monkeypatch):
    ctx = PrecisionContext(128)
    inst = gen_srpt(241, ctx)
    stretches = _count_calls(monkeypatch, online, "stretch")
    crossings = _count_calls(monkeypatch, online, "lssf_crossing")
    trace = simulate(inst, PolicySpec(Policy.LSSF), ctx)
    assert len(trace.completions) == 241
    assert 0 < stretches[0] <= 3 * len(trace.events)
    assert crossings[0] <= 241


def test_ten_thousand_job_batch_at_double(monkeypatch):
    n = 10_000
    inst = gen_srpt(n, DOUBLE)
    kernels = {name: _count_calls(monkeypatch, online, name)
               for name in ("completion_from", "stretch", "lssf_crossing")}
    for policy in (Policy.SRPT, Policy.LSSF):
        for count in kernels.values():
            count[0] = 0
        trace = simulate(inst, PolicySpec(policy), DOUBLE)
        assert len(trace.completions) == n
        assert sum(count[0] for count in kernels.values()) <= 4 * len(trace.events)
        report = validate_schedule(inst, trace, DOUBLE)
        assert report.ok and not report.incomplete, (policy, report.violations[:1])
        if policy is Policy.SRPT:
            closed_form = DOUBLE.sqrt(n + 1) / 2
            assert DOUBLE.close(max_stretch(trace), closed_form)
