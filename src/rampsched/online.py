"""Event-driven simulation of online dispatch policies.

The simulator advances between events (releases, completions, stretch
crossings, idle-threshold activations) and re-evaluates the dispatch
rule at each one.  Between consecutive events the dispatched job is
constant, so simulation is exact up to the arithmetic: no time step,
no drift.  Everything is deterministic; rerunning a simulation from
scratch reproduces the same trace bit for bit, which is what lets an
adversary extend an instance mid-run and trust the prefix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .core import (
    Instance,
    Job,
    PrecisionContext,
    SchedulingError,
    Segment,
    completion_from,
    speed_at,
    stretch,
    work_in,
)
from .offline import total_busy_time


class Policy(enum.Enum):
    FIFO = "fifo"
    EDD = "edd"
    SRPT = "srpt"
    LSSF = "lssf"
    THRASHING = "thrashing"


@dataclass(frozen=True)
class PolicySpec:
    """A dispatch rule plus its parameters.

    alpha is the stretch threshold below which the thrashing policy
    refuses to start a job.  speed_cap_factor, when set, caps every
    job's speed at factor * speed_at(job, job.due); None leaves the
    ramp unbounded.
    """

    kind: Policy
    alpha: object = 2
    speed_cap_factor: object = None

    def __post_init__(self):
        if not isinstance(self.kind, Policy):
            raise ValueError(f"unknown policy {self.kind!r}")
        if self.alpha < 1:
            raise ValueError("idle threshold below 1 would idle past due dates")
        if self.speed_cap_factor is not None and not self.speed_cap_factor > 0:
            raise ValueError("speed cap factor must be positive")


class EventKind(enum.Enum):
    RELEASE = "release"
    START = "start"
    PREEMPT = "preempt"
    COMPLETE = "complete"
    IDLE_BEGIN = "idle-begin"
    IDLE_END = "idle-end"


@dataclass(frozen=True)
class TraceEvent:
    time: object
    kind: EventKind
    job: int | None = None


@dataclass
class SimTrace:
    """Everything a simulation run produced.

    completions and stretches are keyed by job id; segments are the
    maximal uninterrupted runs, so busy_time equals the sum of their
    lengths.
    """

    instance: Instance
    policy: PolicySpec
    events: tuple
    completions: dict
    stretches: dict
    segments: tuple
    busy_time: object


# --- policy primitives -------------------------------------------------------


def lssf_crossing(a: Job, b: Job, now):
    """First time strictly after `now` when the stretch lines of a and b meet.

    Stretch-so-far of job j is the line (t - r_j)/(d_j - r_j); two
    lines with distinct interval lengths meet exactly once.  Returns
    None when they are parallel or meet at or before `now`.
    """
    la, lb = a.length, b.length
    if la == lb:
        return None
    t = (a.release * lb - b.release * la) / (lb - la)
    return t if t > now else None


def thrashing_activation(job: Job, alpha):
    """Time at which the job's stretch-so-far reaches alpha."""
    return job.release + alpha * (job.due - job.release)


@dataclass
class SimState:
    """Dispatcher-visible snapshot: released unfinished jobs and progress.

    caps maps job id to its absolute speed cap; a job without an entry
    runs uncapped.
    """

    jobs: dict
    remaining: dict
    ctx: PrecisionContext
    released: set = field(default_factory=set)
    running: int | None = None
    activation: dict = field(default_factory=dict)
    caps: dict = field(default_factory=dict)


def next_dispatch(spec: PolicySpec, state: SimState, t):
    """Job id the policy runs at time t, or None to idle.

    Ties prefer the currently running job, then the lowest id, except
    that the stretch-so-far rule first prefers the faster-growing
    stretch (shorter interval): at the instant two stretch lines meet,
    the steeper one is about to lead, and picking it is what makes a
    takeover at the crossing actually happen.  Stretches within the
    context's comparison tolerance count as meeting; an exact test
    would let one ulp of roundoff at the crossing event mask the tie
    and silently skip the takeover.  Every key ends in the job id, so
    the order in which candidates are visited cannot change the choice.
    """
    cands = [state.jobs[i] for i in state.released]
    if not cands:
        return None
    running = state.running
    kind = spec.kind
    if kind is Policy.FIFO:
        best = min(cands, key=lambda j: (j.release, j.id))
    elif kind is Policy.EDD:
        best = min(cands, key=lambda j: (j.due, j.id != running, j.id))
    elif kind is Policy.SRPT:
        def rpt(j):
            done_at = completion_from(
                j, t, state.remaining[j.id], state.ctx, state.caps.get(j.id)
            )
            return done_at - t

        best = min(cands, key=lambda j: (rpt(j), j.id != running, j.id))
    elif kind is Policy.LSSF:
        so_far = [stretch(j, t) for j in cands]
        top = max(so_far)
        tied = [j for j, s in zip(cands, so_far) if state.ctx.close(s, top)]
        best = min(tied, key=lambda j: (j.length, j.id != running, j.id))
    else:  # Policy.THRASHING, the last member PolicySpec admits
        eligible = [j for j in cands if t >= state.activation[j.id]]
        if not eligible:
            return None
        best = min(eligible, key=lambda j: (-j.release, j.id != running, j.id))
    return best.id


# --- the simulator -----------------------------------------------------------


def _close_segment(segments, state, rid, start, end):
    """Record job rid running on [start, end], if that span is not empty."""
    if start < end:
        done = work_in(state.jobs[rid], start, end, state.caps.get(rid))
        segments.append(Segment(rid, start, end, done))


def simulate(instance: Instance, spec: PolicySpec, ctx: PrecisionContext) -> SimTrace:
    """Run the policy on the instance until every job completes.

    Events at one timestamp are processed completion first, then
    releases, then the dispatch change they trigger, so event times in
    the trace are nondecreasing with a deterministic order inside a
    tie.
    """
    if not instance.jobs:
        raise ValueError("empty instance")
    order = instance.jobs
    n = len(order)
    state = SimState(jobs=instance.by_id, remaining={}, ctx=ctx)
    factor = spec.speed_cap_factor
    if factor is not None:
        state.caps = {j.id: factor * speed_at(j, j.due) for j in order}
    if spec.kind is Policy.THRASHING:
        state.activation = {
            j.id: thrashing_activation(j, spec.alpha) for j in order
        }
    events = []
    segments = []
    completions = {}
    idx = 0
    seg_start = None
    idle = False
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
                state.released.add(j.id)
                state.remaining[j.id] = j.work
        # Dispatch: preempt, then idle or start, unless the choice stands.
        choice = next_dispatch(spec, state, t)
        rid = state.running
        if choice is None or choice != rid:
            if rid is not None:
                _close_segment(segments, state, rid, seg_start, t)
                events.append(TraceEvent(t, EventKind.PREEMPT, rid))
                state.running = None
            if choice is None:
                if not idle and len(completions) < n:
                    idle = True
                    events.append(TraceEvent(t, EventKind.IDLE_BEGIN))
            else:
                if idle:
                    idle = False
                    events.append(TraceEvent(t, EventKind.IDLE_END))
                events.append(TraceEvent(t, EventKind.START, choice))
                seg_start = t
                state.running = choice
        if len(completions) == n:
            break
        # Next event: a release, a finish, an LSSF crossing or an activation.
        horizon = []
        if idx < n:
            horizon.append(order[idx].release)
        rid = state.running
        if rid is not None:
            job = state.jobs[rid]
            finish_at = completion_from(
                job, t, state.remaining[rid], ctx, state.caps.get(rid)
            )
            if finish_at < t:
                finish_at = t
            horizon.append(finish_at)
            if spec.kind is Policy.LSSF:
                for jid in state.released:
                    if jid == rid:
                        continue
                    cross = lssf_crossing(job, state.jobs[jid], t)
                    if cross is not None:
                        horizon.append(cross)
        if spec.kind is Policy.THRASHING:
            for jid in state.released:
                when = state.activation[jid]
                if when > t:
                    horizon.append(when)
        if not horizon:
            raise SchedulingError(
                "simulation stalled with unfinished jobs and no upcoming event"
            )
        tn = min(horizon)
        if rid is not None:
            if tn == finish_at:
                _close_segment(segments, state, rid, seg_start, tn)
                state.running = None
                state.released.discard(rid)
                del state.remaining[rid]
                completions[rid] = tn
                events.append(TraceEvent(tn, EventKind.COMPLETE, rid))
            else:
                used = work_in(job, t, tn, state.caps.get(rid))
                left = state.remaining[rid] - used
                state.remaining[rid] = left if left > 0 else 0
        t = tn

    stretches = {
        jid: stretch(state.jobs[jid], done) for jid, done in completions.items()
    }
    trace = SimTrace(
        instance=instance,
        policy=spec,
        events=tuple(events),
        completions=completions,
        stretches=stretches,
        segments=tuple(segments),
        busy_time=None,
    )
    trace.busy_time = total_busy_time(trace)
    return trace


def max_stretch(trace: SimTrace):
    """Largest interval stretch over the run; every job must have finished."""
    missing = [j.id for j in trace.instance.jobs if j.id not in trace.completions]
    if missing:
        raise SchedulingError(f"jobs {missing} never completed")
    return max(trace.stretches.values())


def missed_due_dates(trace: SimTrace):
    """Ids of the jobs that completed after their due date, in instance order."""
    return [j.id for j in trace.instance.jobs if trace.completions[j.id] > j.due]


def busy_time_in_window(trace: SimTrace, lo, hi, contained_only: bool = False):
    """Machine-on time inside [lo, hi].

    With contained_only, counts only execution of jobs whose whole
    release-to-due window lies inside [lo, hi].
    """
    if hi < lo:
        raise ValueError("reversed window")
    total = 0
    for seg in trace.segments:
        if contained_only:
            job = trace.instance.by_id[seg.job]
            if job.release < lo or job.due > hi:
                continue
        a = seg.start if seg.start > lo else lo
        b = seg.end if seg.end < hi else hi
        if b > a:
            total = total + (b - a)
    return total
