"""Event-driven simulation of online dispatch policies.

The simulator advances between events (releases, completions, stretch
crossings, idle-threshold activations) and re-evaluates the dispatch
rule at each one.  Between consecutive events the dispatched job is
constant, so simulation is exact up to the arithmetic: no time step,
no drift.  Everything is deterministic; rerunning a simulation from
scratch reproduces the same trace bit for bit, which is what lets an
adversary extend an instance mid-run and trust the prefix.

Each event costs work only for what changed.  FIFO, EDD and thrashing
rank jobs by a key fixed at release and dispatch from a heap, so an
event costs O(log n) comparisons.  LSSF computes the running job's
stretch crossings with the other released jobs when it starts, and
adds one per release while it runs.  SRPT's ranking and LSSF's
stretch-so-far ranking move with time for every job, so those two
dispatch rules still scan every released job at each event.
"""

from __future__ import annotations

import enum
import heapq
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
    runs uncapped.  FIFO, EDD and thrashing keep their candidates in
    `ready`, a heap of (rank, id) with a rank fixed at release, so a
    dispatch costs O(log n); completed jobs leave it lazily.  Thrashing
    holds a job in `pending`, a heap of (activation, id), until its
    activation time.  Under LSSF, `crossings` holds the future stretch
    crossings of the running job `crossings_of` with every other
    released job.
    """

    spec: PolicySpec
    jobs: dict
    ctx: PrecisionContext
    remaining: dict = field(default_factory=dict)
    released: set = field(default_factory=set)
    running: int | None = None
    caps: dict = field(default_factory=dict)
    ready: list = field(default_factory=list)
    pending: list = field(default_factory=list)
    crossings: list = field(default_factory=list)
    crossings_of: int | None = None

    def rank(self, job: Job):
        """Static dispatch key of FIFO, EDD and thrashing; lower runs first."""
        kind = self.spec.kind
        if kind is Policy.FIFO:
            return job.release
        if kind is Policy.EDD:
            return job.due
        return -job.release

    def admit(self, job: Job):
        """Release a job with work; the current time is its release."""
        jid = job.id
        self.released.add(jid)
        self.remaining[jid] = job.work
        spec = self.spec
        if spec.speed_cap_factor is not None:
            self.caps[jid] = spec.speed_cap_factor * speed_at(job, job.due)
        kind = spec.kind
        if kind is Policy.THRASHING:
            heapq.heappush(
                self.pending, (thrashing_activation(job, spec.alpha), jid)
            )
        elif kind is Policy.LSSF:
            rid = self.running
            if rid is not None and rid == self.crossings_of:
                cross = lssf_crossing(self.jobs[rid], job, job.release)
                if cross is not None:
                    heapq.heappush(self.crossings, cross)
        elif kind is Policy.FIFO or kind is Policy.EDD:
            heapq.heappush(self.ready, (self.rank(job), jid))

    def next_crossing(self, t):
        """Earliest stretch crossing of the running job after t, or None.

        The crossings are rebuilt only when the running job changes;
        each one is a fixed time for its pair, so dropping those at or
        before t leaves exactly the crossings a fresh scan would find.
        """
        rid = self.running
        if rid != self.crossings_of:
            self.crossings_of = rid
            heap = []
            if rid is not None:
                job = self.jobs[rid]
                for jid in self.released:
                    if jid != rid:
                        cross = lssf_crossing(job, self.jobs[jid], t)
                        if cross is not None:
                            heap.append(cross)
                heapq.heapify(heap)
            self.crossings = heap
        heap = self.crossings
        while heap and heap[0] <= t:
            heapq.heappop(heap)
        return heap[0] if heap else None


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

    FIFO, EDD and thrashing read the top of the state's ready heap.
    SRPT and LSSF scan every released job: SRPT's key, the time still
    needed to finish, moves with t for every job, and so does each
    stretch-so-far, so neither has an order that holds between events.
    Calls on one state must come with nondecreasing t.
    """
    running = state.running
    kind = spec.kind
    if kind is not Policy.SRPT and kind is not Policy.LSSF:
        ready, pending = state.ready, state.pending
        while pending and pending[0][0] <= t:
            _, jid = heapq.heappop(pending)
            heapq.heappush(ready, (state.rank(state.jobs[jid]), jid))
        while ready and ready[0][1] not in state.released:
            heapq.heappop(ready)
        if not ready:
            return None
        rank, best = ready[0]
        if running is not None and state.rank(state.jobs[running]) == rank:
            return running
        return best
    cands = [state.jobs[i] for i in state.released]
    if not cands:
        return None
    if kind is Policy.SRPT:
        def rpt(j):
            done_at = completion_from(
                j, t, state.remaining[j.id], state.ctx, state.caps.get(j.id)
            )
            return done_at - t

        best = min(cands, key=lambda j: (rpt(j), j.id != running, j.id))
    else:
        so_far = [stretch(j, t) for j in cands]
        top = max(so_far)
        # Stretches are nonnegative, so this is state.ctx.close(s, top).
        least = -state.ctx.tolerance(top)
        tied = [j for j, s in zip(cands, so_far) if s == top or s - top >= least]
        best = min(tied, key=lambda j: (j.length, j.id != running, j.id))
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
    state = SimState(spec=spec, jobs=instance.by_id, ctx=ctx)
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
                state.admit(j)
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
            cross = state.next_crossing(t)
            if cross is not None:
                horizon.append(cross)
        elif state.pending:
            horizon.append(state.pending[0][0])
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
