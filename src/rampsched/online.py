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
event costs O(log n) comparisons.  SRPT's and LSSF's values move with
time, but they depend on only a few inputs of each job, so waiting
jobs that share all of them sit in one bucket and get one evaluation
per event: a batch of identical jobs costs what one job costs.  LSSF
computes the running job's stretch crossings with each bucket when it
starts, and adds one per release that opens a bucket while it runs.
"""

from __future__ import annotations

import enum
import heapq
import math
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
        if not self.alpha < math.inf:  # also catches nan
            raise ValueError("idle threshold must be finite")
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
    activation time.

    SRPT and LSSF file every waiting job (released, unfinished, not
    running) in a bucket, a heap of ids: `buckets` maps each bucket key
    seen so far (see `file`) to its bucket, `bucket_of` maps a waiting
    job to its bucket, and `live` holds the nonempty buckets by
    identity, so that emptying or refilling one never hashes its key.
    A job leaves its bucket when it starts and is filed again, under
    its new remaining work, when it is preempted.  Under LSSF,
    `crossings` holds the future stretch crossings of the running job
    `crossings_of` with every live bucket.
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
    buckets: dict = field(default_factory=dict)
    bucket_of: dict = field(default_factory=dict)
    live: dict = field(default_factory=dict)
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

    def file(self, jid):
        """Put a waiting SRPT or LSSF job in its bucket; True if it was empty.

        The bucket key holds every input of the job's dispatch value.
        completion_from reads the release, the speed, the remaining
        work and the cap (the job id only names it in errors); stretch
        reads the release and the due date.  Waiting jobs with equal
        keys therefore get bit-identical values from the same
        arithmetic (the loader and the generators give every number of
        an instance the context's one scalar type).
        """
        job = self.jobs[jid]
        if self.spec.kind is Policy.LSSF:
            key = job.release, job.due
        else:
            sp = job.speed
            key = job.release, sp.base, sp.slope, self.caps.get(jid), self.remaining[jid]
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = self.buckets[key] = []
        was_empty = not bucket
        if was_empty:
            self.live[id(bucket)] = bucket
        heapq.heappush(bucket, jid)
        self.bucket_of[jid] = bucket
        return was_empty

    def start(self, jid):
        """Run job jid, taking it out of its bucket if it has one."""
        self.running = jid
        bucket = self.bucket_of.pop(jid, None)
        if bucket is not None:
            if bucket[0] == jid:  # the dispatcher only ever starts a bucket's lowest id
                heapq.heappop(bucket)
            else:
                bucket.remove(jid)
                heapq.heapify(bucket)
            if not bucket:
                del self.live[id(bucket)]

    def preempt(self):
        """Stop the running job; SRPT and LSSF file it again as waiting."""
        rid = self.running
        self.running = None
        if self.spec.kind is Policy.SRPT or self.spec.kind is Policy.LSSF:
            self.file(rid)

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
            # A job that joins a live bucket adds no line, so no crossing.
            rid = self.running
            if self.file(jid) and rid is not None and rid == self.crossings_of:
                cross = lssf_crossing(self.jobs[rid], job, job.release)
                if cross is not None:
                    heapq.heappush(self.crossings, cross)
        elif kind is Policy.SRPT:
            self.file(jid)
        else:
            heapq.heappush(self.ready, (self.rank(job), jid))

    def next_crossing(self, t):
        """Earliest stretch crossing of the running job after t, or None.

        The crossings are rebuilt only when the running job changes,
        from one member of each bucket: the members of a bucket share
        one stretch line.  Each crossing is a fixed time for its pair
        of lines, so dropping those at or before t leaves exactly the
        crossings a scan of every released job would find.
        """
        rid = self.running
        if rid != self.crossings_of:
            self.crossings_of = rid
            heap = []
            if rid is not None:
                job = self.jobs[rid]
                for bucket in self.live.values():
                    cross = lssf_crossing(job, self.jobs[bucket[0]], t)
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
    SRPT's key (the time still needed to finish) and LSSF's stretch so
    far move with t, so they are evaluated at every event, but only
    for the running job and the lowest id of each bucket.  That is
    exact: the members of a bucket get bit-identical values, and for
    LSSF share one interval length, so the full tie-break key of every
    other member loses to its lowest id on the id alone.  The running
    job sits in no bucket, so it keeps its preference over any equal
    candidate, as in a scan of every released job.
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
    cands = [bucket[0] for bucket in state.live.values()]
    if running is not None:
        cands.append(running)
    if not cands:
        return None
    jobs = state.jobs
    if kind is Policy.SRPT:
        remaining, caps, ctx = state.remaining, state.caps, state.ctx

        def rpt(i):
            return completion_from(jobs[i], t, remaining[i], ctx, caps.get(i)) - t

        return min(cands, key=lambda i: (rpt(i), i != running, i))
    so_far = [stretch(jobs[i], t) for i in cands]
    top = max(so_far)
    # Stretches are nonnegative, so this is state.ctx.close(s, top).
    least = -state.ctx.tolerance(top)
    tied = [i for i, s in zip(cands, so_far) if s == top or s - top >= least]
    return min(tied, key=lambda i: (jobs[i].length, i != running, i))


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
    tie.  Raises SchedulingError when an event time is not finite, or
    when a job's finish time rounds onto its start while more than
    roundoff of its work is left.
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
                state.preempt()
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
                state.start(choice)
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
        if not ctx.isfinite(tn):
            # Every later test against a nan or inf time would fail,
            # and the loop would never end.
            raise SchedulingError(
                f"next event time {ctx.format(tn)} after t={ctx.format(t)} "
                f"is not finite at {ctx.bits} bits"
            )
        if rid is not None:
            if tn == finish_at:
                left = state.remaining[rid]
                if not seg_start < tn and left > ctx.tolerance(job.work):
                    # The finish time rounded onto the start: the run
                    # would record no segment, yet mark the work done.
                    raise SchedulingError(
                        f"job {rid} cannot run its remaining work "
                        f"{ctx.format(left)} from t={ctx.format(tn)}: "
                        f"its finish time rounds onto its start at {ctx.bits} bits"
                    )
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
