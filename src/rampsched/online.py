"""Event-driven simulation of online dispatch policies.

The simulator advances between events (releases, completions, stretch
crossings, idle-threshold activations) and re-evaluates the dispatch
rule at each one.  Between consecutive events the dispatched job is
constant, so simulation is exact up to the arithmetic: no time step,
no drift.  Everything is deterministic; rerunning a simulation from
scratch reproduces the same trace bit for bit, which is what lets an
adversary extend an instance mid-run and trust the prefix.

SimState owns every piece of policy state: simulate asks it which job
to run (`dispatch`) and when the policy next acts on its own
(`next_event`), and never names a policy.  Each event costs work only
for what changed.  FIFO, EDD and thrashing rank jobs by a key fixed at
release and dispatch from a heap, so an event costs O(log n)
comparisons.  SRPT's and LSSF's values move with time, but they depend
on only a few inputs of each job, so waiting jobs that share all of
them sit in one bucket and get one evaluation per event: a batch of
identical jobs costs what one job costs.  LSSF's next stretch crossing
is the least crossing of the running job's line with a bucket's, found
by the same visit of the bucket heads.

LSSF decides exactly, at every precision (see StretchLines).  Every
input is dyadic, so each stretch line (t - release)/length is exact on
a common 2**-grid: the leading line at an event time is an exact
maximum, and the running line's next crossing is an exact rational,
rounded up to the context so that the takeover happens at that event.
Only completion times, thrashing's activations and SRPT's values are
rounded.
"""

from __future__ import annotations

import enum
import heapq
import math

from .core import (
    Instance,
    Job,
    Policy,
    PrecisionContext,
    Record,
    SchedulingError,
    Segment,
    completion_from,
    dyadic,
    speed_at,
    stretch,
    total_busy_time,
    work_in,
)


class PolicySpec(Record):
    """A dispatch rule plus its parameters.

    alpha is the stretch threshold below which the thrashing policy
    refuses to start a job.  speed_cap_factor, when set, caps every
    job's speed at factor * speed_at(job, job.due) (see `cap`); None
    leaves the ramp unbounded.
    """

    __slots__ = _fields = ("kind", "alpha", "speed_cap_factor")

    def __init__(self, kind: Policy, alpha=2, speed_cap_factor=None):
        if not isinstance(kind, Policy):
            raise ValueError(f"unknown policy {kind!r}")
        if not alpha < math.inf:  # also catches nan
            raise ValueError("idle threshold must be finite")
        if alpha < 1:
            raise ValueError("idle threshold below 1 would idle past due dates")
        if speed_cap_factor is not None and not speed_cap_factor > 0:
            raise ValueError("speed cap factor must be positive")
        self.kind = kind
        self.alpha = alpha
        self.speed_cap_factor = speed_cap_factor

    def cap(self, job: Job):
        """The job's absolute speed cap under this policy, or None when uncapped."""
        factor = self.speed_cap_factor
        return None if factor is None else factor * speed_at(job, job.due)


class EventKind(enum.Enum):
    RELEASE = "release"
    START = "start"
    PREEMPT = "preempt"
    COMPLETE = "complete"
    IDLE_BEGIN = "idle-begin"
    IDLE_END = "idle-end"


class TraceEvent(Record):
    """One event of a run: at `time`, `kind` happened to job `job`.

    job is None for IDLE_BEGIN and IDLE_END.
    """

    __slots__ = _fields = ("time", "kind", "job")

    def __init__(self, time, kind: EventKind, job: int | None = None):
        self.time = time
        self.kind = kind
        self.job = job


class SimTrace:
    """A run of a policy on an instance: its event log, and what the log implies.

    SimTrace(instance, policy, events, ctx) replays the events, and that
    replay is the one definition of a valid log, for the run simulate
    just made and for a trace file alike.  ctx is the precision the run
    computed at, the only one fileio writes it at.  completions maps each
    job id to the time of its complete event and stretches to its
    interval stretch.  segments are the maximal uninterrupted runs, as
    spans: each start followed by that job's preempt or complete, empty
    spans skipped.  busy_time is total_busy_time of the segments, and
    validate_schedule takes the trace as it takes a Schedule.  A loaded
    trace's jobs carry their windows with work 0 at unit slope: a trace
    file stores neither work nor speeds, so its segments' work is read on
    the simulated one.

    Raises ValueError, naming the rule broken, for a log no simulation
    writes; a message about one event starts with `events[i]: `.
    """

    __slots__ = (
        "instance", "policy", "events", "ctx", "completions", "stretches", "segments",
        "busy_time",
    )

    def __init__(self, instance: Instance, policy: PolicySpec, events, ctx: PrecisionContext):
        events = tuple(events)
        jobs = instance.by_id
        release, start, preempt, complete = (
            EventKind.RELEASE, EventKind.START, EventKind.PREEMPT, EventKind.COMPLETE
        )
        idle_begin, idle_end = EventKind.IDLE_BEGIN, EventKind.IDLE_END
        released = {}
        completions = {}
        segments = []
        running = run_start = last_t = None
        for i, e in enumerate(events):
            t, kind, jid = e.time, e.kind, e.job
            if kind is idle_begin or kind is idle_end:
                if jid is not None:
                    raise ValueError(f"events[{i}]: an idle event names job {jid!r}")
            # type(), not isinstance(): JSON true would pass as job 1.
            elif type(jid) is not int or jid not in jobs:
                raise ValueError(f"events[{i}]: unknown job {jid!r}")
            elif kind is release:
                if jid in released:
                    raise ValueError(f"events[{i}]: job {jid} is released twice")
                released[jid] = t
            elif jid not in released:
                raise ValueError(f"events[{i}]: job {jid} has an event before its release")
            if last_t is not None and t < last_t:
                raise ValueError(f"events[{i}]: events go backward in time")
            last_t = t
            if kind is start:
                if running is not None:
                    raise ValueError(f"events[{i}]: start while job {running} runs")
                if t < jobs[jid].release:
                    raise ValueError(f"events[{i}]: job {jid} starts before release")
                running, run_start = jid, t
            elif kind is preempt or kind is complete:
                if running == jid:
                    if run_start < t:
                        segments.append(Segment(jid, run_start, t))
                    running = None
                elif kind is preempt:
                    raise ValueError(f"events[{i}]: preempt of a job that is not running")
                if kind is complete:
                    if jid in completions:
                        raise ValueError(f"events[{i}]: job {jid} completes twice")
                    completions[jid] = t
        if running is not None:
            raise ValueError(f"trace ends while job {running} runs")
        for jid, job in jobs.items():
            if jid not in completions:
                raise ValueError(f"job {jid} never completes")
            # simulate writes a release event and its row from one number.
            if released[jid] != job.release:
                raise ValueError(
                    f"job {jid} is released at {ctx.format(released[jid])}, "
                    f"not at its row's release {ctx.format(job.release)}"
                )
        self.instance = instance
        self.policy = policy
        self.events = events
        self.ctx = ctx
        self.completions = completions
        self.stretches = {jid: stretch(jobs[jid], done) for jid, done in completions.items()}
        self.segments = tuple(segments)
        self.busy_time = total_busy_time(self)


# --- policy primitives -------------------------------------------------------


def thrashing_activation(job: Job, alpha):
    """Time at which the job's stretch-so-far reaches alpha."""
    return job.release + alpha * (job.due - job.release)


def _round_up(num, den, ctx):
    """The least number of ctx at or above num / den, for ints num and den > 0.

    ctx's numbers are doubles at 53 bits and below, and have ctx.bits
    bits above.  Past the largest double, a positive ratio rounds up to
    inf and a negative one to the most negative double.
    """
    real = ctx.real
    prec = 53 if real is float else ctx.bits
    a = -num if num < 0 else num
    # a / den * 2**shift has prec or prec + 1 bits before the point.
    shift = prec + den.bit_length() - a.bit_length()
    if real is float and shift > 1074:
        shift = 1074  # subnormal doubles are spaced 2**-1074
    q, r = divmod(a << shift, den) if shift >= 0 else divmod(a, den << -shift)
    if q >> prec:  # one bit too many: it joins the remainder
        r = r or q & 1
        q >>= 1
        shift -= 1
    m = q + (r != 0) if num > 0 else -q
    if real is float:
        try:
            return math.ldexp(m, -shift)
        except OverflowError:
            return math.inf if m > 0 else math.nextafter(-math.inf, 0)
    return real(m) * real(2) ** -shift


class StretchLines:
    """Every job's stretch line (t - release) / length, in exact integers.

    Job j's line is lines[j] = (R, L) with release = R / 2**grid and
    length = L / 2**grid exactly (core.dyadic), on the coarsest grid
    2**-grid, grid >= 0, that holds every release and length.  So the
    lines' values at a time, and their crossings, compare exactly by
    cross-multiplication.
    """

    __slots__ = ("grid", "lines")

    def __init__(self, jobs):
        parts = {jid: (dyadic(j.release), dyadic(j.length)) for jid, j in jobs.items()}
        grid = max([0] + [-e for pair in parts.values() for _, e in pair])
        self.grid = grid
        self.lines = {
            jid: (rm << (re + grid), lm << (le + grid))
            for jid, ((rm, re), (lm, le)) in parts.items()
        }

    def scaled(self, t):
        """(T, k) with t == T / 2**(grid + k) exactly and k >= 0."""
        m, e = dyadic(t)
        e += self.grid
        return (m << e, 0) if e >= 0 else (m, -e)


class SimState:
    """Every piece of policy state, behind dispatch(t) and next_event(t).

    The constructor takes only spec, jobs and ctx.  admit releases a
    job, start and preempt move the machine, and simulate updates
    `remaining` (each released unfinished job's work left) and clears
    `running` on completion.  caps maps each released job's id to its
    absolute speed cap, spec.cap(job), which is None when uncapped.
    FIFO, EDD and thrashing (the `static` policies) keep their
    candidates in `ready`, a heap of (rank, id) with a rank fixed at
    release, so a dispatch costs O(log n); completed jobs leave it
    lazily.  start keeps the running
    job's rank in `running_rank` for dispatch's tie test.  Thrashing
    holds a job in `pending`, a heap of (activation, id), until its
    activation time.

    SRPT and LSSF file every waiting job (released, unfinished, not
    running) in a bucket, a heap of ids: `buckets` maps the key (see
    `bucket_key`) of each nonempty bucket to it.  No input of a key
    changes while its job waits, so start finds the bucket by the same
    key and drops it if it empties; a preempted job is filed again
    under its new remaining work.

    Under LSSF, `stretch_lines` holds every job's exact stretch line
    (StretchLines), built once at every precision; it is None under the
    other policies.  LSSF's two decisions, the leading line at t and
    the running line's next crossing, are taken on it exactly.
    """

    __slots__ = (
        "spec", "jobs", "ctx", "remaining", "running", "running_rank", "static", "caps",
        "ready", "pending", "buckets", "stretch_lines",
    )

    def __init__(self, spec: PolicySpec, jobs: dict, ctx: PrecisionContext):
        self.spec = spec
        self.jobs = jobs
        self.ctx = ctx
        self.remaining = {}
        self.running = None
        self.running_rank = None
        self.static = spec.kind is not Policy.SRPT and spec.kind is not Policy.LSSF
        self.caps = {}
        self.ready = []
        self.pending = []
        self.buckets = {}
        self.stretch_lines = StretchLines(jobs) if spec.kind is Policy.LSSF else None

    def rank(self, job: Job):
        """Static dispatch key of FIFO, EDD and thrashing; lower runs first."""
        kind = self.spec.kind
        if kind is Policy.FIFO:
            return job.release
        if kind is Policy.EDD:
            return job.due
        return -job.release

    def bucket_key(self, jid):
        """The key of a waiting SRPT or LSSF job's bucket.

        It holds every input of the job's dispatch value.
        completion_from reads the release, base, slope, remaining
        work and cap (the job id only names it in errors); a stretch
        line reads the release and the length, due - release.  Waiting
        jobs with equal keys therefore get bit-identical values from the
        same arithmetic (the loader and the generators give every number
        of an instance the context's one scalar type).
        """
        job = self.jobs[jid]
        if self.spec.kind is Policy.LSSF:
            return job.release, job.due
        return job.release, job.base, job.slope, self.caps[jid], self.remaining[jid]

    def file(self, jid):
        """Put a waiting SRPT or LSSF job in its bucket."""
        key = self.bucket_key(jid)
        bucket = self.buckets.get(key)
        if bucket is None:
            self.buckets[key] = [jid]
        else:
            heapq.heappush(bucket, jid)

    def start(self, jid):
        """Run job jid, taking an SRPT or LSSF job out of its bucket."""
        self.running = jid
        if self.static:
            self.running_rank = self.rank(self.jobs[jid])
        else:
            # dispatch only ever picks a bucket's lowest id, its head.
            key = self.bucket_key(jid)
            bucket = self.buckets[key]
            if len(bucket) == 1:
                del self.buckets[key]
            else:
                heapq.heappop(bucket)

    def preempt(self):
        """Stop the running job; SRPT and LSSF file it again as waiting."""
        rid = self.running
        self.running = None
        if not self.static:
            self.file(rid)

    def admit(self, job: Job):
        """Release a job with work; the current time is its release."""
        jid = job.id
        self.remaining[jid] = job.work
        spec = self.spec
        self.caps[jid] = spec.cap(job)
        if spec.kind is Policy.THRASHING:
            heapq.heappush(self.pending, (thrashing_activation(job, spec.alpha), jid))
        elif self.static:
            heapq.heappush(self.ready, (self.rank(job), jid))
        else:
            self.file(jid)

    def next_crossing(self, t):
        """Earliest stretch crossing of the running job after t, or None.

        It is the least exact crossing c > t of the running job's line
        with the line of each bucket's head, rounded up to the context
        (_round_up): the members of a bucket share one line, and the
        running job sits in none.  Parallel lines never meet.  At the
        returned time the overtaking line is exactly at or above the
        running one, so dispatch takes it over there, and c > t makes
        the event a step forward.
        """
        rid = self.running
        if rid is None:
            return None
        stretch_lines = self.stretch_lines
        lines = stretch_lines.lines
        ra, la = lines[rid]
        big_t, k = stretch_lines.scaled(t)
        best_num = best_den = None
        for bucket in self.buckets.values():
            rb, lb = lines[bucket[0]]
            den = lb - la
            if not den:
                continue
            num = ra * lb - rb * la  # the lines meet at num / (den << grid)
            if den < 0:
                num, den = -num, -den
            if num << k > big_t * den and (best_num is None or num * best_den < best_num * den):
                best_num, best_den = num, den
        if best_num is None:
            return None
        return _round_up(best_num, best_den << stretch_lines.grid, self.ctx)

    def next_event(self, t):
        """The policy's own next event after dispatch(t), or None.

        That is the running job's next stretch crossing under LSSF, and
        the earliest pending activation under thrashing; FIFO, EDD and
        SRPT change their choice only at releases and completions.
        """
        if self.spec.kind is Policy.LSSF:
            return self.next_crossing(t)
        return self.pending[0][0] if self.pending else None

    def dispatch(self, t):
        """Job id the policy runs at time t, or None to idle.

        Ties prefer the currently running job, then the lowest id, except
        that the stretch-so-far rule first prefers the faster-growing
        stretch (shorter interval): at the instant two stretch lines meet,
        the steeper one is about to lead.  LSSF compares its lines exactly
        (StretchLines), so lines tie only where they meet exactly, and no
        tolerance enters.  Every key ends in the job id, so the order in
        which candidates are visited cannot change the choice.

        FIFO, EDD and thrashing read the top of the state's ready heap.
        SRPT's key (the time still needed to finish) and LSSF's stretch so
        far move with t, so they are evaluated at every event, but only
        for the running job and the lowest id of each bucket.  That is
        exact: the members of a bucket get bit-identical values, and for
        LSSF share one line, so the full tie-break key of every other
        member loses to its lowest id on the id alone.  The running job
        sits in no bucket, so it keeps its preference over any equal
        candidate, as in a scan of every released job.  Calls on one
        state must come with nondecreasing t.
        """
        running = self.running
        if self.static:
            ready, pending, remaining = self.ready, self.pending, self.remaining
            while pending and pending[0][0] <= t:
                _, jid = heapq.heappop(pending)
                heapq.heappush(ready, (self.rank(self.jobs[jid]), jid))
            while ready and ready[0][1] not in remaining:
                heapq.heappop(ready)
            if not ready:
                return None
            rank, best = ready[0]
            if running is not None and self.running_rank == rank:
                return running
            return best
        cands = [bucket[0] for bucket in self.buckets.values()]
        if running is not None:
            cands.append(running)
        if not cands:
            return None
        if self.spec.kind is Policy.SRPT:
            jobs, remaining, caps, ctx = self.jobs, self.remaining, self.caps, self.ctx

            def rpt(i):
                return completion_from(jobs[i], t, remaining[i], ctx, caps[i]) - t
            return min(cands, key=lambda i: (rpt(i), i != running, i))
        stretch_lines = self.stretch_lines
        lines = stretch_lines.lines
        big_t, k = stretch_lines.scaled(t)
        top = top_num = top_len = None
        for i in cands:
            r, length = lines[i]
            num = big_t - (r << k)  # the stretch at t is num / (length << k)
            if top is not None:
                # Its sign is that of this stretch less the top one.
                lead = num * top_len - top_num * length
                if lead < 0 or not lead and (length, i != running, i) > (
                        top_len, top != running, top):
                    continue
            top, top_num, top_len = i, num, length
        return top


# --- the simulator -----------------------------------------------------------


def simulate(instance: Instance, spec: PolicySpec, ctx: PrecisionContext) -> SimTrace:
    """Run the policy on the instance until every job completes.

    Events at one timestamp are processed completion first, then
    releases, then the dispatch change they trigger, so event times in
    the trace are nondecreasing with a deterministic order inside a
    tie.  The trace is SimTrace(instance, spec, events, ctx): its
    completions, segments, stretches and busy time come from the same
    replay of the log that load_trace runs on a file.  Raises
    SchedulingError when an event time is not finite, or when the work
    a job runs from the last event to its rounded finish time differs
    from its remaining work by more than roundoff (ctx.tolerance of its
    work), as when the finish rounds onto its start.
    """
    if not instance.jobs:
        raise ValueError("empty instance")
    # A job whose times or work are Python ints or floats runs on them in
    # ctx's numbers, so every time and figure of the run is one of ctx's.
    real = ctx.real
    order = [j if type(j.release) is type(j.due) is type(j.work) is real
             else Job(j.id, real(j.release), real(j.due), real(j.work), j.base, j.slope)
             for j in instance.jobs]
    n = len(order)
    state = SimState(spec=spec, jobs={j.id: j for j in order}, ctx=ctx)
    jobs, remaining, caps = state.jobs, state.remaining, state.caps
    dispatch, next_event, admit = state.dispatch, state.next_event, state.admit
    isfinite = ctx.isfinite
    release, start, preempt, complete = (
        EventKind.RELEASE, EventKind.START, EventKind.PREEMPT, EventKind.COMPLETE
    )
    events = []
    emit = events.append
    idx = 0
    release_at = order[0].release  # of order[idx], while idx < n
    idle = False
    t = release_at
    while True:
        while idx < n and release_at == t:
            j = order[idx]
            idx += 1
            if idx < n:
                release_at = order[idx].release
            emit(TraceEvent(t, release, j.id))
            if j.work == 0:
                emit(TraceEvent(t, complete, j.id))
            else:
                admit(j)
        if idx == n and not remaining:
            break
        # Dispatch: preempt, then idle or start, unless the choice stands.
        choice = dispatch(t)
        rid = state.running
        if choice is None or choice != rid:
            if rid is not None:
                emit(TraceEvent(t, preempt, rid))
                state.preempt()
            if choice is None:
                if not idle:
                    idle = True
                    emit(TraceEvent(t, EventKind.IDLE_BEGIN))
            else:
                if idle:
                    idle = False
                    emit(TraceEvent(t, EventKind.IDLE_END))
                emit(TraceEvent(t, start, choice))
                state.start(choice)
        # Next event: the earliest of a release, a finish and the policy's
        # own event, the first of them on a tie (as min() would pick).
        tn = release_at if idx < n else None
        rid = state.running
        if rid is not None:
            job = jobs[rid]
            cap = caps[rid]
            finish_at = completion_from(job, t, remaining[rid], ctx, cap)
            if finish_at < t:
                finish_at = t
            if tn is None or finish_at < tn:
                tn = finish_at
        own = next_event(t)
        if own is not None and (tn is None or own < tn):
            tn = own
        if tn is None:
            raise SchedulingError(
                "simulation stalled with unfinished jobs and no upcoming event"
            )
        if not isfinite(tn):
            # Every later test against a nan or inf time would fail,
            # and the loop would never end.
            raise SchedulingError(
                f"next event time {ctx.format(tn)} after t={ctx.format(t)} "
                f"is not finite at {ctx.bits} bits"
            )
        if rid is not None:
            done = work_in(job, t, tn, cap)
            if tn == finish_at:
                left = remaining[rid]
                tol = ctx.tolerance(job.work)
                if not -tol <= done - left <= tol:
                    # The rounded finish time does not fit the work left:
                    # completing would record work that never ran.
                    if tn == t:
                        how = "its finish time rounds onto its start"
                    else:
                        how = (f"the span to its rounded finish time "
                               f"{ctx.format(tn)} holds work {ctx.format(done)}")
                    raise SchedulingError(
                        f"job {rid} cannot run its remaining work "
                        f"{ctx.format(left)} from t={ctx.format(t)}: "
                        f"{how} at {ctx.bits} bits"
                    )
                state.running = None
                del remaining[rid]
                emit(TraceEvent(tn, complete, rid))
            else:
                left = remaining[rid] - done
                remaining[rid] = left if left > 0 else 0
        t = tn
    return SimTrace(instance, spec, events, ctx)


def max_stretch(trace: SimTrace):
    """Largest interval stretch over the run."""
    return max(trace.stretches.values())


def missed_due_dates(trace: SimTrace):
    """Ids of the jobs that completed after their due date, in instance order."""
    return [j.id for j in trace.instance.jobs if trace.completions[j.id] > j.due]
