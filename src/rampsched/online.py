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

Above double precision, LSSF screens both of its decisions in exact
integers first (see StretchScreen).  Every input is dyadic, so each
stretch line (t - release)/length is exact on a common 2**-grid, and a
bound on the rounding of `stretch` and `lssf_crossing` tells which of
their results can matter.  Those two rounded functions still take every
decision, with the same arguments, on a superset of the candidates
that can affect it, so traces are bit-identical to an unscreened run;
the screen only skips evaluations whose outcome the bound settles.
At 53 bits and below nothing is screened.
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


class StretchScreen:
    """Every job's stretch line in exact integers, for LSSF above 53 bits.

    Job j's line is held as (R, L) with release = R / 2**grid and
    length = L / 2**grid, so stretches and crossings compare exactly by
    cross-multiplication.  `stretch` and `lssf_crossing` round each of
    their (at most five) operations to at least `bits` bits, the
    smallest precision among the context and the inputs (53 for an int
    or a float, whose division gives a float; float results are assumed
    normal, neither subnormal nor overflowing).  With u = 2**-bits:

    - A computed stretch lies within a factor (1 ± 3u) of the exact
      one, so a candidate whose exact stretch is below the exact top E
      by more than (rel_tol + 8u)·max(E, 1) is neither the computed
      maximum nor inside its tolerance tie (`near_top`).
    - A computed crossing lies within 4u·(|r_a·l_b| + |r_b·l_a| +
      |numerator|)/|l_b - l_a| of the exact one, which covers the
      cancellation of nearly parallel lines (`crossing_entries`).
    """

    __slots__ = ("grid", "bits", "lines", "tie_num", "tie_shift", "cross_shift")

    def __init__(self, jobs, ctx):
        parts = {jid: (dyadic(j.release), dyadic(j.length)) for jid, j in jobs.items()}
        grid = max((-e for pair in parts.values() for _, e in pair), default=0)
        self.grid = grid
        self.lines = {
            jid: (rm << (re + grid), lm << (le + grid))
            for jid, ((rm, re), (lm, le)) in parts.items()
        }
        bits = ctx.bits
        for job in jobs.values():
            for x in (job.release, job.length):
                bits = min(bits, getattr(x, "prec", 53))  # a BinFloat's precision
        self.bits = bits
        # Tie window plus stretch rounding, rel_tol + 2**-(bits-3), as
        # tie_num / 2**tie_shift.
        rm, re = dyadic(ctx.rel_tol)
        shift = max(-re, bits - 3)
        self.tie_num = (rm << (re + shift)) + (1 << (shift - bits + 3))
        self.tie_shift = shift
        self.cross_shift = bits - 2  # crossing rounding: 4u = 2**-(bits-2)

    def scaled(self, t):
        """(T, k) with t == T / 2**(grid + k) exactly and k >= 0."""
        m, e = dyadic(t)
        e += self.grid
        return (m << e, 0) if e >= 0 else (m, -e)

    def near_top(self, cands, t):
        """The candidates whose computed stretch at t may be the top or tie it.

        Every other candidate's exact stretch is below the exact
        maximum E by more than the tie window plus the rounding bound,
        so SimState.dispatch's choice over the rest is the same choice.
        """
        if len(cands) < 2:
            return cands
        big_t, k = self.scaled(t)
        lines = self.lines
        rows = []
        top_n, top_l = -1, 1  # stretches are >= 0, so any row beats this
        for i in cands:
            r, length = lines[i]
            num = big_t - (r << k)  # stretch = num / (length << k)
            rows.append((num, length, i))
            if num * top_l > top_n * length:
                top_n, top_l = num, length
        shift = self.tie_shift
        # stretch >= E - c·max(E, 1), times length·top_l·2**(k + shift):
        floor = (top_n << shift) - self.tie_num * max(top_n, top_l << k)
        return [i for num, length, i in rows if (num * top_l) << shift >= length * floor]

    def key(self, x):
        """floor(x * 2**(grid + bits)): the integer unit of crossing keys."""
        m, e = dyadic(x)
        e += self.grid + self.bits
        return m << e if e >= 0 else m >> -e

    def crossing_entries(self, rid, jids, now):
        """(bound, jid) for the crossing of job rid's line with each of jids'.

        bound is at most key() of lssf_crossing(rid's job, jid's job,
        now).  No pair is made where that call would return None: the
        lines are parallel, or the crossing plus its rounding bound is
        at or before now.
        """
        lines, shift, bits = self.lines, self.cross_shift, self.bits
        ra, la = lines[rid]
        big_now, k = self.scaled(now)
        out = []
        for jid in jids:
            rb, lb = lines[jid]
            den = lb - la
            if not den:
                continue
            p, q = ra * lb, rb * la
            num = p - q  # crossing = num / (den << grid)
            spread = abs(p) + abs(q) + abs(num)  # rounding <= spread / 2**shift, same units
            if den < 0:
                num, den = -num, -den
            num <<= shift
            den <<= shift
            if (num + spread) << k <= big_now * den:
                continue
            # floor((crossing - bound) * 2**(grid + bits))
            out.append((((num - spread) << bits) // den, jid))
        return out


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

    Above 53 bits, `screen` holds every job's exact stretch line, and
    its invariant is that a skipped evaluation cannot change the trace:
    dispatch evaluates only the stretches near the top, and
    next_crossing only the crossings whose integer lower bound can
    still be the earliest.  The screen is chosen by the precision
    because it pays only where a rounded evaluation is dear: screening
    at 53 bits as well made LSSF runs 1.5-3x slower, while dropping the
    screen at 128 bits made the 800-job cascade 4.5-7x slower, and each
    of its halves (near_top and the crossing bounds) carries part of
    that gain (figures in CHANGES.md).
    """

    __slots__ = (
        "spec", "jobs", "ctx", "remaining", "running", "running_rank", "static", "caps",
        "ready", "pending", "buckets", "screen",
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
        self.screen = (
            StretchScreen(jobs, ctx) if spec.kind is Policy.LSSF and ctx.bits > 53 else None
        )

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
        work and cap (the job id only names it in errors); stretch
        reads the release and the due date.  Waiting jobs with equal
        keys therefore get bit-identical values from the same
        arithmetic (the loader and the generators give every number of
        an instance the context's one scalar type).
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

        It is the least lssf_crossing of the running job with the head of
        each bucket: the members of a bucket share one stretch line, and
        the running job sits in none.  Of equal crossings the lowest head
        id's is taken, which settles 0.0 against -0.0.  Above 53 bits,
        the heads are visited in the order of their crossings' integer
        lower bounds (StretchScreen.crossing_entries), and the visit stops
        at the first bound past the key of the least crossing found: each
        bound is at most its crossing's key, and keys grow with crossings.
        """
        rid = self.running
        if rid is None:
            return None
        jobs, screen = self.jobs, self.screen
        job = jobs[rid]
        heads = [bucket[0] for bucket in self.buckets.values()]
        best = None  # (crossing, head id)
        if screen is None:
            for jid in heads:
                cross = lssf_crossing(job, jobs[jid], t)
                if cross is not None and (best is None or (cross, jid) < best):
                    best = cross, jid
        else:
            for bound, jid in sorted(screen.crossing_entries(rid, heads, t)):
                if best is not None and bound > best_key:
                    break
                cross = lssf_crossing(job, jobs[jid], t)
                if cross is not None and (best is None or (cross, jid) < best):
                    best = cross, jid
                    best_key = screen.key(cross)
        return None if best is None else best[0]

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
        candidate, as in a scan of every released job.  Above 53 bits, LSSF
        first drops every candidate whose exact stretch is further below
        the exact maximum than the tie window plus the rounding bound of
        `stretch` (StretchScreen.near_top); such a candidate can be neither
        the computed maximum nor tied with it, so the choice is unchanged.
        Calls on one state must come with nondecreasing t.
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
        jobs = self.jobs
        if self.spec.kind is Policy.SRPT:
            remaining, caps, ctx = self.remaining, self.caps, self.ctx

            def rpt(i):
                return completion_from(jobs[i], t, remaining[i], ctx, caps[i]) - t
            return min(cands, key=lambda i: (rpt(i), i != running, i))
        if self.screen is not None:
            cands = self.screen.near_top(cands, t)
        so_far = [stretch(jobs[i], t) for i in cands]
        top = max(so_far)
        # Stretches are nonnegative, so this is self.ctx.close(s, top).
        least = -self.ctx.tolerance(top)
        tied = [i for i, s in zip(cands, so_far) if s == top or s - top >= least]
        return min(tied, key=lambda i: (jobs[i].length, i != running, i))


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
