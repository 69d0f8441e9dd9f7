"""Core types and arithmetic for scheduling jobs with ramping speeds.

A job released at time r with speed slope m executes at speed m*(t - r)
at time t >= r, so the work it absorbs over an interval is a quadratic
expression and completion times come from quadratic solves.  Feasibility
questions built on these quantities can hinge on comparing sums of
square roots, which no fixed floating-point format can decide in
general.  Every comparison that matters therefore goes through a
PrecisionContext, which carries a working precision and returns an
honest Indeterminate verdict when two values agree to within tolerance
without being exactly equal.
"""

from __future__ import annotations

import enum
import math


class SchedulingError(Exception):
    """Base class for domain errors raised by this package."""


class UnsupportedInstanceError(SchedulingError):
    """Instance shape outside what the requested algorithm handles."""


class NeverCompletesError(SchedulingError):
    """The job's speed is zero forever, so positive work never finishes."""


class InfeasibleIntervalError(SchedulingError):
    """An interval too short to hold the requested amount of work."""


class Verdict(enum.Enum):
    """Outcome of a tolerance-aware comparison."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INDETERMINATE = "indeterminate"


class PrecisionContext:
    """Working precision, which also fixes the comparison tolerance.

    bits <= 53 uses plain Python floats (fast path); anything above
    gets a private mpmath context so two PrecisionContexts never
    interfere with each other or with mpmath's global state.

    rel_tol is 2**-(bits - 16): sixteen bits of headroom below the
    format, so honest roundoff lands in Indeterminate instead of
    flipping a verdict.  More bits are the only way to resolve an
    Indeterminate verdict.
    """

    __slots__ = (
        "bits", "rel_tol", "decimal_digits", "_mp", "_sqrt", "real", "isfinite"
    )

    def __init__(self, bits: int = 128):
        bits = int(bits)
        if bits < 24:
            raise ValueError("precision below 24 bits leaves no room for tolerances")
        self.bits = bits
        # real converts x (int, float, str, mpf) to this context's scalar type.
        if bits <= 53:
            self._mp = None
            self._sqrt = math.sqrt
            self.real = float
            self.isfinite = math.isfinite
        else:
            # Imported here so double-precision runs never load mpmath.
            from mpmath.ctx_mp import MPContext

            mp = MPContext()
            mp.prec = bits
            self._mp = mp
            self._sqrt = mp.sqrt
            self.real = mp.mpf
            self.isfinite = mp.isfinite
        self.rel_tol = self.real(2) ** -(bits - 16)
        # Digits needed for a faithful decimal round trip at this precision.
        self.decimal_digits = math.ceil(bits * math.log10(2)) + 2

    def __repr__(self):
        return f"PrecisionContext(bits={self.bits})"

    def sqrt(self, x):
        if x < 0:
            raise ValueError(f"sqrt of negative value {x}")
        return self._sqrt(x)

    def compare(self, a, b) -> Verdict:
        """Compare a and b at this precision.

        EQUAL means the difference is exactly zero as represented;
        INDETERMINATE means it is nonzero but within tolerance, i.e.
        this precision cannot tell the values apart reliably.
        """
        d = a - b
        if d == 0:
            return Verdict.EQUAL
        tol = self.tolerance(max(abs(a), abs(b)))
        if -tol <= d <= tol:
            return Verdict.INDETERMINATE
        return Verdict.LESS if d < 0 else Verdict.GREATER

    def tolerance(self, scale):
        """Largest difference compare() calls indeterminate at this magnitude.

        rel_tol doubles as the absolute floor for values near zero.
        """
        return self.rel_tol * scale if scale > 1 else self.rel_tol

    def close(self, a, b) -> bool:
        """True when a and b are equal or within tolerance."""
        return self.compare(a, b) in (Verdict.EQUAL, Verdict.INDETERMINATE)

    def format(self, x) -> str:
        """Decimal string that parses back to exactly x at this precision."""
        if self._mp is None:
            return repr(float(x))
        return self._mp.nstr(self._mp.mpf(x), self.decimal_digits, strip_zeros=True)

    def parse(self, s):
        """Finite scalar from a decimal string (or any value real() takes)."""
        v = self.real(s)
        if not self.isfinite(v):
            raise ValueError(f"non-finite numeric literal {s!r}")
        return v


DOUBLE = PrecisionContext(bits=53)


def dyadic(x):
    """(mantissa, exponent) of ints with x == mantissa * 2**exponent, exactly.

    Every rampsched scalar is a dyadic rational: an int, a float, or an
    mpf, whose public man_exp drops the sign, so the sign is read from
    the same (sign, man, exp, bc) tuple.  Exact tests on the inputs
    (crossings, stretch orders) start here.  Raises ValueError for a
    non-finite value and TypeError for any other type.
    """
    if isinstance(x, int):
        return x, 0
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {x}")
        num, den = x.as_integer_ratio()
        return num, 1 - den.bit_length()
    try:
        sign, man, exp, _ = x._mpf_
    except AttributeError:
        raise TypeError(f"not a rampsched scalar: {x!r}") from None
    if not man and exp:  # mpmath's encoding of inf and nan
        raise ValueError(f"non-finite value {x}")
    return (-man if sign else man), exp


class Policy(enum.Enum):
    """The online dispatch rules that `online.simulate` runs.

    Defined here, not in `online`, so that the CLI can list its
    --policy choices without loading the simulator.
    """

    FIFO = "fifo"
    EDD = "edd"
    SRPT = "srpt"
    LSSF = "lssf"
    THRASHING = "thrashing"


class Record:
    """Value equality, hashing and repr over a class's `_fields`.

    Records are plain __slots__ classes with an explicit __init__, not
    dataclasses: importing dataclasses loads inspect, ast and dis, a
    cost every CLI call would pay, and these records are built in hot
    loops.  Fields are never assigned after __init__, which the hash
    relies on.  Two records are equal when they are of one class and
    their _fields are equal; derived fields, such as Job.length, take
    no part.
    """

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"


class SpeedFunction(Record):
    """Execution speed base + slope*(t - r) for t >= r, the job's release."""

    __slots__ = _fields = ("base", "slope")

    def __init__(self, base, slope):
        if base < 0 or slope < 0:
            raise ValueError("speed coefficients must be nonnegative")
        self.base = base
        self.slope = slope


class Job(Record):
    """One preemptible job: a work amount due inside [release, due].

    length is due - release, computed once: every stretch divides by it.
    """

    _fields = ("id", "release", "due", "work", "speed")
    __slots__ = _fields + ("length",)

    def __init__(self, id: int, release, due, work, speed: SpeedFunction):
        if not release < due:
            raise ValueError(f"job {id}: release must precede due date")
        if work < 0:
            raise ValueError(f"job {id}: negative work")
        if speed.base == 0 and speed.slope == 0 and work != 0:
            raise ValueError(f"job {id}: zero speed with positive work")
        self.id = id
        self.release = release
        self.due = due
        self.work = work
        self.speed = speed
        self.length = due - release

    @property
    def is_lazy(self) -> bool:
        """Pure ramp: speed zero at release, growing linearly."""
        return self.speed.base == 0 and self.speed.slope > 0


def lazy_job(id: int, release, due, work, slope=1) -> Job:
    return Job(id, release, due, work, SpeedFunction(0, slope))


def nonlazy_job(id: int, release, due, work, base=1) -> Job:
    return Job(id, release, due, work, SpeedFunction(base, 0))


class Instance(Record):
    """A set of jobs, kept sorted by (release, id), with a read-only id index."""

    _fields = ("jobs", "name", "provenance")
    __slots__ = _fields + ("by_id",)

    def __init__(self, jobs, name: str = "", provenance: str = ""):
        jobs = tuple(sorted(jobs, key=lambda j: (j.release, j.id)))
        by_id = {j.id: j for j in jobs}
        if len(by_id) != len(jobs):
            raise ValueError("duplicate job ids")
        self.jobs = jobs
        self.name = name
        self.provenance = provenance
        self.by_id = by_id

    @property
    def horizon(self):
        """(earliest release, latest due date)."""
        return (
            min(j.release for j in self.jobs),
            max(j.due for j in self.jobs),
        )


class Segment(Record):
    """Uninterrupted run of one job over [start, end]."""

    __slots__ = _fields = ("job", "start", "end", "work_done")

    def __init__(self, job: int, start, end, work_done):
        if not start < end:
            raise ValueError("empty or reversed segment")
        self.job = job
        self.start = start
        self.end = end
        self.work_done = work_done

    @property
    def length(self):
        return self.end - self.start


class Schedule(Record):
    """Non-overlapping segments, sorted by start time."""

    __slots__ = _fields = ("segments",)

    def __init__(self, segments):
        self.segments = tuple(sorted(segments, key=lambda s: (s.start, s.job)))


def total_busy_time(schedule):
    """Sum of the segment lengths of a Schedule or SimTrace, in order."""
    total = 0
    for s in schedule.segments:
        total = total + s.length
    return total


def speed_at(job: Job, t):
    """Instantaneous speed of job at time t (t >= release)."""
    if t < job.release:
        raise ValueError(f"job {job.id} queried before its release")
    sp = job.speed
    return sp.base + sp.slope * (t - job.release)


def work_in(job: Job, a, b, cap=None):
    """Work executed if job runs continuously over [a, b].

    Integral of the speed function; for a pure ramp this is the
    trapezoid slope*((b-r)^2 - (a-r)^2)/2.  Requires release <= a <= b.
    cap, when given, clips the speed at that absolute value: a ramp
    runs at the cap from the time it reaches it.
    """
    if b < a:
        raise ValueError("reversed interval")
    if a < job.release:
        raise ValueError(f"job {job.id}: interval starts before release")
    sp = job.speed
    if cap is not None:
        if sp.slope == 0:
            return min(sp.base, cap) * (b - a)
        reach = job.release + (cap - sp.base) / sp.slope
        if reach <= a:
            return cap * (b - a)
        if reach < b:
            return work_in(job, a, reach) + cap * (b - reach)
    u = a - job.release
    v = b - job.release
    return sp.base * (b - a) + sp.slope * (v * v - u * u) / 2


def completion_from(job: Job, start, remaining, ctx: PrecisionContext, cap=None):
    """Earliest time the job finishes `remaining` work running from `start`.

    Solves work_in(job, start, t, cap) = remaining for t, using the root
    form that avoids cancellation for small remainders.
    """
    if start < job.release:
        raise ValueError(f"job {job.id}: start before release")
    if remaining < 0:
        raise ValueError("negative remaining work")
    if remaining == 0:
        return start
    sp = job.speed
    if sp.slope == 0:
        rate = sp.base if cap is None else min(sp.base, cap)
        if rate == 0:
            raise NeverCompletesError(f"job {job.id} has zero speed forever")
        return start + remaining / rate
    if cap is not None:
        reach = job.release + (cap - sp.base) / sp.slope
        if start >= reach:
            return start + remaining / cap
        ramp_room = work_in(job, start, reach)
        if remaining > ramp_room:
            return reach + (remaining - ramp_room) / cap
    u0 = start - job.release
    # Work from the release to the unknown finish time.
    c = remaining + sp.base * u0 + sp.slope * u0 * u0 / 2
    disc = sp.base * sp.base + 2 * sp.slope * c
    u = 2 * c / (sp.base + ctx.sqrt(disc))
    return job.release + u


def stretch(job: Job, completion):
    """Interval stretch (completion - release)/(due - release)."""
    if completion < job.release:
        raise ValueError("completion before release")
    return (completion - job.release) / job.length
