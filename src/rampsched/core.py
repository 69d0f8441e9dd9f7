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


_NON_FINITE = frozenset(("inf", "infinity", "nan"))


def literal_error(text) -> ValueError:
    """The error for a string outside the numeric literal grammar.

    A numeric literal, in a file or an option, at every precision, is
    an optional sign, ASCII digits with an optional fraction, and an
    optional exponent: `binfloat.LITERAL`.
    """
    if text.lower().lstrip("+-") in _NON_FINITE:
        return ValueError(f"non-finite numeric literal {text!r}")
    return ValueError(f"could not convert string to float: {text!r}")


def retry_hint(bits) -> str:
    """The advice that ends every message naming a precision to rerun at."""
    return f"retry with --precision {bits}"


def _float_only(text) -> bool:
    """True for a string outside the literal grammar that float() may read.

    float() also takes other scripts' digits, underscores between
    digits and surrounding whitespace (inf and nan are left to a
    finiteness test).  Whitespace anywhere counts, so a concatenation
    of literals fails the test when one of them does.  No regular
    expression is needed, so 53-bit runs compile none.
    """
    return not text.isascii() or "_" in text or text.split() != [text]


class PrecisionContext:
    """Working precision, which also fixes the comparison tolerance.

    bits <= 53 uses plain Python floats (fast path); anything above
    uses `binfloat.binary_type(bits)`, exact ints rounded to nearest at
    bits after every operation, so a context's values carry their
    precision with them and contexts never share state.  The binfloat
    module loads only when such a context is made.

    rel_tol is 2**-(bits - 16): sixteen bits of headroom below the
    format, so honest roundoff lands in Indeterminate instead of
    flipping a verdict.  More bits are the only way to resolve an
    Indeterminate verdict.
    """

    __slots__ = ("bits", "rel_tol", "decimal_digits", "_sqrt", "real", "isfinite")

    def __init__(self, bits: int = 128):
        bits = int(bits)
        if bits < 24:
            raise ValueError("precision below 24 bits leaves no room for tolerances")
        self.bits = bits
        # real converts x (int, float, decimal str or scalar) to this context's type.
        if bits <= 53:
            self._sqrt = math.sqrt
            self.real = float
            self.isfinite = math.isfinite
        else:
            from .binfloat import binary_type, isfinite

            self.real = binary_type(bits)
            self._sqrt = self.real.sqrt
            self.isfinite = isfinite
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
        if self.bits <= 53:
            return repr(float(x))
        return self.real(x).to_str(self.decimal_digits)

    def parse(self, s):
        """Finite scalar from a numeric literal (or any value real() takes).

        Raises ValueError for any other string, with the same message
        at every precision.  A literal beyond a double's range, which
        float() reads as inf, is out of range at 53 bits and below; the
        error names a precision above 53, where every literal is finite.
        """
        if self.real is float and isinstance(s, str) and _float_only(s):
            raise literal_error(s)
        v = self.real(s)
        if not self.isfinite(v):
            if isinstance(s, str) and s.lower().lstrip("+-") not in _NON_FINITE:
                raise ValueError(
                    f"numeric literal {s!r} is out of range at {self.bits} bits; "
                    + retry_hint(max(2 * self.bits, 64))
                )
            raise ValueError(f"non-finite numeric literal {s!r}")
        return v

    def parse_all(self, texts):
        """parse() of every string in the list texts, or None.

        The list is read in one pass at every precision: real() reads
        each literal and one test checks that all are finite; at 53 bits
        and below, parse()'s screen runs once on the joined text.  None
        exactly where parse() would raise for some value, or when a
        value is not a string; parse() on each value then tells which
        one failed and why.
        """
        try:
            joined = "".join(texts)  # TypeError for a non-string
            if self.real is float and _float_only(joined):
                return None
            values = list(map(self.real, texts))
        except (TypeError, ValueError, ArithmeticError):
            return None
        return values if all(map(self.isfinite, values)) else None


DOUBLE = PrecisionContext(bits=53)


def dyadic(x):
    """(mantissa, exponent) of ints with x == mantissa * 2**exponent, exactly.

    Every rampsched scalar is a dyadic rational: an int, a float, or a
    binfloat.BinFloat, which stores the pair itself (the mantissa odd,
    or 0 with exponent 0), and has no non-finite values.  Exact tests
    on the inputs (crossings, stretch orders) start here.  Raises
    ValueError for a non-finite float and TypeError for any other type.
    """
    if isinstance(x, int):
        return x, 0
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {x}")
        num, den = x.as_integer_ratio()
        return num, 1 - den.bit_length()
    try:
        return x.man, x.exp
    except AttributeError:
        raise TypeError(f"not a rampsched scalar: {x!r}") from None


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


class Job(Record):
    """One preemptible job: a work amount due inside [release, due].

    It runs at speed base + slope*(t - release) for t >= release; the
    fields are exactly an instance file's job row.  length is
    due - release, computed once: every stretch divides by it.
    """

    _fields = ("id", "release", "due", "work", "base", "slope")
    __slots__ = _fields + ("length",)

    def __init__(self, id: int, release, due, work, base, slope):
        if base < 0 or slope < 0:
            raise ValueError("speed coefficients must be nonnegative")
        if not release < due:
            raise ValueError(f"job {id}: release must precede due date")
        if work < 0:
            raise ValueError(f"job {id}: negative work")
        if base == 0 and slope == 0 and work != 0:
            raise ValueError(f"job {id}: zero speed with positive work")
        self.id = id
        self.release = release
        self.due = due
        self.work = work
        self.base = base
        self.slope = slope
        self.length = due - release

    @property
    def is_lazy(self) -> bool:
        """Pure ramp: speed zero at release, growing linearly."""
        return self.base == 0 and self.slope > 0


def lazy_job(id: int, release, due, work, slope=1) -> Job:
    return Job(id, release, due, work, 0, slope)


def nonlazy_job(id: int, release, due, work, base=1) -> Job:
    return Job(id, release, due, work, base, 0)


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
    """Uninterrupted run of one job over [start, end].

    A segment is its span: the work run in it is work_in(job, start, end),
    computed where it is read.
    """

    __slots__ = _fields = ("job", "start", "end")

    def __init__(self, job: int, start, end):
        if not start < end:
            raise ValueError("empty or reversed segment")
        self.job = job
        self.start = start
        self.end = end

    @property
    def length(self):
        return self.end - self.start


class Schedule(Record):
    """Non-overlapping segments, sorted by start time."""

    __slots__ = _fields = ("segments",)

    def __init__(self, segments):
        self.segments = tuple(sorted(segments, key=lambda s: (s.start, s.job)))


def total_busy_time(schedule, until=None):
    """Sum of the segment lengths of a Schedule or SimTrace, in order.

    With until, each segment counts only up to that time.
    """
    total = 0
    for s in schedule.segments:
        if until is None:
            total = total + s.length
        elif s.start < until:
            total = total + ((s.end if s.end < until else until) - s.start)
    return total


def speed_at(job: Job, t):
    """Instantaneous speed of job at time t (t >= release)."""
    if t < job.release:
        raise ValueError(f"job {job.id} queried before its release")
    return job.base + job.slope * (t - job.release)


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
    if cap is not None:
        if job.slope == 0:
            return min(job.base, cap) * (b - a)
        reach = job.release + (cap - job.base) / job.slope
        if reach <= a:
            return cap * (b - a)
        if reach < b:
            return work_in(job, a, reach) + cap * (b - reach)
    u = a - job.release
    v = b - job.release
    return job.base * (b - a) + job.slope * (v * v - u * u) / 2


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
    if job.slope == 0:
        rate = job.base if cap is None else min(job.base, cap)
        if rate == 0:
            raise NeverCompletesError(f"job {job.id} has zero speed forever")
        return start + remaining / rate
    if cap is not None:
        reach = job.release + (cap - job.base) / job.slope
        if start >= reach:
            return start + remaining / cap
        ramp_room = work_in(job, start, reach)
        if remaining > ramp_room:
            return reach + (remaining - ramp_room) / cap
    u0 = start - job.release
    # Work from the release to the unknown finish time.
    c = remaining + job.base * u0 + job.slope * u0 * u0 / 2
    disc = job.base * job.base + 2 * job.slope * c
    u = 2 * c / (job.base + ctx.sqrt(disc))
    return job.release + u


def stretch(job: Job, completion):
    """Interval stretch (completion - release)/(due - release)."""
    if completion < job.release:
        raise ValueError("completion before release")
    return (completion - job.release) / job.length
