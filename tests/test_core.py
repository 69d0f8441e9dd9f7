"""Unit tests for the core arithmetic.

Oracle values here were computed by hand from the defining integrals
before the implementation existed; they must not be regenerated from
package output.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampsched import (
    DOUBLE,
    Instance,
    Job,
    NeverCompletesError,
    PrecisionContext,
    Schedule,
    Segment,
    Verdict,
    completion_from,
    dyadic,
    lazy_job,
    nonlazy_job,
    speed_at,
    stretch,
    work_in,
)

CTX128 = PrecisionContext(bits=128)


# --- frozen oracles ---------------------------------------------------------


def test_speed_at_ramp():
    j = lazy_job(1, 1, 5, 2, slope=2)
    # speed = 2*(t - 1)
    assert speed_at(j, 1) == 0
    assert speed_at(j, 3) == 4
    with pytest.raises(ValueError):
        speed_at(j, 0.5)


def test_work_in_ramp():
    # integral of 2(t-1) over [1,3] is (3-1)^2 = 4; over [2,3] is 3
    j = lazy_job(1, 1, 5, 4, slope=2)
    assert work_in(j, 1, 3) == 4
    assert work_in(j, 2, 3) == 3
    assert work_in(j, 2, 2) == 0


def test_work_in_constant_speed():
    j = nonlazy_job(1, 0, 4, 3, base=1.5)
    assert work_in(j, 0, 2) == 3.0


def test_work_in_mixed_speed():
    # speed 1 + (t - 0); over [1,2]: 1 + (4-1)/2 = 2.5
    j = Job(1, 0, 4, 2.5, 1, 1)
    assert work_in(j, 1, 2) == 2.5


def test_work_in_rejects_bad_interval():
    j = lazy_job(1, 1, 5, 1)
    with pytest.raises(ValueError):
        work_in(j, 0, 2)
    with pytest.raises(ValueError):
        work_in(j, 3, 2)


def test_completion_from_quadratic():
    # (C^2 - 1)/2 = 1/2 gives C = sqrt(2)
    j = lazy_job(1, 0, 2, 1)
    c = completion_from(j, 1, 0.5, DOUBLE)
    assert c == pytest.approx(math.sqrt(2), rel=1e-15)
    c128 = completion_from(j, 1, CTX128.real("0.5"), CTX128)
    assert abs(c128 - CTX128.sqrt(2)) <= CTX128.real(2) ** -126


def test_completion_from_constant_speed():
    j = nonlazy_job(1, 0, 10, 4, base=2)
    assert completion_from(j, 1, 3, DOUBLE) == 2.5


def test_completion_from_zero_remaining_and_errors():
    j = lazy_job(1, 0, 2, 1)
    assert completion_from(j, 1.25, 0, DOUBLE) == 1.25
    with pytest.raises(ValueError):
        completion_from(j, -1, 1, DOUBLE)
    zero = Job(1, 0, 2, 0, 0, 0)
    with pytest.raises(NeverCompletesError):
        completion_from(zero, 0, 1, DOUBLE)


def test_completion_from_small_remainder_is_stable():
    # C = sqrt(start^2 + 2*rem); first-order increment rem/start.
    j = lazy_job(1, 0, 2000, 1e9)
    start = 1000.0
    rem = 1e-6
    c = completion_from(j, start, rem, DOUBLE)
    assert (c - start) == pytest.approx(1e-9, rel=1e-9)


def test_stretch_values():
    j = lazy_job(1, 0, 2, 1)
    assert stretch(j, 1.5) == 0.75
    assert stretch(j, 0) == 0
    with pytest.raises(ValueError):
        stretch(j, -0.5)


# --- construction and validation -------------------------------------------


def test_job_validation():
    with pytest.raises(ValueError, match="^job 1: release must precede due date$"):
        lazy_job(1, 2, 2, 1)  # empty window
    with pytest.raises(ValueError, match="^job 1: release must precede due date$"):
        lazy_job(1, 3, 2, 1)  # reversed window
    with pytest.raises(ValueError, match="^job 1: negative work$"):
        lazy_job(1, 0, 2, -1)
    with pytest.raises(ValueError, match="^job 1: zero speed with positive work$"):
        Job(1, 0, 2, 1, 0, 0)  # no speed, positive work
    with pytest.raises(ValueError, match="^speed coefficients must be nonnegative$"):
        Job(1, 0, 2, 1, 0, -1)
    # The coefficients are checked first, so they name a row that is also
    # bad in every other way.
    with pytest.raises(ValueError, match="^speed coefficients must be nonnegative$"):
        Job(1, 2, 2, -1, -1, 0)
    Job(1, 0, 2, 0, 0, 0)  # zero work, zero speed is fine


def test_instance_sorting_and_ids():
    a = lazy_job(2, 1, 3, 1)
    b = lazy_job(1, 0, 2, 1)
    inst = Instance((a, b))
    assert [j.id for j in inst.jobs] == [1, 2]
    assert inst.horizon == (0, 3)
    assert inst.by_id[2] is a
    with pytest.raises(ValueError, match="^duplicate job ids$"):
        Instance((a, lazy_job(2, 0, 5, 1)))


def test_segment_and_schedule_validation():
    with pytest.raises(ValueError, match="^empty or reversed segment$"):
        Segment(1, 2, 2)
    s1 = Segment(1, 1, 2)
    s0 = Segment(2, 0, 1)
    sched = Schedule((s1, s0))
    assert sched.segments[0] is s0
    assert sched.segments == (s0, s1)


def test_records_take_keywords_and_compare_by_value():
    job = Job(id=1, release=0, due=2, work=1, base=0, slope=2)
    assert job == lazy_job(1, 0, 2, 1, slope=2)
    assert hash(job) == hash(lazy_job(1, 0, 2, 1, slope=2))
    assert len({job, lazy_job(1, 0, 2, 1, slope=2)}) == 1
    assert job.length == 2
    assert job != lazy_job(1, 0, 2, 1)  # another slope
    assert job != lazy_job(1, 0, 2, 0.5, slope=2)
    assert job != (1, 0, 2, 1, 0, 2)
    assert repr(job) == "Job(id=1, release=0, due=2, work=1, base=0, slope=2)"

    inst = Instance(jobs=[lazy_job(2, 1, 3, 1), job], name="n", provenance="p")
    assert inst.jobs == (job, lazy_job(2, 1, 3, 1))  # a list is sorted into a tuple
    assert inst == Instance((lazy_job(2, 1, 3, 1), job), name="n", provenance="p")
    assert hash(inst) == hash(Instance((job, lazy_job(2, 1, 3, 1)), "n", "p"))
    assert inst != Instance(inst.jobs, name="other", provenance="p")

    seg = Segment(job=1, start=0, end=1)
    assert seg == Segment(1, 0, 1) and hash(seg) == hash(Segment(1, 0, 1))
    sched = Schedule(segments=[Segment(2, 1, 2), seg])
    assert sched == Schedule((seg, Segment(2, 1, 2)))
    assert hash(sched) == hash(Schedule((seg, Segment(2, 1, 2))))


# --- precision context ------------------------------------------------------


def test_compare_three_way():
    ctx = CTX128
    assert ctx.compare(1, 1) is Verdict.EQUAL
    assert ctx.compare(1, 2) is Verdict.LESS
    assert ctx.compare(2, 1) is Verdict.GREATER
    eps = ctx.real(2) ** -120
    assert ctx.compare(1, 1 + eps) is Verdict.INDETERMINATE
    # well above tolerance (2^-112) resolves
    assert ctx.compare(1, 1 + ctx.real(2) ** -100) is Verdict.LESS


def test_compare_uses_relative_tolerance():
    ctx = PrecisionContext(bits=53)
    big = 1e12
    assert ctx.compare(big, big * (1 + 1e-13)) is Verdict.INDETERMINATE
    assert ctx.compare(big, big * 1.01) is Verdict.LESS


@pytest.mark.parametrize("bits", [24, 53, 64, 128])
def test_tolerance_follows_the_precision(bits):
    assert PrecisionContext(bits).rel_tol == 2 ** -(bits - 16)


def test_context_isolation():
    a = PrecisionContext(bits=64)
    b = PrecisionContext(bits=256)
    ra = a.sqrt(2)
    rb = b.sqrt(2)
    # each is correct at its own precision
    assert abs(ra * ra - 2) < a.real(2) ** -60
    assert abs(rb * rb - 2) < b.real(2) ** -250
    # arithmetic on one context's values keeps its precision
    third = b.real(1) / 3
    assert abs(3 * third - 1) < b.real(2) ** -250


def test_context_rejects_tiny_precision():
    with pytest.raises(ValueError):
        PrecisionContext(bits=8)


def test_format_parse_roundtrip_examples():
    ctx = CTX128
    for v in [ctx.sqrt(2), ctx.real(1) / 3, ctx.real("26.984375"), ctx.real(-1)]:
        assert ctx.parse(ctx.format(v)) == v
    d = DOUBLE
    for v in [0.1, math.sqrt(2), -1.0, 26.984375]:
        assert d.parse(d.format(v)) == v
    with pytest.raises(ValueError):
        ctx.parse("inf")


def test_parse_all_reads_exactly_what_parse_reads():
    alphabet = "0123456789.eE+-_ infa\t٣"
    for ctx in (DOUBLE, CTX128):
        rng = random.Random(5)
        for _ in range(3000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
            try:
                expected = [ctx.parse(text)]
            except ValueError:
                expected = None
            assert ctx.parse_all([text]) == expected, (ctx, text)
            # A bad literal among good ones fails the whole list.
            assert ctx.parse_all(["1", text, "2"]) == (expected and [1.0, *expected, 2.0]), text
        assert ctx.parse_all(["1", 2]) is None
    assert DOUBLE.parse_all(["1", "1e400"]) is None
    # Above 53 bits every finite literal reads, in one pass like any other.
    assert CTX128.parse_all(["1", "1e400"]) == [1, CTX128.parse("1e400")]


# --- properties -------------------------------------------------------------

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
pos = st.floats(min_value=0.01, max_value=50, allow_nan=False)


@given(r=finite, m=pos, base=st.floats(min_value=0, max_value=5), da=pos, db=pos, dc=pos)
def test_work_additivity(r, m, base, da, db, dc):
    j = Job(1, r, r + da + db + dc + 1, 1, base, m)
    a, b, c = r + da, r + da + db, r + da + db + dc
    lhs = work_in(j, a, c)
    rhs = work_in(j, a, b) + work_in(j, b, c)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(r=finite, m=pos, base=st.floats(min_value=0, max_value=5), da=pos, db=pos)
def test_completion_inverts_work(r, m, base, da, db):
    j = Job(1, r, r + da + db + 1, 1, base, m)
    a, b = r + da, r + da + db
    w = work_in(j, a, b)
    assert completion_from(j, a, w, DOUBLE) == pytest.approx(b, rel=1e-9, abs=1e-9)


@given(r=finite, m=pos, da=pos, db=pos, dc=pos)
def test_work_monotone_in_endpoint(r, m, da, db, dc):
    j = lazy_job(1, r, r + da + db + dc + 1, 1, slope=m)
    a, b, c = r + da, r + da + db, r + da + db + dc
    assert work_in(j, a, b) < work_in(j, a, c)


@given(r=finite, m=pos, d1=pos, d2=pos, width=pos)
def test_later_windows_absorb_more_work(r, m, d1, d2, width):
    j = lazy_job(1, r, r + d1 + d2 + width + 1, 1, slope=m)
    early = work_in(j, r + d1, r + d1 + width)
    late = work_in(j, r + d1 + d2, r + d1 + d2 + width)
    assert late >= early


@given(r=finite, m=pos, da=pos, w=pos)
def test_normalized_job_completes_at_same_time(r, m, da, w):
    j = lazy_job(1, r, r + da + 100, w, slope=m)
    nj = lazy_job(1, r, r + da + 100, w / m)
    a = r + da
    c1 = completion_from(j, a, w, DOUBLE)
    c2 = completion_from(nj, a, w / m, DOUBLE)
    assert c1 == pytest.approx(c2, rel=1e-12)


@given(a=finite, b=finite)
def test_compare_antisymmetric(a, b):
    ctx = DOUBLE
    fwd = ctx.compare(a, b)
    rev = ctx.compare(b, a)
    flip = {
        Verdict.LESS: Verdict.GREATER,
        Verdict.GREATER: Verdict.LESS,
        Verdict.EQUAL: Verdict.EQUAL,
        Verdict.INDETERMINATE: Verdict.INDETERMINATE,
    }
    assert rev is flip[fwd]


@settings(max_examples=50)
@given(x=st.integers(min_value=2, max_value=10**6))
def test_format_parse_roundtrip_surds(x):
    ctx = CTX128
    v = ctx.sqrt(x)
    assert ctx.parse(ctx.format(v)) == v


def test_dyadic_is_exact_for_every_scalar_type():
    from fractions import Fraction

    for v in (0, -7, 3 * 2**70, 0.1, -2.5e-300, 5e300):
        m, e = dyadic(v)
        assert Fraction(m) * Fraction(2) ** e == Fraction(v)
    x = CTX128.sqrt(2)
    for v in (x, -x, x * 2**-500, CTX128.real(0)):
        m, e = dyadic(v)
        assert abs(m) < 2**128 and CTX128.real(m) * CTX128.real(2) ** e == v
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            dyadic(bad)
    # Above 53 bits no scalar is non-finite: the values that would be are refused.
    for bad in ("inf", "nan", float("inf"), float("nan")):
        with pytest.raises(ValueError):
            CTX128.real(bad)
    with pytest.raises(TypeError):
        dyadic("1")
