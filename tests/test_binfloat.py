"""The binary scalar against mpmath, its reference, and its own edge cases."""

import math
import operator
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from rampsched.binfloat import BinFloat, binary_type
from rampsched.core import PrecisionContext

mpmath = pytest.importorskip("mpmath")

PRECISIONS = (64, 113, 128, 200, 256)


def _pair(y):
    """(man, exp) of a finite mpf, with the sign on the mantissa."""
    sign, man, exp, _ = y._mpf_
    return (-man if sign else man), exp


def _same(x, y):
    return (x.man, x.exp) == (_pair(y) if y else (0, 0))


def _operand(rng):
    """An int, a float or a decimal string, over many magnitudes."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-(10**40), 10**40)
    if kind == 1:
        return rng.randint(-5, 5)
    if kind == 2:
        return math.ldexp(rng.random() - 0.5, rng.randint(-80, 80))
    if kind == 3:
        return repr(rng.uniform(-1000, 1000))
    return f"{rng.randint(-10**30, 10**30)}e{rng.randint(-60, 60)}"


@pytest.mark.parametrize("bits", PRECISIONS)
def test_arithmetic_matches_mpmath_bit_for_bit(bits):
    ctx = PrecisionContext(bits)
    mp = mpmath.mp.clone()
    mp.prec = bits
    rng = random.Random(bits)
    pool = [(ctx.real(v), mp.mpf(v)) for v in (_operand(rng) for _ in range(60))]
    for _ in range(1500):
        (x1, y1), (x2, y2) = rng.choice(pool), rng.choice(pool)
        op = rng.randrange(6)
        if op == 0:
            x, y = x1 + x2, y1 + y2
        elif op == 1:
            x, y = x1 - x2, y1 - y2
        elif op == 2:
            x, y = x1 * x2, y1 * y2
        elif op == 3:
            if not x2:
                continue
            x, y = x1 / x2, y1 / y2
        elif op == 4:
            x, y = ctx.sqrt(abs(x1)), mp.sqrt(abs(y1))
        else:  # an int or float operand on either side
            other = rng.choice([rng.randint(-(10**25), 10**25), rng.uniform(-1e6, 1e6), 3, 0.5])
            form = rng.randrange(4)
            if form == 0:
                x, y = x1 + other, y1 + other
            elif form == 1:
                x, y = other - x1, other - y1
            elif form == 2:
                x, y = other * x1, other * y1
            else:
                if not x1:
                    continue
                x, y = other / x1, other / y1
        assert _same(x, y), (op, y1, y2, y)
        assert str(x) == str(y)
        assert ctx.format(x) == mp.nstr(y, ctx.decimal_digits, strip_zeros=True)
        pool[rng.randrange(len(pool))] = (x, y)


@pytest.mark.parametrize("bits", PRECISIONS)
def test_comparisons_conversions_and_hashes_match_mpmath(bits):
    ctx = PrecisionContext(bits)
    mp = mpmath.mp.clone()
    mp.prec = bits
    rng = random.Random(-bits)
    values = [(ctx.real(v), mp.mpf(v)) for v in (_operand(rng) for _ in range(120))]
    values += [(ctx.sqrt(n), mp.sqrt(n)) for n in range(2, 12)]
    others = [0, 1, -1, 2**200, 0.5, -1e300, math.inf, -math.inf, math.nan]
    for x, y in values:
        assert float(x) == float(y)
        assert int(x) == int(y)
        assert hash(x) == hash(y)
        for o in others + [int(y), float(y)]:
            assert (x < o, x <= o, x == o, x >= o, x > o) == (y < o, y <= o, y == o, y >= o, y > o)
            assert (o < x, o == x) == (o < y, o == y)
        for x2, y2 in rng.sample(values, 8):
            assert (x < x2, x == x2, x >= x2) == (y < y2, y == y2, y >= y2)
    # A value equal to an int or a float is the same dict key.
    for v in (3, -7, 2**300, 0.1, -2.5e-300, 5e300):
        assert hash(ctx.real(v)) == hash(v) and ctx.real(v) == v
    # Far past a double's range, float() saturates as mpmath's does.
    huge = ctx.real(2) ** 5000
    assert float(huge) == float(mp.mpf(2) ** 5000) == math.inf
    assert float(-huge) == -math.inf and float(1 / huge) == 0.0


@pytest.mark.parametrize("bits", PRECISIONS)
def test_parse_format_round_trips_match_mpmath(bits):
    ctx = PrecisionContext(bits)
    mp = mpmath.mp.clone()
    mp.prec = bits
    rng = random.Random(bits * 7)
    for _ in range(400):
        text = f"{rng.randint(-10**45, 10**45)}e{rng.randint(-350, 350)}"
        x = ctx.parse(text)
        assert _same(x, mp.mpf(text)), text
        assert ctx.parse(ctx.format(x)) == x
        assert ctx.format(x) == mp.nstr(mp.mpf(text), ctx.decimal_digits, strip_zeros=True)
        assert str(x) == str(mp.mpf(text))


@pytest.mark.parametrize("bits", [1000, 5000])
def test_long_formats_match_mpmath(bits):
    # 300 digits and more: mpmath splits the digit string in halves.
    ctx = PrecisionContext(bits)
    mp = mpmath.mp.clone()
    mp.prec = bits
    rng = random.Random(bits)
    for _ in range(20):
        text = f"{rng.randint(1, 10**60)}e{rng.randint(-300, 300)}"
        x, y = ctx.sqrt(ctx.parse(text)) / 7, mp.sqrt(mp.mpf(text)) / 7
        assert _same(x, y)
        assert ctx.format(x) == mp.nstr(y, ctx.decimal_digits, strip_zeros=True)
        assert str(x) == str(y)


def test_parser_rounds_the_exact_literal_past_mpmaths_range():
    ctx = PrecisionContext(128)
    for text in ("7e999", "-3.25e-4000", "123456789e-1234", "1e5000", "9" * 60 + "e-3000"):
        x = ctx.parse(text)
        value = Fraction(Decimal(text))
        ulp = Fraction(2) ** (x.exp + abs(x.man).bit_length() - 128)
        assert abs(Fraction(x.man) * Fraction(2) ** x.exp - value) <= ulp / 2, text
    # Huge exponents parse at once, and add without building huge ints.
    big = ctx.parse("1e1000000000")
    assert big + 1 == big and big - big == 0 and float(big) == math.inf
    assert 1 / big > 0 and float(1 / big) == 0.0


def test_digits_past_two_to_the_3500_are_the_exact_truncation():
    ctx = PrecisionContext(128)
    for x in (ctx.real(3) ** 3000, ctx.sqrt(2) * ctx.real(2) ** -20000):
        text = x.to_str(ctx.decimal_digits)
        exact = Fraction(x.man) * Fraction(2) ** x.exp
        assert abs(Fraction(Decimal(text)) - exact) <= exact / 10 ** (ctx.decimal_digits - 1)
    for text, shown in (("1e1000000", "1.0e+1000000"), ("-2.5e-1000000", "-2.5e-1000000"),
                        ("3e123456789", "3.0e+123456789")):
        x = ctx.parse(text)
        assert ctx.parse(ctx.format(x)) == x and str(x) == shown


def test_sums_round_once_across_far_exponents():
    lo, hi = binary_type(64), binary_type(200)
    one, tiny = lo(1), lo(2) ** -10000
    assert one + tiny == one - tiny == one and (one - tiny) + tiny == one
    # 1 + 2**-64 lies halfway between two 64-bit values, so a far
    # smaller addend decides the rounding through its sticky bit alone.
    half_way = hi(1) + hi(2) ** -64
    assert tiny + half_way == one + lo(2) ** -63
    assert -tiny + half_way == one
    assert lo(0) + half_way == one  # the tie itself goes to even
    assert lo(2) ** 9000 + (-1) == lo(2) ** 9000


def test_integer_powers_round_once():
    cls = binary_type(64)
    for base, n in ((3, 41), (3, -41), (7, 300), (cls(1) / 3, 5), (cls(-5) / 7, -9)):
        got = cls(base) ** n
        exact = Fraction(cls(base).man) ** n * Fraction(2) ** (cls(base).exp * n)
        ulp = Fraction(2) ** (got.exp + abs(got.man).bit_length() - 64)
        assert abs(Fraction(got.man) * Fraction(2) ** got.exp - exact) <= ulp / 2


def test_precisions_mix_as_mpf_does():
    lo, hi = binary_type(64), binary_type(200)
    third = hi(1) / 3
    assert type(lo(1) + third) is lo and type(third + lo(1)) is hi
    assert type(1 + third) is hi and lo(third) == lo(1) / 3
    assert isinstance(third, BinFloat) and hi(third) is third


def _exact(v):
    """The exact rational value of a BinFloat, an int or a finite float."""
    if isinstance(v, BinFloat):
        return Fraction(v.man << v.exp) if v.exp >= 0 else Fraction(v.man, 1 << -v.exp)
    return Fraction(v)


def _nearest(q, bits):
    """The bits-bit binary value nearest to the rational q, ties to even."""
    if not q:
        return q
    a = abs(q)
    e = a.numerator.bit_length() - a.denominator.bit_length() - bits
    while a >= Fraction(2) ** (e + bits):
        e += 1
    while a < Fraction(2) ** (e + bits - 1):
        e -= 1
    m = a / Fraction(2) ** e
    n = math.floor(m)
    if m - n > Fraction(1, 2) or (m - n == Fraction(1, 2) and n & 1):
        n += 1
    return (n if q > 0 else -n) * Fraction(2) ** e


_COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)
# A BinFloat operand whose exponent is within _NEAR = 4096 of the
# other's is shifted into place; farther apart, it goes through _cmp.
_GAPS = (0, 1, 4095, 4096, 4097, 3_000_000)


@pytest.mark.parametrize("bits", [53, 128])
def test_every_comparison_matches_exact_rationals(bits):
    cls, wide = binary_type(bits), binary_type(bits + 5000)
    pairs = []
    for g in _GAPS:
        for m in (1, -3, (1 << bits) - 1):
            # x's exponent is g and y's is -g; every other BinFloat or int
            # operand has exponent 0, and each pair is compared both ways round.
            x, y = cls(m) * cls(2) ** g, cls(m) * cls(2) ** -g
            for a in (x, y):
                pairs += [(a, cls(k)) for k in (1, -1, 5, m)]
                pairs += [(a, k) for k in (0, 1, -1, True, False)]
                pairs += [(a, f) for f in (0.0, -0.0, 0.5, -1e300, 2.0**-1074)]
            # Ints and wider BinFloats hold values that differ from x only
            # g bits below its lowest bit.
            pairs += [(x, int(x) + k) for k in (-1, 0, 1)]
            if g <= 4097:
                pairs += [(x, wide((m << g) + k)) for k in (-1, 1)]
    for a, b in pairs:
        qa, qb = _exact(a), _exact(b)
        for op in _COMPARISONS:
            assert op(a, b) is op(qa, qb), (op, a, b)
            assert op(b, a) is op(qb, qa), (op, b, a)
    x = cls(3) * cls(2) ** 3_000_000
    for v in (x, -x, 1 / x, cls(0)):
        # Every finite value lies between the infinities, and nan equals nothing.
        assert (v < math.inf, v <= math.inf, v > -math.inf, v >= -math.inf) == (True,) * 4
        assert (v > math.inf, v >= math.inf, v < -math.inf, v <= -math.inf) == (False,) * 4
        assert (v == math.inf, v != -math.inf, -math.inf < v < math.inf) == (False, True, True)
        assert [op(v, math.nan) for op in _COMPARISONS] == [False, True, False, False, False, False]
        assert [op(math.nan, v) for op in _COMPARISONS] == [False, True, False, False, False, False]
        for other in (None, "1", "0"):
            assert (v == other, other == v, v != other, other != v) == (False, False, True, True)
            for op in _COMPARISONS[2:]:
                with pytest.raises(TypeError):
                    op(v, other)
                with pytest.raises(TypeError):
                    op(other, v)


@pytest.mark.parametrize("bits", [53, 128])
def test_far_sums_with_long_ints_round_once(bits):
    # The int has more than 4096 bits and the BinFloat's exponent is more
    # than 4096 away from it, yet the two overlap: the sum is aligned in full.
    cls = binary_type(bits)
    rng = random.Random(bits)
    for g, extra in ((5000, 0), (5000, 1), (5000, 900), (4097, 3), (9000, -4)):
        for m in (1, -1, 3, (1 << bits) - 1, -((1 << (bits - 1)) + 1)):
            x = cls(m) * cls(2) ** g
            top = abs(m).bit_length() + g + extra
            for n in (1 << top, (1 << top) - 1, rng.getrandbits(top) | 1 | 1 << (top - 1)):
                for k in (n, -n, -int(x) + 1, -int(x) + (1 << (g - 3 * bits))):
                    for got, exact in ((x + k, _exact(x) + k), (k + x, k + _exact(x)),
                                       (x - k, _exact(x) - k), (k - x, k - _exact(x))):
                        assert type(got) is cls and _exact(got) == _nearest(exact, bits), (m, g, k)


def _leading_digits(q, n):
    """(c, s) with c = floor(q * 10**s) an n-digit int, for q > 0."""
    log10 = (math.log2(q.numerator) - math.log2(q.denominator)) * math.log10(2)
    s = n - 1 - math.floor(log10)
    while math.floor(q * Fraction(10) ** s) >= 10**n:
        s -= 1
    while math.floor(q * Fraction(10) ** s) < 10 ** (n - 1):
        s += 1
    return math.floor(q * Fraction(10) ** s), s


def test_literals_near_a_midpoint_past_the_exact_powers_round_once():
    # Past decimal exponent 21,845, 5**|n| has more bits than the exact
    # path allows, so the parser brackets the literal; one this close to
    # a 128-bit midpoint needs the bracket widened before it rounds.
    cls = binary_type(128)
    for e in (100_000, -100_000):
        mid = Fraction((1 << 128) + 2 * 12345 + 1) * Fraction(2) ** (e - 1)
        c, s = _leading_digits(mid, 80)
        assert s < -21_846 if e > 0 else s > 21_846
        for k in (0, 1):  # just below the midpoint, then just above
            text = f"{c + k}e{-s}"
            value = Fraction(c + k) / Fraction(10) ** s
            assert 0 < abs(value - mid) < mid / 10**78
            for sign in ("", "-"):
                got = cls(sign + text)
                assert _exact(got) == _nearest(-value if sign else value, 128), sign + text


@pytest.mark.parametrize("bits", [53, 128])
def test_literals_follow_one_grammar_at_every_precision(bits):
    ctx = PrecisionContext(bits)
    for good in ("0", "-1.5", "+2", ".5", "1.", "1E+3", "2.5e-7", "007"):
        assert float(ctx.parse(good)) == float(good)
    for bad in ("1_0", "١٢", " 2 ", "2\n", "", ".", "e5", "1e", "0x10", "1/3", "--1"):
        with pytest.raises(ValueError) as info:
            ctx.parse(bad)
        assert str(info.value) == f"could not convert string to float: {bad!r}"
    for bad in ("inf", "-Infinity", "nan", "+INF"):
        with pytest.raises(ValueError) as info:
            ctx.parse(bad)
        assert str(info.value) == f"non-finite numeric literal {bad!r}"


def test_both_precisions_accept_the_same_strings():
    # 53 bits screens float()'s extra forms without the regular expression.
    double, wide = PrecisionContext(53), PrecisionContext(128)
    rng = random.Random(3)
    alphabet = "0123456789.eE+-_ infa\t٣"
    for _ in range(5000):
        # At most four characters, so no value leaves a double's range.
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
        outcomes = []
        for ctx in (double, wide):
            try:
                outcomes.append(float(ctx.parse(text)))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1] or (
            isinstance(outcomes[0], float) and math.isclose(*outcomes, rel_tol=1e-15)
        ), text
