"""Binary floating point at a fixed precision, on Python ints.

A value is an exact pair of ints, man * 2**exp, with man odd, or
(0, 0) for zero.  Each class made by `binary_type(prec)` rounds every
result once, to nearest with ties to even, at prec bits: + - * /,
integer powers, square roots (through math.isqrt) and the decimal
parser, which rounds the literal's exact rational value.  A correctly
rounded operation has exactly one right answer, so these are the bits
that mpmath's mpf gives at the same precision.  The exponent is an
unbounded int, so nothing overflows; there is no inf or nan, and an
operation that would need one raises instead.  Mixed operands follow
mpf: the result has the precision of the left BinFloat operand, or of
the only one.

Comparisons and hashes are exact against int, float and each other,
so a value and the int or float it equals are one dict key.  One body,
`_comparison`, is bound once per operator as == < <= > >=.

`BinFloat.to_str` ports the digit algorithm of mpmath's
`libmpf.to_str`, so `x.to_str(n)` is the text of mpmath's
`nstr(x, n, strip_zeros=True)` for every x whose binary magnitude lies
within 2**±3500.  Beyond that, mpmath approximates a power of ten,
while `to_str` here truncates the exact decimal expansion.  The parser
may likewise differ from mpmath's `from_str`, which does not round
correctly past decimal exponent ±400.
"""

from __future__ import annotations

import math
import operator
import re
import sys

from .core import literal_error

__all__ = ["LITERAL", "BinFloat", "binary_type", "isfinite"]

_new = object.__new__
_isqrt = math.isqrt
_HASH_MODULUS = sys.hash_info.modulus
_HASH_BITS = _HASH_MODULUS.bit_length()
# Operands whose exponents differ by less than this are aligned by a
# plain shift; farther apart, _add bounds the work by the precision.
_NEAR = 1 << 12
# Powers whose exact value has at most about this many bits are exact;
# larger ones are bracketed (_bracket) until the bracket rounds one way.
_EXACT_BITS = 1 << 16
_LOG2_10 = math.log(10, 2)  # as mpmath's to_digits_exp computes it
_LOG10_2_Q128 = 102435199438739363750012109250103232700  # floor(log10(2) * 2**128)

# The numeric literals a file or an option may hold, at every precision:
# an optional sign, ASCII digits with an optional fraction, and an
# optional exponent.  No inf or nan, no spaces, underscores or other
# scripts' digits, which float() would also take.
LITERAL = re.compile(r"([+-]?)([0-9]+|(?=\.[0-9]))(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?")


def _finish(cls, m, e):
    """The cls value nearest to m * 2**e, ties to even."""
    if not m:
        v = _new(cls)
        v.man = v.exp = 0
        return v
    a = -m if m < 0 else m
    n = a.bit_length() - cls.prec
    if n > 0:
        low = a & ((1 << n) - 1)
        a >>= n
        e += n
        half = 1 << (n - 1)
        if low > half or (low == half and a & 1):
            a += 1
    if not a & 1:
        tz = (a & -a).bit_length() - 1
        a >>= tz
        e += tz
    v = _new(cls)
    v.man = -a if m < 0 else a
    v.exp = e
    return v


def _pair(x):
    """(man, exp) of a BinFloat, an int or a finite float, exactly; None for other types."""
    if isinstance(x, BinFloat):
        return x.man, x.exp
    if isinstance(x, int):
        return int(x), 0
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {x}")
        num, den = x.as_integer_ratio()
        return num, 1 - den.bit_length()
    return None


def _add(cls, m1, e1, m2, e2):
    d = e1 - e2
    if 0 <= d < _NEAR:
        return _finish(cls, (m1 << d) + m2, e2)
    if -_NEAR < d < 0:
        return _finish(cls, m1 + (m2 << -d), e1)
    if not m1 or not m2:
        return _finish(cls, m1, e1) if m1 else _finish(cls, m2, e2)
    t1 = e1 + abs(m1).bit_length()
    t2 = e2 + abs(m2).bit_length()
    if t1 < t2:
        m1, e1, t1, m2, e2, t2 = m2, e2, t2, m1, e1, t1
    # Every bit of the larger operand lies at or above 2**low, and low
    # is at least prec + 3 bits below its top.  A smaller operand below
    # 2**(low - 1) cannot carry the sum onto or past a rounding
    # boundary, so only its sign matters: it becomes a sticky bit.
    low = min(t1 - cls.prec - 3, e1)
    if t2 < low:
        return _finish(cls, (m1 << (e1 - low + 2)) + (1 if m2 > 0 else -1), low - 2)
    if e1 >= e2:
        return _finish(cls, (m1 << (e1 - e2)) + m2, e2)
    return _finish(cls, m1 + (m2 << (e2 - e1)), e1)


def _div(cls, m1, e1, m2, e2):
    if not m2:
        raise ZeroDivisionError("division by zero")
    if not m1:
        return _finish(cls, 0, 0)
    a = -m1 if m1 < 0 else m1
    b = -m2 if m2 < 0 else m2
    # At least prec + 2 quotient bits, then a sticky bit for a remainder.
    s = cls.prec + 3 + b.bit_length() - a.bit_length()
    if s < 0:
        s = 0
    q, r = divmod(a << s, b)
    if r:
        q = (q << 1) | 1
        s += 1
    return _finish(cls, -q if (m1 < 0) != (m2 < 0) else q, e1 - e2 - s)


def _sqrt(cls, m, e):
    if m < 0:
        raise ValueError("square root of a negative value")
    if not m:
        return _finish(cls, 0, 0)
    if e & 1:
        m <<= 1
        e -= 1
    # At least prec + 2 root bits, then a sticky bit when inexact.
    k = cls.prec + 3 - (m.bit_length() >> 1)
    if k < 0:
        k = 0
    n = m << (2 * k)
    r = _isqrt(n)
    if r * r != n:
        return _finish(cls, (r << 1) | 1, (e >> 1) - k - 1)
    return _finish(cls, r, (e >> 1) - k)


def _cmp(m1, e1, m2, e2):
    """-1, 0 or 1 as m1 * 2**e1 is below, equal to or above m2 * 2**e2."""
    s1 = (m1 > 0) - (m1 < 0)
    s2 = (m2 > 0) - (m2 < 0)
    if s1 != s2 or not s1:
        return (s1 > s2) - (s1 < s2)
    t1 = e1 + abs(m1).bit_length()
    t2 = e2 + abs(m2).bit_length()
    if t1 != t2:
        return s1 if t1 > t2 else -s1
    # The same top bit, so this shift is at most the longer mantissa.
    if e1 > e2:
        m1 <<= e1 - e2
    else:
        m2 <<= e2 - e1
    return (m1 > m2) - (m1 < m2)


def _order(x, other):
    """_cmp of x against other: None when other is nan, NotImplemented for other types."""
    if isinstance(other, float) and not math.isfinite(other):
        if other != other:
            return None
        return -1 if other > 0 else 1
    pair = _pair(other)
    if pair is None:
        return NotImplemented
    return _cmp(x.man, x.exp, *pair)


def _comparison(op):
    """BinFloat's comparison method for `op`, exact against every operand.

    A BinFloat or an int whose exponent lies near self's is compared by
    a plain shift; one farther apart goes through _cmp, and any other
    operand through _order.  Against nan every comparison is False.
    """

    def compare(self, other):
        if isinstance(other, BinFloat):
            om, oe = other.man, other.exp
        elif other.__class__ is int:
            om, oe = other, 0
        else:
            c = _order(self, other)
            return c if c is NotImplemented else c is not None and op(c, 0)
        d = self.exp - oe
        if 0 <= d < _NEAR:
            return op(self.man << d, om)
        if -_NEAR < d < 0:
            return op(self.man, om << -d)
        return op(_cmp(self.man, self.exp, om, oe), 0)

    return compare


# --- powers too large to compute exactly -------------------------------------


def _bracket(c, base, n, f, w):
    """(lo, hi, x): lo * 2**x <= c * base**n * 2**f <= hi * 2**x, for c, base > 0.

    base**|n| comes from binary powering that truncates each product
    to w bits.  Each truncation loses a factor below 1 + 2**(1-w), and
    the squarings repeat earlier losses: at most 2k + bit_length(k)
    factors in all, for k = |n|.  So hi / lo - 1 is below about
    k * 2**(3-w).
    """
    k = -n if n < 0 else n

    def cut(m, x):
        s = m.bit_length() - w
        return (m >> s, x + s) if s > 0 else (m, x)

    p, x = 1, 0
    b, bx = cut(base, 0)
    j = k
    while j:
        if j & 1:
            p, x = cut(p * b, x + bx)
        j >>= 1
        if j:
            b, bx = cut(b * b, bx + bx)
    factors = 2 * k + k.bit_length() + 1
    q = p + ((p * factors) >> (w - 2)) + 1  # base**k <= q * 2**x
    if n >= 0:
        return c * p, c * q, f + x
    s = w + q.bit_length() - c.bit_length() + 2
    if s < 0:
        s = 0
    num = c << s
    return num // q, -(-num // p), f - x - s


def _scaled_power(cls, c, base, n, f):
    """The cls value nearest to c * base**n * 2**f, for ints c, n, f and odd base > 1.

    Computed exactly when base**|n| is small next to the precision and
    c; otherwise that power cannot divide c, so the value is neither a
    number of cls nor halfway between two, and a bracket narrow enough
    rounds at both ends to the one answer.
    """
    if not c:
        return _finish(cls, 0, 0)
    k = -n if n < 0 else n
    if k * base.bit_length() <= max(_EXACT_BITS, 2 * (abs(c).bit_length() + cls.prec)):
        p = base**k
        return _finish(cls, c * p, f) if n >= 0 else _div(cls, c, f, p, 0)
    a = -c if c < 0 else c
    w = cls.prec + 2 * k.bit_length() + 32
    while True:
        lo, hi, x = _bracket(a, base, n, f, w)
        u, v = _finish(cls, lo, x), _finish(cls, hi, x)
        if u.man == v.man and u.exp == v.exp:
            return u if c > 0 else _finish(cls, -u.man, u.exp)
        w *= 2


def _floor_scaled(c, n, f, bits):
    """floor(c * 5**n * 2**f) for odd c > 0, when the result has about `bits` bits.

    Exact when the operands are small; otherwise the value is not an
    integer (c is odd, and a 5**n too large to divide c is not
    cancelled by a power of two that leaves `bits` bits), so a narrow
    bracket floors one way.
    """
    k = -n if n < 0 else n
    if 3 * k + abs(f) <= max(_EXACT_BITS, 8 * bits):
        num, den = (c * 5**n, 1) if n >= 0 else (c, 5**k)
        if f >= 0:
            num <<= f
        else:
            den <<= -f
        return num // den
    w = bits + 2 * k.bit_length() + 32
    while True:
        lo, hi, x = _bracket(c, 5, n, f, w)
        u = lo << x if x >= 0 else lo >> -x
        v = hi << x if x >= 0 else hi >> -x
        if u == v:
            return u
        w *= 2


# --- decimal text --------------------------------------------------------------


def _numeral(n, size):
    """str(n) for n >= 0, split as mpmath's numeral splits a `size`-digit n."""
    if not n:
        return "0"
    if size < 250:
        return str(n)
    half = (size // 2) + (size & 1)
    a, b = divmod(n, 10**half)
    return _numeral(a, half) + _numeral(b, half).rjust(half, "0")


def _digits_exp(man, exp, dps):
    """(digits, e): at least dps leading digits of man * 2**exp > 0, rounded down.

    The first digit has decimal exponent e.  This is mpmath's
    to_digits_exp inside 2**±3500, and the exact truncation beyond.
    """
    bc = man.bit_length()
    bitprec = int(dps * _LOG2_10) + 10
    if abs(exp + bc) > 3500:
        b = ((exp + bc - 1) * _LOG10_2_Q128) >> 128  # floor(log10(x)) or one below
        while True:
            s = dps - 1 - b
            t = _floor_scaled(man, s, exp + s, bitprec)
            if t >= 10**dps:
                b += 1
            elif t < 10 ** (dps - 1):
                b -= 1
            else:
                return _numeral(t, dps), b
    fixprec = bitprec - exp - bc
    if fixprec < 0:
        fixprec = 0
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    offset = exp + fixprec
    sf = man << offset if offset >= 0 else man >> -offset
    digits = _numeral(sf * 10**fixdps >> fixprec, dps)
    return digits, len(digits) - fixdps - 1


def _parse(cls, text):
    match = LITERAL.fullmatch(text)
    if match is None:
        raise literal_error(text)
    sign, whole, frac, exp = match.groups()
    frac = frac or ""
    c = int(whole + frac)
    n = (int(exp) if exp else 0) - len(frac)
    return _scaled_power(cls, -c if sign == "-" else c, 5, n, n)


# --- the scalar -----------------------------------------------------------------


class BinFloat:
    """man * 2**exp, exactly, in the class's precision `prec`.

    The classes that set prec come from `binary_type(prec)`; construct
    one's values as `binary_type(prec)(value)`, where value is an int,
    a finite float, a decimal string or a BinFloat of any precision,
    rounded once to prec bits.
    """

    __slots__ = ("man", "exp")

    def __new__(cls, value=0):
        if type(value) is cls:
            return value
        if isinstance(value, str):
            return _parse(cls, value)
        pair = _pair(value)
        if pair is None:
            raise TypeError(f"cannot make a binary float from {value!r}")
        return _finish(cls, *pair)

    @classmethod
    def sqrt(cls, x):
        """The cls value nearest to the square root of x (a BinFloat, int or float)."""
        pair = _pair(x)
        if pair is None:
            raise TypeError(f"cannot take the square root of {x!r}")
        return _sqrt(cls, *pair)

    def to_str(self, dps):
        """At most dps significant digits: mpmath's nstr(x, dps, strip_zeros=True)."""
        m = self.man
        if not m:
            return "0.0"
        sign = "-" if m < 0 else ""
        digits, exponent = _digits_exp(-m if m < 0 else m, self.exp, dps + 3)
        # The digits are rounded down; round the dps-digit prefix half up.
        if len(digits) > dps and digits[dps] in "56789":
            digits = digits[:dps]
            i = dps - 1
            while i >= 0 and digits[i] == "9":
                i -= 1
            if i >= 0:
                digits = digits[:i] + str(int(digits[i]) + 1) + "0" * (dps - i - 1)
            else:
                digits = "1" + "0" * (dps - 1)
                exponent += 1
        else:
            digits = digits[:dps]
        # Fixed point for magnitudes near 1.
        if min(-(dps // 3), -5) < exponent < dps:
            if exponent < 0:
                digits = "0" * -exponent + digits
                split = 1
            else:
                split = exponent + 1
                if split > dps:
                    digits += "0" * (split - dps)
            exponent = 0
        else:
            split = 1
        digits = (digits[:split] + "." + digits[split:]).rstrip("0")
        if digits[-1] == ".":
            digits += "0"
        if exponent == 0:
            return sign + digits
        if exponent > 0:
            return f"{sign}{digits}e+{exponent}"
        return f"{sign}{digits}e{exponent}"

    def __str__(self):
        return self.to_str(max(1, int(round(self.prec / 3.3219280948873626) - 1)))

    def __repr__(self):
        return f"BinFloat('{self}', prec={self.prec})"

    def __bool__(self):
        return self.man != 0

    def __int__(self):
        m, e = self.man, self.exp
        if e >= 0:
            return m << e
        return -((-m) >> -e) if m < 0 else m >> -e

    def __float__(self):
        # Rounded to 53 bits first, then by ldexp, as mpmath's to_float does.
        v = _finish(_DOUBLE, self.man, self.exp)
        try:
            return math.ldexp(v.man, v.exp)
        except OverflowError:
            return -math.inf if v.man < 0 else math.inf

    def __hash__(self):
        m, e = self.man, self.exp
        if not e:
            return hash(m)
        h = (-m if m < 0 else m) % _HASH_MODULUS
        if e > 0:
            e %= _HASH_BITS
        else:
            e = _HASH_BITS - 1 - ((-1 - e) % _HASH_BITS)
        h = (h << e) % _HASH_MODULUS
        if m < 0:
            h = -h
        return -2 if h == -1 else h

    # Values are stored rounded, so sign changes are exact.
    def __neg__(self):
        v = _new(type(self))
        v.man = -self.man
        v.exp = self.exp
        return v

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if self.man < 0 else self

    # --- comparisons: one exact body, bound once per operator ----------------

    __eq__ = _comparison(operator.eq)
    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)

    # --- arithmetic: exact result, one rounding ------------------------------

    def __add__(self, other):
        pair = _pair(other)
        if pair is None:
            return NotImplemented
        return _add(type(self), self.man, self.exp, *pair)

    __radd__ = __add__

    def __sub__(self, other):
        pair = _pair(other)
        if pair is None:
            return NotImplemented
        return _add(type(self), self.man, self.exp, -pair[0], pair[1])

    def __rsub__(self, other):
        pair = _pair(other)
        if pair is None:
            return NotImplemented
        return _add(type(self), pair[0], pair[1], -self.man, self.exp)

    def __mul__(self, other):
        pair = _pair(other)
        if pair is None:
            return NotImplemented
        return _finish(type(self), self.man * pair[0], self.exp + pair[1])

    __rmul__ = __mul__

    def __truediv__(self, other):
        pair = _pair(other)
        if pair is None:
            return NotImplemented
        return _div(type(self), self.man, self.exp, *pair)

    def __rtruediv__(self, other):
        pair = _pair(other)
        if pair is None:
            return NotImplemented
        return _div(type(self), pair[0], pair[1], self.man, self.exp)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        cls, m, e = type(self), self.man, self.exp
        if n == 0:
            return _finish(cls, 1, 0)
        if not m:
            if n < 0:
                raise ZeroDivisionError("zero to a negative power")
            return self
        sign = -1 if m < 0 and n & 1 else 1
        a = -m if m < 0 else m
        if a == 1:
            return _finish(cls, sign, e * n)
        return _scaled_power(cls, sign, a, n, e * n)


_TYPES = {}


def binary_type(prec):
    """The BinFloat class of precision prec, one per precision."""
    cls = _TYPES.get(prec)
    if cls is None:
        if prec < 2:
            raise ValueError("a binary float needs at least two bits")
        cls = _TYPES[prec] = type("BinFloat", (BinFloat,), {"__slots__": (), "prec": prec})
    return cls


_DOUBLE = binary_type(53)


def isfinite(x):
    """False only for a float inf or nan: every BinFloat is finite."""
    return not isinstance(x, float) or math.isfinite(x)
