"""Arbitrary-precision reals, mathematical constants, and the growth-function
(psi) expression language.

Big reals are mpmath ``mpf`` values: an exact mantissa/exponent pair, so every
finite value converts losslessly to ``fractions.Fraction``.  All constructors
here take an explicit precision budget in bits; operations inside a
``mpmath.workprec`` block are correctly rounded at that budget.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from .errors import PrecisionExhausted, PsiParseError

DEFAULT_PRECISION = 256

# log2(psi(x)) values above this are treated as "beyond any budget"
_LOG2_SATURATE = 1e15


def gamma_const(bits: int = DEFAULT_PRECISION) -> mpmath.mpf:
    """Euler-Mascheroni constant, correctly rounded to `bits` bits."""
    if bits < 53:
        raise ValueError("precision below 53 bits not supported")
    with mpmath.workprec(bits):
        return +mpmath.euler


def sqrt_const(d: int, bits: int = DEFAULT_PRECISION) -> mpmath.mpf:
    """sqrt(d) at `bits` bits, for integer d >= 0."""
    with mpmath.workprec(bits):
        return mpmath.sqrt(d)


def _fmt(x) -> str:
    """17 significant digits: every double round-trips; mpf values (which
    can underflow a double) print through mpmath."""
    if isinstance(x, mpmath.mpf):
        return mpmath.nstr(x, 17)
    return format(float(x), ".17g")


#: Python's int -> str conversion refuses integers of more than 4300 digits
_DECIMAL_LIMIT = 10 ** 4300


def _fmt_int(n: int) -> str:
    """Decimal below 10**4300, 0x hex from there on; int(s, 0) reads both."""
    return str(n) if abs(n) < _DECIMAL_LIMIT else hex(n)


def to_fraction(x) -> Fraction:
    """Exact rational value of a float or mpf (both are dyadic rationals)."""
    if isinstance(x, (Fraction, int, float)):
        return Fraction(x)
    # mpmath mpf: (sign, mantissa, exponent, bitcount); read the raw tuple
    # (reconstructing via mpmath.mpf() would re-round to working precision)
    tup = x._mpf_ if hasattr(x, "_mpf_") else mpmath.mpf(x)._mpf_
    sign, man, exp, _ = tup
    man, exp = int(man), int(exp)
    if man == 0 and exp != 0:
        raise ValueError(f"cannot convert non-finite value {x!r}")
    val = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -val if sign else val


def fraction_to_mpf(f: Fraction, bits: int) -> mpmath.mpf:
    """f at `bits` bits: the numerator rounded to an mpf, then divided by the
    denominator, both under workprec(bits).  Its power of two goes by an exact
    ldexp (same bits; mpmath strips a divisor's zeros 8 bits at a time)."""
    den = f.denominator
    tz = (den & -den).bit_length() - 1
    with mpmath.workprec(bits):
        return mpmath.ldexp(mpmath.mpf(f.numerator) / (den >> tz), -tz)


def log2_fraction(f: Fraction) -> float:
    """log2 of a positive Fraction, good to ~1e-12 even for huge entries."""
    if f <= 0:
        raise ValueError("log2 of non-positive value")
    return log2_ratio(f.numerator, f.denominator)


def log2_ratio(p: int, q: int) -> float:
    """log2(p / q) for positive ints p, q, which need not be coprime: from
    the top 53 bits and the bit length of each, with no gcd."""
    pb, qb = p.bit_length(), q.bit_length()
    if pb <= 53 and qb <= 53:
        # both exact as floats: the same value as below, which adds 0 to
        # each log
        return math.log2(p) - math.log2(q)
    # scale both into float range
    ps = p >> (pb - 53) if pb > 53 else p
    qs = q >> (qb - 53) if qb > 53 else q
    return (math.log2(ps) + max(pb - 53, 0)) - (math.log2(qs) + max(qb - 53, 0))


# ---------------------------------------------------------------------------
# psi expression language
#
# Concrete syntax:   pow:<s>   (x^s, s > 0)
#                    exp:<b>   (b^x, b > 1)
#                    expexp    (exp(exp(x)))
#                    scale:<c>:<inner>   (c * inner(x), c > 0)
# ---------------------------------------------------------------------------


def _parse_number(text: str, pos: int):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PsiParseError(f"expected a number, got {text!r}", pos) from None


class PsiFunction:
    """A monotone increasing positive function on [1, oo) with a computable
    inverse, from the small grammar above.

    eval() returns mpf (values like 1.5**65536 overflow float); log2()
    returns a float and saturates to +inf far beyond any precision budget.
    """

    def __init__(self, kind: str, param: Fraction | None = None,
                 inner: "PsiFunction | None" = None, *, text: str):
        self.kind = kind
        self.param = param
        self.inner = inner
        self.text = text
        # whether exact_pair gives psi(m) = P/Q at every integer m; decided
        # here so callers can branch on it without building the pair
        self.has_exact_pair = (kind == "exp"
                               or (kind == "pow" and param.denominator == 1)
                               or (kind == "scale" and inner.has_exact_pair))
        if kind == "exp":
            # log2 of the base, to within an ulp: log2(x) multiplies it by x,
            # so its relative error is the relative error of the result
            # (log2_fraction cancels for bases near 1)
            a, b = param.numerator, param.denominator
            with mpmath.workprec(a.bit_length() + b.bit_length() + 64):
                self._log2_base = float(mpmath.log(mpmath.mpf(a) / b, 2))

    def __repr__(self):
        return f"PsiFunction({self.text!r})"

    def eval(self, x, bits: int = 80) -> mpmath.mpf:
        with mpmath.workprec(bits):
            xm = mpmath.mpf(x) if not isinstance(x, int) else x
            if self.kind == "pow":
                return mpmath.power(xm, mpmath.mpf(self.param.numerator) / self.param.denominator)
            if self.kind == "exp":
                base = mpmath.mpf(self.param.numerator) / self.param.denominator
                return mpmath.power(base, xm)
            if self.kind == "expexp":
                return mpmath.exp(mpmath.exp(xm))
            c = mpmath.mpf(self.param.numerator) / self.param.denominator
            return c * self.inner.eval(x, bits)

    __call__ = eval

    def log2(self, x) -> float:
        """log2(psi(x)); x may be a huge int.  Saturates to +inf.

        At integer x <= 2**53, and for the pow family at any integer x, a
        finite value v is a few float roundings from the exact one: for
        |v| <= 2**30 the error measured against a 256-bit reference is below
        2**-20 (tests/test_realfield.py, pow up to x = 2**256).  For the exp
        families at integer 2**53 < x < 2**61, v = float(x) * log2(base) is
        within a relative 2**-50 of the exact value (tested on 3000 random x
        for each of seven families, also under scale).
        """
        if self.kind == "pow":
            # math.log2 of an int is accurate at any size
            return float(self.param) * math.log2(x)
        lx = x.bit_length() - 1 if isinstance(x, int) and x > 2**53 else None
        if self.kind == "exp":
            return (math.inf if lx is not None and lx > 60
                    else float(x) * self._log2_base)
        if self.kind == "expexp":
            if lx is not None or x > 50:
                return math.inf
            e = math.exp(float(x))
            return math.inf if e > _LOG2_SATURATE else e * math.log2(math.e)
        return log2_fraction(self.param) + self.inner.log2(x)

    def exact_pair(self, m: int) -> tuple[int, int] | None:
        """psi(m) = P / Q at integer m, as ints (P, Q) with Q > 0 that are
        not reduced to lowest terms; None when the family has no exact
        value.  Skipping the reduction saves a gcd of two huge coprime
        powers (a**m, b**m)."""
        if not self.has_exact_pair:
            return None
        if self.kind == "exp":
            return self.param.numerator ** m, self.param.denominator ** m
        if self.kind == "pow":
            return m ** self.param.numerator, 1
        P, Q = self.inner.exact_pair(m)
        return self.param.numerator * P, self.param.denominator * Q

    def at_most(self, m: int, n: int) -> bool | None:
        """Whether psi(m) <= n, decided exactly at integers m and n; None
        for a family with no exact form (expexp).  An exact pair P/Q decides
        by n * Q >= P, and c * m^(a/b) (any scales folded into c) by
        (n * c.denominator)^b >= c.numerator^b * m^a."""
        pq = self.exact_pair(m)
        if pq is not None:
            return n * pq[1] >= pq[0]
        c, psi = Fraction(1), self
        while psi.kind == "scale":
            c, psi = c * psi.param, psi.inner
        if psi.kind != "pow":
            return None
        a, b = psi.param.numerator, psi.param.denominator
        return (n * c.denominator) ** b >= c.numerator ** b * m ** a

    def eval_fraction(self, m: int) -> Fraction | None:
        """Exact value of psi(m) at integer m, when the family allows it."""
        pq = self.exact_pair(m)
        return None if pq is None else Fraction(*pq)

    def ceil_div(self, m: int, bits_budget: int) -> int:
        """ceil(psi(m) / m) exactly; the quotient that a Jarnik-style
        construction appends.  Raises PrecisionExhausted when the result
        would exceed `bits_budget` bits."""
        l2 = self.log2(m)
        if l2 - math.log2(m) > bits_budget:
            raise PrecisionExhausted(
                f"quotient psi(m)/m at a {m.bit_length()}-bit m needs "
                f"~{l2 - math.log2(m):.3g} bits")
        if self.kind == "pow" and self.param.denominator == 1:
            # m^a / m = m^(a - 1) exactly, with no division of huge ints
            return m ** (self.param.numerator - 1)
        pq = self.exact_pair(m)
        if pq is not None:
            # a ceiling does not depend on the pair being in lowest terms
            return -((-pq[0]) // (pq[1] * m))
        # mpf route with certification by precision doubling
        bits = max(64, int(l2) + 96)
        prev = None
        for _ in range(4):
            with mpmath.workprec(bits):
                v = self.eval(m, bits) / m
                fr = to_fraction(v)
                c = -((-fr.numerator) // fr.denominator)
            if prev is not None and c == prev:
                return c
            prev = c
            bits *= 2
        raise PrecisionExhausted(
            f"could not certify ceil(psi(m)/m) at a {m.bit_length()}-bit m")

    def inverse(self, y) -> float:
        """x with psi(x) = y, via the closed form of each family.

        Accepts floats or mpf (psi values overflow a double quickly)."""
        with mpmath.workprec(80):
            ym = mpmath.mpf(y) if not isinstance(y, mpmath.mpf) else y
            if self.kind == "pow":
                if ym < 1:
                    raise ValueError("inverse domain: y below psi(1)")
                s = mpmath.mpf(self.param.numerator) / self.param.denominator
                return float(mpmath.power(ym, 1 / s))
            if self.kind == "exp":
                base = mpmath.mpf(self.param.numerator) / self.param.denominator
                if ym < base:
                    raise ValueError("inverse domain: y below psi(1)")
                return float(mpmath.log(ym) / mpmath.log(base))
            if self.kind == "expexp":
                if ym < mpmath.exp(mpmath.e):
                    raise ValueError("inverse domain: y below psi(1)")
                return float(mpmath.log(mpmath.log(ym)))
            c = mpmath.mpf(self.param.numerator) / self.param.denominator
            return self.inner.inverse(ym / c)


def psi_parse(text: str) -> PsiFunction:
    """Parse the concrete psi syntax; see module docstring for the grammar."""
    head, sep, rest = text.partition(":")
    if head == "pow":
        if not sep:
            raise PsiParseError("pow needs a parameter, e.g. pow:2", len(text))
        s = _parse_number(rest, len(head) + 1)
        if s <= 0:
            raise PsiParseError("pow exponent must be > 0", len(head) + 1)
        return PsiFunction("pow", s, text=text)
    if head == "exp":
        if not sep:
            raise PsiParseError("exp needs a base, e.g. exp:3", len(text))
        b = _parse_number(rest, len(head) + 1)
        if b <= 1:
            raise PsiParseError("exp base must be > 1", len(head) + 1)
        return PsiFunction("exp", b, text=text)
    if head == "expexp":
        if sep:
            raise PsiParseError("expexp takes no parameter", len(head) + 1)
        return PsiFunction("expexp", text=text)
    if head == "scale":
        cs, sep2, inner_text = rest.partition(":")
        if not sep or not sep2:
            raise PsiParseError("scale needs scale:<c>:<inner>", len(head) + 1)
        c = _parse_number(cs, len(head) + 1)
        if c <= 0:
            raise PsiParseError("scale factor must be > 0", len(head) + 1)
        inner = psi_parse(inner_text)
        return PsiFunction("scale", c, inner=inner, text=text)
    raise PsiParseError(f"unknown psi family {head!r}", 0)

