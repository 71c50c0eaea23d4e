"""Continued fractions, rational-approximation measurements, and explicit
Liouville-number constructions.

Constructed numbers (tau_beta series, Jarnik-style continued fractions) are
represented by their exact defining data, never by a floating approximation:
distances ||m*theta|| are computed from an exact rational anchor plus a
rigorous error radius tracked in log2 form, so Liouville-scale cancellation
costs nothing.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import mpmath

from .errors import (ConstructionInfeasible, PrecisionExhausted,
                     ThetaParseError)
from .realfield import (_DECIMAL_LIMIT, PsiFunction, fraction_to_mpf,
                        log2_fraction, log2_ratio, psi_parse, sqrt_const,
                        to_fraction)

_INF = math.inf

#: size budget (bits) for a single partial quotient of a constructed number
DEFAULT_QUOTIENT_BITS = 1 << 22

#: size budget (bits) for the exact partial sums of tau_beta series
PARTIAL_SUM_BITS = 1 << 21

_MAX_EXPAND_BITS = 1 << 24

#: log2 bits by which a resolved distance ||m theta|| exceeds its radius
_DIST_REL_BITS = 40

#: dec: literals, int[.frac][e|E[+-]exp]; groups are frac and exp
_DECIMAL = re.compile(r"[0-9]+(?:\.([0-9]+))?(?:[eE]([+-]?[0-9]+))?")

#: the range over which the scan screen's log2 inputs have a measured error
#: bound: m up to 2**53, log2 values up to 2**30 in magnitude
_SCREEN_M_MAX = 2 ** 53
_SCREEN_LOG2_MAX = 2.0 ** 30


# ---------------------------------------------------------------------------
# Continued fractions and convergents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Convergent:
    k: int
    n: int  # numerator
    m: int  # denominator (positive)

    def as_fraction(self) -> Fraction:
        # n_k m_{k-1} - n_{k-1} m_k = +-1, so the pair is in lowest terms
        return _coprime_fraction(self.n, self.m)


@dataclass(frozen=True)
class ContinuedFraction:
    """Simple continued fraction [a0; a1, a2, ...] with a_k >= 1 for k >= 1.

    `period` records the repeating block (starting at index 1) for quadratic
    surds.
    """

    quotients: tuple
    period: tuple | None = None

    def __post_init__(self):
        if not self.quotients:
            raise ValueError("continued fraction needs at least a0")
        if any(a < 1 for a in self.quotients[1:]):
            raise ValueError("partial quotients a_k must be >= 1 for k >= 1")

    def __len__(self):
        return len(self.quotients)


def convergents(cf: ContinuedFraction) -> list[Convergent]:
    """All convergents n_k/m_k of `cf`, big-integer exact: the two-term
    recurrence n_k = a_k n_{k-1} + n_{k-2} (likewise m_k) from the seeds
    n_{-1}/m_{-1} = 1/0 and n_{-2}/m_{-2} = 0/1.
    """
    out = []
    n, m, n_prev, m_prev = 1, 0, 0, 1
    for k, a in enumerate(cf.quotients):
        n, n_prev = a * n + n_prev, n
        m, m_prev = a * m + m_prev, m
        out.append(Convergent(k, n, m))
    return out


def cf_expand_surd(d: int, K: int) -> ContinuedFraction:
    """Exact expansion of sqrt(d) via the periodic (P, Q) recurrence.

    Returns quotients a_0..a_K; the repeating block, recorded in `period`,
    runs from index 1 to the first quotient 2 a_0 (Lagrange).
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    a0 = math.isqrt(d)
    if a0 * a0 == d:
        raise ValueError(f"{d} is a perfect square")
    period = []
    P, Q = a0, d - a0 * a0
    while not period or period[-1] != 2 * a0:
        a = (a0 + P) // Q
        period.append(a)
        P = a * Q - P
        Q = (d - P * P) // Q
    full = (a0, *(period[i % len(period)] for i in range(K)))
    return ContinuedFraction(full, period=tuple(period))


# ---------------------------------------------------------------------------
# Enclosures: exact anchor + log2 error radius
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Enclosure:
    """theta lies within 2**log2_err of `anchor` (side=0), in
    [anchor, anchor + 2**log2_err] (side=+1), or
    [anchor - 2**log2_err, anchor] (side=-1).  `final`: the theta's data
    holds no tighter enclosure, whatever `bits` is asked for."""

    anchor: Fraction
    log2_err: float
    side: int = 0
    final: bool = False


def _escalating_enclosures(theta: Theta, bits: int):
    """Yield theta's best enclosure at bits, 4 bits, 16 bits, ...

    Requests are capped at _MAX_EXPAND_BITS.  The last one yielded is the
    first final enclosure (a wider request would return it again), or the
    one at _MAX_EXPAND_BITS."""
    while True:
        enc = theta.best_enclosure(bits)
        yield enc
        if enc.final or bits >= _MAX_EXPAND_BITS:
            return
        bits = min(bits * 4, _MAX_EXPAND_BITS)


def _cf_from_enclosure(enc: Enclosure, K: int) -> ContinuedFraction:
    """Expand theta = [a0; a1, ...] from an enclosure, certifying each floor.

    Euclid's algorithm on the anchor's coprime pair p/q: with
    p = a q + r, the fractional part is r/q and its gap to the next integer
    (q - r)/q, both already in lowest terms, and the next anchor is q/r.
    Raises PrecisionExhausted (carrying the certified prefix) as soon as the
    enclosure can no longer pin a quotient.
    """
    qs = []
    p, q = enc.anchor.numerator, enc.anchor.denominator
    w, side = enc.log2_err, enc.side

    def bail(msg):
        raise PrecisionExhausted(
            f"{msg} after {len(qs)} certified quotients",
            last_certified=len(qs) - 1,
            partial=ContinuedFraction(tuple(qs)) if qs else None)

    for k in range(K + 1):
        fl, r = divmod(p, q)
        if w != -_INF:
            if side >= 0 and w + 2 >= log2_ratio(q - r, q):
                bail("enclosure straddles the next integer")
            if side <= 0 and (r == 0 or w + 2 >= log2_ratio(r, q)):
                bail("enclosure straddles an integer from below")
        qs.append(fl)
        if k == K:
            break
        if r == 0:
            # the anchor's expansion ends here (rational anchor); the true
            # value continues with a quotient we cannot pin
            bail("anchor expansion terminated (rational anchor)")
        if w != -_INF:
            l2f = log2_ratio(r, q)
            if w + 2 >= l2f:
                bail("error radius reached the fractional part")
            w = w - 2 * l2f + 1
        p, q = q, r
        side = -side
    return ContinuedFraction(tuple(qs))


# ---------------------------------------------------------------------------
# ThetaSpec variants
# ---------------------------------------------------------------------------


class Theta:
    """Base class for multiplier specifications in the correlation integral
    and the Diophantine machinery."""

    is_rational = False
    spec: str = ""

    def enclosure(self, bits: int) -> Enclosure:
        """An enclosure at least `bits` bits tight when the spec's data
        allows, else the tightest the data holds, marked final.  It never
        raises for lack of data: the callers that need a given accuracy
        raise PrecisionExhausted.  A theta given by finite data builds its
        one final enclosure, `_enc`, with itself and returns it for every
        `bits`; surds, golden and tau-beta override this."""
        return self._enc

    def best_enclosure(self, bits: int) -> Enclosure:
        """enclosure() at a request of at least one bit: the one entry point
        of every escalation, which bench/spans.py times by name."""
        return self.enclosure(max(bits, 1))

    def value(self, bits: int = 256) -> mpmath.mpf:
        """The one theta -> number path: best_enclosure(bits)'s anchor."""
        return fraction_to_mpf(self.best_enclosure(bits).anchor, max(bits, 53))

    def __float__(self) -> float:
        """The one double that every float path uses for theta: its
        128-bit value rounded to 53 bits."""
        return float(self.value(128))

    def continued_fraction(self, K: int) -> ContinuedFraction:
        """First K+1 certified partial quotients."""
        for enc in _escalating_enclosures(self, 64):
            try:
                return _cf_from_enclosure(enc, K)
            except PrecisionExhausted as e:
                last_err = e
        raise last_err

    def __repr__(self):
        return f"{type(self).__name__}({self.spec!r})"


class RationalTheta(Theta):
    is_rational = True

    def __init__(self, a: int, b: int):
        if a <= 0 or b <= 0:
            raise ValueError("rational theta must be positive")
        g = math.gcd(a, b)
        self.a, self.b = a // g, b // g
        self.spec = f"rat:{self.a}/{self.b}"
        self._enc = Enclosure(Fraction(self.a, self.b), -_INF, 0, final=True)


class SurdTheta(Theta):
    def __init__(self, d: int):
        if d < 2 or math.isqrt(d) ** 2 == d:
            raise ValueError("d must be a non-square integer >= 2")
        self.d = d
        self.spec = f"surd:{d}"

    def enclosure(self, bits: int) -> Enclosure:
        prec = bits + 16
        anchor = to_fraction(sqrt_const(self.d, prec))
        err = 0.5 * math.log2(self.d) + 2 - prec
        return Enclosure(anchor, err, 0)

    def continued_fraction(self, K: int) -> ContinuedFraction:
        return cf_expand_surd(self.d, K)


class GoldenTheta(Theta):
    """The golden ratio (1 + sqrt 5)/2 = [1; 1, 1, ...]."""

    def __init__(self):
        self.spec = "golden"

    def enclosure(self, bits: int) -> Enclosure:
        prec = bits + 16
        anchor = (1 + to_fraction(sqrt_const(5, prec))) / 2
        return Enclosure(anchor, 3 - prec, 0)

    def continued_fraction(self, K: int) -> ContinuedFraction:
        return ContinuedFraction(tuple([1] * (K + 1)), period=(1,))


class CFLiteralTheta(Theta):
    """Number given directly by finitely many partial quotients.  Its
    enclosure is the last convergent c_K; theta lies above it for even K,
    below for odd K."""

    def __init__(self, cf: ContinuedFraction, spec: str | None = None):
        if len(cf) < 2:
            raise ValueError("need at least a0 and a1")
        self.cf = cf
        self._convs = convergents(cf)
        self.spec = spec or ("cf:[" + str(cf.quotients[0]) + ";" +
                             ",".join(map(str, cf.quotients[1:])) + "]")
        side = 1 if (len(self._convs) - 1) % 2 == 0 else -1
        self._enc = Enclosure(self._convs[-1].as_fraction(), self._tail_log2(),
                              side, final=True)

    def _tail_log2(self) -> float:
        # |theta - c_K| < 1/(m_K m_{K+1}) and m_{K+1} >= m_K + m_{K-1}
        mk = self._convs[-1].m
        mk1_lb = mk + (self._convs[-2].m if len(self._convs) >= 2 else 1)
        return -(math.log2(mk) + math.log2(mk1_lb))

    def continued_fraction(self, K: int) -> ContinuedFraction:
        if K + 1 > len(self.cf):
            raise PrecisionExhausted(
                f"only {len(self.cf)} quotients available",
                last_certified=len(self.cf) - 1, partial=self.cf)
        return ContinuedFraction(self.cf.quotients[:K + 1])


class TauBetaTheta(Theta):
    """Liouville-type series sum_i (b/a)^{t_i} with tower exponents
    t_1 = 1, t_{i+1} = a^{t_i}, for beta = a/b > 1 in lowest terms.

    `depth` only sizes the `cf --construct` table; float(theta) and every
    other path read the series.  The certified data is one table, built
    with the theta: the towers t_1 .. t_{D+1}, ended by the first tower with
    more than 40 bits or whose power a^t would outgrow PARTIAL_SUM_BITS, and
    the log2 tail bound after each depth 0..D, where D = max_depth().  The
    exact partial sums to D grow in one list on demand; enclosures walk the
    tails.
    """

    def __init__(self, a: int, b: int, depth: int):
        if b < 1 or a <= b or math.gcd(a, b) != 1:
            raise ValueError("need a > b >= 1 with gcd(a, b) = 1")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.a, self.b, self.depth = a, b, depth
        self.spec = f"taubeta:{a}/{b}:{depth}"
        # the bit-length test first keeps a huge t out of the float product
        l2a = math.log2(a)
        towers = [1]
        while not (towers[-1].bit_length() > 40
                   or towers[-1] * l2a > PARTIAL_SUM_BITS):
            towers.append(a ** towers[-1])
        self._towers = towers
        # the tail after depth d is < 2x the next term, beta^-t_{d+1}; past
        # float range it reads -inf
        l2beta = l2a - math.log2(b)
        lts = [t * l2beta - 1 if t.bit_length() <= 50 else _INF
               for t in towers]
        self._tails = [-lt if lt < 1e15 else -_INF for lt in lts]
        self._sums = [Fraction(0)]

    def tower(self, i: int) -> int:
        """t_i (1-indexed) for i <= max_depth() + 1; raises
        PrecisionExhausted past the table."""
        if i > len(self._towers):
            raise PrecisionExhausted(
                f"tower exponent a^t_{len(self._towers)} exceeds bit budget",
                last_certified=len(self._towers))
        return self._towers[i - 1]

    def max_depth(self) -> int:
        """Largest depth whose exact partial sum fits the bit budget."""
        return len(self._towers) - 1

    def partial_sum(self, depth: int) -> Fraction:
        """Exact sum of the first `depth` terms, 0 <= depth <= max_depth();
        past that it raises before building anything."""
        dmax = self.max_depth()
        if depth > dmax:
            raise PrecisionExhausted(
                f"depth {depth} exceeds the bit budget; max safe depth is "
                f"{dmax}", last_certified=dmax)
        for t in self._towers[len(self._sums) - 1:depth]:
            # a Fraction power keeps the coprime pair: no gcd on the powers
            self._sums.append(self._sums[-1] + Fraction(self.b, self.a) ** t)
        return self._sums[depth]

    def tail_log2(self, depth: int) -> float:
        """log2 bound for the tail after `depth` terms.  Past max_depth()
        the next tower has more than 50 bits, so the bound reads -inf, as
        the table's own entries do for such towers."""
        return self._tails[depth] if depth < len(self._tails) else -_INF

    def enclosure(self, bits: int) -> Enclosure:
        d, dmax = 1, self.max_depth()
        while d < dmax and self._tails[d] > -bits:
            d += 1
        return Enclosure(self.partial_sum(d), self._tails[d], 1,
                         final=d == dmax)


class JarnikTheta(CFLiteralTheta):
    """Number constructed to be approximable to a prescribed order: partial
    quotients grow like psi(m_k)/m_k (see construct_jarnik).  When the target
    K outgrows the quotient bit budget the constructible prefix is used
    (`truncated` keeps the reason); the enclosure width still accounts for
    the (unbuilt) next quotient."""

    def __init__(self, psi: PsiFunction, K: int):
        self.psi = psi
        self.truncated = None
        try:
            cf = construct_jarnik(psi, K)
        except PrecisionExhausted as e:
            if e.partial is None:
                raise
            self.truncated = e
            cf = e.partial
        super().__init__(cf, f"jarnik:{psi.text}:{K}")

    def _tail_log2(self) -> float:
        # m_{K+1} >= a_{K+1} m_K >= psi(m_K), and m_{K+1} > m_K
        mK = self._convs[-1].m
        l2m = math.log2(mK)
        l2next = max(l2m, self.psi.log2(mK))
        return -(l2m + l2next)


class DecimalTheta(Theta):
    """Positive number given by a decimal literal int[.frac][e|E[+-]exp],
    trusted to +-1 unit in the last written digit: 10^(exp - len(frac))."""

    def __init__(self, digits: str):
        lit = _DECIMAL.fullmatch(digits)
        if lit is None:
            raise ThetaParseError(f"bad decimal literal {digits!r}", 4)
        self.digits = digits
        self.exact = Fraction(digits)
        if self.exact <= 0:
            raise ValueError("theta must be positive")
        frac, exp = lit.group(1) or "", int(lit.group(2) or 0)
        self._enc = Enclosure(self.exact, math.log2(10.0) * (exp - len(frac)),
                              0, final=True)
        self.spec = f"dec:{digits}"


def theta_parse(text: str) -> Theta:
    """Parse the theta mini-grammar:

    rat:a/b | surd:d | golden | cf:[a0;a1,a2,...] | taubeta:a/b:depth |
    jarnik:<psi-expr>:K | dec:<int>[.<frac>][e<exp>]
    """
    head, sep, rest = text.partition(":")
    if head == "golden":
        if sep:
            raise ThetaParseError("golden takes no parameter", len(head) + 1)
        return GoldenTheta()
    if not sep:
        raise ThetaParseError(f"unknown theta spec {text!r}", 0)
    pos = len(head) + 1
    try:
        if head == "rat":
            a, _, b = rest.partition("/")
            return RationalTheta(int(a), int(b) if b else 1)
        if head == "surd":
            return SurdTheta(int(rest))
        if head == "dec":
            return DecimalTheta(rest)
        if head == "cf":
            if not (rest.startswith("[") and rest.endswith("]")):
                raise ThetaParseError("cf literal must look like cf:[a0;a1,...]", pos)
            body = rest[1:-1]
            a0s, _, tail = body.partition(";")
            quots = [int(a0s)] + [int(t) for t in tail.split(",") if t]
            return CFLiteralTheta(ContinuedFraction(tuple(quots)), spec=text)
        if head == "taubeta":
            ab, _, depth = rest.rpartition(":")
            a, _, b = ab.partition("/")
            return TauBetaTheta(int(a), int(b) if b else 1, int(depth))
        if head == "jarnik":
            psi_text, _, K = rest.rpartition(":")
            return JarnikTheta(psi_parse(psi_text), int(K))
    except ThetaParseError:
        raise
    except (ValueError, ZeroDivisionError) as e:
        raise ThetaParseError(f"bad parameters for {head!r}: {e}", pos) from None
    raise ThetaParseError(f"unknown theta spec {head!r}", 0)


def _require_irrational(theta: Theta, op: str):
    if theta.is_rational:
        raise ValueError(f"{op} requires an irrational theta, got {theta.spec}")


# ---------------------------------------------------------------------------
# cf_expand and distances
# ---------------------------------------------------------------------------


def cf_expand(theta: Theta, K: int) -> ContinuedFraction:
    """First K+1 certified partial quotients of the theta spec `theta`.

    Raises PrecisionExhausted naming the last certified index when the
    spec's data cannot pin quotient K.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    _require_irrational(theta, "cf_expand")
    return theta.continued_fraction(K)


def _coprime_fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) for a pair already in lowest terms (den >= 1),
    set directly: Fraction() would run the gcd of the full pair again, and
    even Fraction.__new__ alone runs its argument checks in Python."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = num, den
    return f


def _dist_from_enclosure(enc: Enclosure, m: int):
    """(exact anchor distance, log2 error radius) of ||m * theta||.

    x -> dist(x, Z) is 1-Lipschitz, so the radius is m * 2**log2_err.
    The distance is min(r, den - r) / den for r = m * num mod den, with the
    anchor num / den in lowest terms; both r and den - r share exactly
    g = gcd(m, den) with den, so dividing by g reduces the pair, with no gcd
    of the full pair (huge for tau-beta anchors).
    """
    num, den = enc.anchor.numerator, enc.anchor.denominator
    r = m * num % den
    g = math.gcd(m, den)
    d = _coprime_fraction(min(r, den - r) // g, den // g)
    err = enc.log2_err + math.log2(m) if enc.log2_err != -_INF else -_INF
    return d, err


def _m_theta(m: int) -> str:
    """||m * theta|| for a message: m by its bit length from 10^4300 on,
    where str(m) raises and its hex can run to hundreds of thousands of
    characters."""
    if m < _DECIMAL_LIMIT:
        return f"||{m} * theta||"
    return f"||m * theta|| at a {m.bit_length()}-bit m"


def _resolve_distance(theta: Theta, m: int):
    """Certified (dist, log2_err): the radius is at least _DIST_REL_BITS
    below the distance itself (or exactly zero).  Escalates the enclosure
    on demand."""
    for enc in _escalating_enclosures(theta, max(96, m.bit_length() + 96)):
        d, err = _dist_from_enclosure(enc, m)
        if err == -_INF:
            if d == 0:
                raise PrecisionExhausted(
                    f"{_m_theta(m)} below representable resolution")
            return d, err
        if d > 0 and err <= log2_fraction(d) - _DIST_REL_BITS:
            return d, err
    raise PrecisionExhausted(
        f"{_m_theta(m)} not resolved at the available precision "
        f"(anchor distance {float(d):.4g}, radius 2^{err:.4g})")


def _signs(theta: Theta, m: int, qs: tuple, bits: int) -> tuple:
    """The certified sign (+1 or -1) of m*theta - q for each rational q in
    `qs`, from one pass of escalating enclosures starting at `bits`.

    An enclosure decides q when its radius m 2^log2_err is at most half of
    |m*anchor - q| (compared in log2, so the radius is never built), or when
    q lies at m*anchor or beyond it on the side a one-sided enclosure
    excludes: then the sign is the enclosure's side.
    """
    for enc in _escalating_enclosures(theta, bits):
        x, radius = m * enc.anchor, enc.log2_err + math.log2(m)
        out = []
        for q in qs:
            diff = x - q
            if enc.side and diff * enc.side >= 0:
                out.append(enc.side)
            elif diff and radius <= log2_fraction(abs(diff)) - 1:
                out.append(1 if diff > 0 else -1)
            else:
                break
        else:
            return tuple(out)
    raise PrecisionExhausted("theta comparison not resolved")


def _distance_upper(theta: Theta, m: int) -> Fraction:
    """A certified upper bound on ||m theta||: the anchor distance plus the
    radius, one bit wider, of theta's tightest enclosure.  Unlike
    _resolve_distance it needs no relative accuracy, so an anchor at a
    convergent n/m (distance 0) still gives a bound."""
    *_, enc = _escalating_enclosures(theta, max(96, m.bit_length() + 96))
    d, err = _dist_from_enclosure(enc, m)
    if err == -_INF:
        return d
    # the radius is widened to at least 2^-_MAX_EXPAND_BITS: u stays an upper
    # bound, and a Liouville-scale err builds no huge power of 2
    return d + Fraction(2) ** max(math.ceil(err) + 1, -_MAX_EXPAND_BITS)


def nearest_distance(theta: Theta, m: int) -> mpmath.mpf:
    """||m * theta||, the distance from m*theta to the nearest integer.

    Certified from the spec's exact data to ~12 significant digits; returns
    an mpf (values such as 2^-65520 underflow a double).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _require_irrational(theta, "nearest_distance")
    d, _ = _resolve_distance(theta, m)
    return fraction_to_mpf(d, 96)


def legendre_is_convergent(theta: Theta, n: int, m: int) -> bool:
    """Legendre predicate: |n - m*theta| < 1/(2m) (n/m reduced first).

    By Legendre's criterion a True answer forces n/m to be a convergent of
    theta's continued fraction.
    """
    if m == 0:
        raise ValueError("m must be positive")
    _require_irrational(theta, "legendre_is_convergent")
    g = math.gcd(abs(n), m)
    return _legendre_holds(theta, n // g, m // g)


def _legendre_holds(theta: Theta, n: int, m: int) -> bool:
    """Certified |n - m*theta| < 1/(2m) for m >= 1, as given (no reduction):
    m*theta lies above n - 1/(2m) and below n + 1/(2m)."""
    h = Fraction(1, 2 * m)
    return _signs(theta, m, (n - h, n + h),
                  max(64, 2 * m.bit_length() + 80)) == (1, -1)


def _convergents_past(theta: Theta, M: int) -> list[Convergent]:
    """theta's certified convergents through the least K with
    F_{K+1} > M, so that q_K > M (q_K >= F_{K+1}).  When theta's data
    certifies fewer quotients, the certified prefix, which the last
    enclosure fixes whatever K is; [] when it certifies none."""
    K, f, g = 1, 1, 2  # f = F_{K+1}, g = F_{K+2}
    while f <= M:
        K, f, g = K + 1, g, f + g
    try:
        cf = cf_expand(theta, K)
    except PrecisionExhausted as e:
        cf = e.partial
    return convergents(cf) if cf is not None else []


def legendre_hits(theta: Theta, M: int) -> list[int]:
    """The set {m <= M : ||m theta|| < 1/(2m)}, exactly, in O(K + hits)
    certified comparisons for the K convergents with denominator <= M.

    By Legendre's theorem a hit m reduces to a convergent p_k/q_k, m = g q_k,
    and then ||m theta|| = g |p_k - q_k theta|.  So the hits are the
    g q_k <= M with |g p_k - g q_k theta| < 1/(2 g q_k); that condition is
    monotone in g, so g counts up from 1 to the first miss.

    When the certified expansion stops at q_K, an unknown convergent has
    q_{K+1} >= q_K + q_{K-1}, and q_{K+1} > 1/u - q_K for a certified upper
    bound u on ||q_K theta|| (as ||q_K theta|| > 1/(q_{K+1} + q_K)).  When
    q_{K+1} may lie at or below M by both bounds, or a candidate does not
    resolve, raises PrecisionExhausted: last_certified is the largest m
    below both, and `partial` holds the hits up to it.
    """
    _require_irrational(theta, "legendre_hits")
    convs = _convergents_past(theta, M)
    limit = 0
    if len(convs) > 1:
        qK = convs[-1].m
        limit = qK + convs[-2].m - 1
        if limit < M:
            u = _distance_upper(theta, qK)
            if u > 0:
                limit = max(limit, math.ceil(1 / u - qK) - 1)
        limit = min(M, limit)
    hits = set()
    for c in convs:
        g = 1
        while g * c.m <= limit:
            try:
                if not _legendre_holds(theta, g * c.n, g * c.m):
                    break
            except PrecisionExhausted:
                limit = g * c.m - 1
                break
            hits.add(g * c.m)
            g += 1
    out = sorted(m for m in hits if m <= limit)
    if limit < M:
        raise PrecisionExhausted(f"Legendre hits certified only to m={limit}",
                                 last_certified=limit, partial=out)
    return out


# ---------------------------------------------------------------------------
# Approximability scans
# ---------------------------------------------------------------------------


class ApproximationEvent(NamedTuple):
    """One tested m: `hit` is the certified ||m theta|| < 1/psi(m), and `d`
    the exact anchor of ||m theta||.  The 96-bit values `dist` and
    `threshold` are computed when read; the scan decides without them.
    A tuple, since a scan builds thousands of them."""

    m: int
    d: Fraction
    psi: PsiFunction
    hit: bool
    is_convergent: bool = False

    @property
    def dist(self) -> mpmath.mpf:
        return fraction_to_mpf(self.d, 96)

    @property
    def threshold(self) -> mpmath.mpf:
        with mpmath.workprec(96):
            return 1 / self.psi.eval(self.m, 96)


@dataclass(frozen=True)
class ScanResult:
    events: tuple
    certified_to: int
    fast_path_from: int | None

    @property
    def hits(self) -> list[int]:
        return [e.m for e in self.events if e.hit]


def _screen(m: int, l2d: float, l2thr: float, err: float,
            exact: bool) -> bool:
    """Whether the log2 screen decides dist < 1/psi(m), for dist = d +- 2^err
    with l2d a float near log2(d) and l2thr = -psi.log2(m); when it does,
    the answer is l2d < l2thr.  `exact` says psi has an exact pair.

    For m <= 2**53, l2d and l2thr must be floats within 2**-20 of the exact
    logs while both are at most 2**30 in magnitude (psi.log2 and log2_ratio
    are measured against a 256-bit reference in tests/test_realfield.py).
    When they differ by more than 1 bit, the order of d and 1/psi(m) is the
    order of the floats, and the larger value exceeds the smaller by a
    factor above 2**(1 - 2**-19), so the exact gap is at least half the
    larger: log2(gap) >= max(l2d, l2thr) - 1 - 2**-17.  A radius
    err <= max(l2d, l2thr) - 3 therefore stays below the exact test's limit
    log2(gap) - 1, and the screen returns what that test would.

    Families with an exact psi(m) = P/Q take that bound; the exact test
    compares num * P with Q * den.  The others keep the bound
    min(l2d, l2thr) - 3, because their fallback, a comparison in log2 with
    a 1e-6 guard band, already gives up at err > min(l2d, l2thr) - 2.
    """
    lo, hi = (l2d, l2thr) if l2d < l2thr else (l2thr, l2d)
    return (m <= _SCREEN_M_MAX and hi - lo > 1
            and -_SCREEN_LOG2_MAX <= lo and hi <= _SCREEN_LOG2_MAX
            and err <= (hi if exact else lo) - 3)


def _compare_dist_threshold(num: int, den: int, err: float,
                            psi: PsiFunction, m: int) -> bool:
    """Certified comparison dist < 1/psi(m), where dist = num/den +- 2^err
    and num/den, the anchor distance, is a reduced pair (num >= 0,
    den >= 1).  l2d = log2_ratio(num, den) is the float that log2_fraction
    gives on Fraction(num, den), so the pair is decided on the same floats
    and integers as that Fraction, with no Fraction arithmetic: first by
    _screen, then, when psi has an exact pair P/Q, by num * P against
    Q * den, else in log2 with a guard band.
    """
    l2thr = -psi.log2(m)
    l2d = log2_ratio(num, den) if num else -_INF
    if _screen(m, l2d, l2thr, err, psi.has_exact_pair):
        return l2d < l2thr
    if psi.has_exact_pair:
        # num/den < Q/P  <=>  num * P < Q * den
        P, Q = psi.exact_pair(m)
        diff = num * P - Q * den
        if diff == 0:
            if err != -_INF:
                raise PrecisionExhausted(f"scan comparison unresolved at m={m}")
            return False  # boundary: strict inequality fails
        # gap = |num/den - Q/P| = |diff| / (den * P)
        if err != -_INF and err > log2_ratio(abs(diff), den * P) - 1:
            raise PrecisionExhausted(f"scan comparison unresolved at m={m}")
        return diff < 0
    # no exact threshold available: compare in log2 with a wide guard band
    if err != -_INF and err > min(l2d, l2thr) - 2:
        raise PrecisionExhausted(f"scan comparison unresolved at m={m}")
    if abs(l2d - l2thr) < 1e-6:
        raise PrecisionExhausted(f"scan comparison too close to call at m={m}")
    return l2d < l2thr


def approximability_scan(theta: Theta, psi: PsiFunction, M: int) -> ScanResult:
    """All m <= M with ||m theta|| < 1/psi(m), plus near-miss events at the
    convergent denominators, for 1 <= M < 2**63 (the crossover bisects
    range(1, M + 1), whose length must fit a C ssize_t).

    Hybrid strategy: below the crossover m* (the first m with psi(m) >= 2M)
    every m is tested; at and beyond m*, any hit has
    ||m theta|| < 1/(2M) <= 1/(2m), so by Legendre's theorem it is g q_k for
    a convergent denominator q_k with g ||q_k theta|| < 1/2 (the route of
    legendre_hits).  Only those multiples are tested there, and each takes
    its distance from the convergent's resolved one: while g d <= 1/2,
    ||g q_k theta|| is g d with radius g 2^err, the same relative radius.
    With d = p/q reduced, that is 2 g p <= q, and g d is the reduced pair
    (g p / h, q / h) for h = gcd(g, q).

    Each event is decided on the reduced pair of its exact anchor distance,
    from log2 values and, for near-ties, integer cross-multiplication, with
    no Fraction arithmetic and without building psi(m): its 96-bit `dist`
    and `threshold` are computed only when read.  The walk over the
    multiples takes one log2_ratio per convergent: l2d = L + log2 g for
    L = log2_ratio(p, q) is within 2**-20 of log2(g d), as _screen needs,
    while |l2d| <= 2**30 (2**-23 at worst, measured against a 256-bit
    reference in tests/test_realfield.py); events the screen leaves go to
    _compare_dist_threshold on the reduced pair.

    certified_to is M unless a distance or comparison does not resolve at
    some m (then at most m - 1), or m* <= M and the certified expansion
    ends at a convergent q_K <= M (then at most q_K; m* - 1 when no
    quotient is certified).
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    _require_irrational(theta, "approximability_scan")

    # crossover: smallest m <= M with psi(m) >= 2M, else M + 1 (psi.log2 is
    # non-decreasing in m)
    m_star = 1 + bisect.bisect_left(range(1, M + 1), math.log2(2 * M),
                                    key=psi.log2)

    events = {}
    certified_to = M

    def add_event(m, is_conv=False, dist=None):
        nonlocal certified_to
        if m in events:
            if is_conv and not events[m].is_convergent:
                events[m] = events[m]._replace(is_convergent=True)
            return
        try:
            d, err = dist or _resolve_distance(theta, m)
            hit = _compare_dist_threshold(d.numerator, d.denominator, err,
                                          psi, m)
        except PrecisionExhausted:
            certified_to = min(certified_to, m - 1)
            return
        events[m] = ApproximationEvent(m, d, psi, hit, is_conv)

    for m in range(1, min(m_star - 1, M) + 1):
        add_event(m)

    fast_from = m_star if m_star <= M else None

    # convergent denominators and their admissible multiples
    exact = psi.has_exact_pair
    convs = _convergents_past(theta, M)
    for c in convs:
        if c.m > M:
            break
        try:
            d, err = _resolve_distance(theta, c.m)
        except PrecisionExhausted:
            certified_to = min(certified_to, c.m - 1)
            continue
        add_event(c.m, True, (d, err))
        if m_star > M:
            continue
        # a fast-region hit at g*m_k forces g*||m_k theta|| < 1/2, that is
        # 2 g p <= q: the g up to g_half share the convergent's distance,
        # and the first g past it resolves its own
        p, q = d.numerator, d.denominator
        g_lo, g_hi = max(2, -(-m_star // c.m)), M // c.m
        g_half = min(g_hi, q // (2 * p))
        L = log2_ratio(p, q)
        for g in range(g_lo, g_half + 1):
            m = g * c.m
            if m in events:
                continue
            lg = math.log2(g)
            l2d, e = L + lg, err + lg
            h = math.gcd(g, q)
            num, den = (g * p // h, q // h) if h > 1 else (g * p, q)
            l2thr = -psi.log2(m)
            if _screen(m, l2d, l2thr, e, exact):
                hit = l2d < l2thr
            else:
                try:
                    hit = _compare_dist_threshold(num, den, e, psi, m)
                except PrecisionExhausted:
                    certified_to = min(certified_to, m - 1)
                    continue
            events[m] = ApproximationEvent(m, _coprime_fraction(num, den),
                                           psi, hit)
        if g_lo <= g_half + 1 <= g_hi:
            add_event((g_half + 1) * c.m)
    # the fast region is complete only if the expansion reached past M
    if m_star <= M:
        certified_to = min(certified_to,
                           convs[-1].m if convs else m_star - 1)

    evs = tuple(sorted(events.values(), key=lambda e: e.m))
    return ScanResult(events=evs, certified_to=certified_to,
                      fast_path_from=fast_from)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def construct_tau_beta(a: int, b: int, depth: int) -> TauBetaTheta:
    """The series 1/beta^{t_1} + 1/beta^{t_2} + ... with beta = a/b > 1 in
    lowest terms and tower exponents t_1 = 1, t_{i+1} = a^{t_i}, built to
    `depth` terms: tower(i), partial_sum(depth) and tail_log2(depth) are
    exact data.  The theta's value stays that of the whole series.

    Raises PrecisionExhausted reporting the max safe depth when the partial
    sum at `depth` outgrows the bit budget (partial_sum's own check).
    """
    theta = TauBetaTheta(a, b, depth)
    theta.partial_sum(depth)
    return theta


def construct_jarnik(psi: PsiFunction, K: int) -> ContinuedFraction:
    """Continued fraction [0; 1, a_2, ..., a_K] with
    a_{k+1} = max(1, ceil(psi(m_k)/m_k)), so that every convergent
    denominator satisfies ||m_k theta|| < 1/m_{k+1} <= 1/psi(m_k).

    Requires psi(x)/x to actually grow (1/psi(x) = o(1/x)): a construction
    whose quotients degenerate to all ones raises ConstructionInfeasible.
    Quotients larger than DEFAULT_QUOTIENT_BITS bits raise PrecisionExhausted
    carrying the constructible prefix.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    qs = [0, 1]
    m_prev, m_cur = 1, 1  # m_0, m_1
    for k in range(2, K + 1):
        try:
            ak = max(1, psi.ceil_div(m_cur, DEFAULT_QUOTIENT_BITS))
        except PrecisionExhausted as e:
            raise PrecisionExhausted(
                f"quotient a_{k} exceeds the {DEFAULT_QUOTIENT_BITS}-bit budget; "
                f"max constructible K is {k - 1}",
                last_certified=k - 1,
                partial=ContinuedFraction(tuple(qs))) from e
        qs.append(ak)
        m_prev, m_cur = m_cur, ak * m_cur + m_prev
    if K >= 2 and all(a == 1 for a in qs[2:]):
        raise ConstructionInfeasible(
            "psi grows too slowly: quotients degenerate to all ones, the "
            "construction cannot prescribe the approximation order")
    return ContinuedFraction(tuple(qs))


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of the classical convergent identities on a CF prefix."""

    K: int
    determinant_ok: bool
    alternation_ok: bool
    sandwich_ok: bool
    sandwich_checked: int
    fibonacci_ok: bool
    fibonacci_all_equal: bool

    @property
    def all_ok(self) -> bool:
        return (self.determinant_ok and self.alternation_ok
                and self.sandwich_ok and self.fibonacci_ok)


def convergent_invariants(theta: Theta, K: int) -> InvariantReport:
    """Check, exactly, the classical identities on the first K+1 convergents:

    - determinant: n_k m_{k-1} - n_{k-1} m_k = (-1)^{k-1}
    - alternation: even convergents below theta, odd above
    - sandwich: 1/(m_{k+1} m_k + m_k^2) < |theta - n_k/m_k| < 1/(m_{k+1} m_k)
    - Fibonacci growth: m_k >= F_{k+1}, equality only for all-ones quotients

    The sandwich needs m_{k+1}, so it covers k <= K-1 (and for enclosures
    anchored at c_K, k <= K-2).
    """
    cf = cf_expand(theta, K)
    convs = convergents(cf)
    det_ok = all(
        convs[k].n * convs[k - 1].m - convs[k - 1].n * convs[k].m == (-1) ** (k - 1)
        for k in range(1, len(convs)))

    alt_ok = True
    sand_ok = True
    sand_checked = 0
    anchored_here = isinstance(theta, CFLiteralTheta)
    top = len(convs) - (3 if anchored_here else 2)
    for k, ck in enumerate(convs):
        c = ck.as_fraction()
        qs = (c,)
        if 1 <= k <= top:
            # the sandwich: B < |theta - c_k| < A
            A = Fraction(1, ck.m * convs[k + 1].m)
            B = Fraction(1, ck.m * (convs[k + 1].m + ck.m))
            qs = (c, c - A, c - B, c + B, c + A)
        try:
            sg = _signs(theta, 1, qs, 96)
        except PrecisionExhausted:
            continue
        if sg[0] != (1 if k % 2 == 0 else -1):
            alt_ok = False
        if len(sg) > 1:
            sand_ok &= sg[1:] in ((1, -1, -1, -1), (1, 1, 1, -1))
            sand_checked += 1

    fib_ok = equal_everywhere = True
    f, g = 1, 1  # F_{k+1}, F_{k+2} at k = 0
    for c in convs:
        fib_ok &= c.m >= f
        equal_everywhere &= c.m == f
        f, g = g, f + g
    all_ones = all(a == 1 for a in cf.quotients[1:])
    fib_equality_consistent = (equal_everywhere == all_ones)

    return InvariantReport(K=len(convs) - 1, determinant_ok=det_ok,
                           alternation_ok=alt_ok, sandwich_ok=sand_ok,
                           sandwich_checked=sand_checked,
                           fibonacci_ok=fib_ok and fib_equality_consistent,
                           fibonacci_all_equal=equal_everywhere)


@dataclass(frozen=True)
class BaseEstimate:
    estimate: float
    low: float
    high: float
    k_used: int


def irrationality_base_estimate(cf: ContinuedFraction) -> BaseEstimate:
    """Estimate of the least beta with ||m theta|| >= (beta + eps)^{-m} for
    all large m, from the convergent sandwich
    1/(m_{k+1} + m_k) < ||m_k theta|| < 1/m_{k+1}.

    Per-index values (1/||m_k theta||)^{1/m_k} are contaminated by small
    denominators, so the maximum is taken over the top half of the available
    indices; the sandwich interval at the maximizing k is reported.
    """
    convs = convergents(cf)
    if len(convs) < 3:
        raise ValueError("need at least 3 convergents")
    usable = len(convs) - 1  # index k needs m_{k+1}
    start = max(1, usable // 2)

    def bounds(k):
        """(mid, lo, hi, k): the log2 sandwich at index k, all 0.0 where
        the exponent underflows (the estimate is exactly 1)."""
        mk, mk1 = convs[k].m, convs[k + 1].m
        if mk.bit_length() > 900:
            return 0.0, 0.0, 0.0, k
        lo, hi = math.log2(mk1) / mk, math.log2(mk1 + mk) / mk
        return 0.5 * (lo + hi), lo, hi, k

    mid, lo, hi, k = max(map(bounds, range(start, usable)),
                         key=lambda b: b[0])
    return BaseEstimate(estimate=2.0**mid, low=2.0**lo, high=2.0**hi, k_used=k)
