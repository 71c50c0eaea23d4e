"""Continued fractions, rational-approximation measurements, and explicit
Liouville-number constructions.

Constructed numbers (tau_beta series, Jarnik-style continued fractions) are
represented by their exact defining data, never by a floating approximation:
distances ||m*theta|| are computed from an exact rational anchor plus a
rigorous error radius tracked in log2 form, so Liouville-scale cancellation
costs nothing.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath

from .errors import (ConstructionInfeasible, PrecisionExhausted,
                     ThetaParseError)
from .realfield import (PsiFunction, _fmt_int, fraction_to_mpf,
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


def fibonacci(k: int) -> int:
    """F_k with F_1 = F_2 = 1, by fast doubling (exact)."""
    if k < 0:
        raise ValueError("k must be >= 0")

    def fd(n):
        if n == 0:
            return 0, 1
        a, b = fd(n >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        return (d, c + d) if n & 1 else (c, d)

    return fd(k)[0]


# ---------------------------------------------------------------------------
# Continued fractions and convergents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Convergent:
    k: int
    n: int  # numerator
    m: int  # denominator (positive)

    def as_fraction(self) -> Fraction:
        return Fraction(self.n, self.m)


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
    """All convergents n_k/m_k of `cf`, big-integer exact.

    Initial conditions n0 = a0, m0 = 1, n1 = a0 a1 + 1, m1 = a1, then the
    standard two-term recurrence.
    """
    a = cf.quotients
    out = [Convergent(0, a[0], 1)]
    if len(a) == 1:
        return out
    out.append(Convergent(1, a[0] * a[1] + 1, a[1]))
    for k in range(2, len(a)):
        n = a[k] * out[-1].n + out[-2].n
        m = a[k] * out[-1].m + out[-2].m
        out.append(Convergent(k, n, m))
    return out


def cf_expand_surd(d: int, K: int) -> ContinuedFraction:
    """Exact expansion of sqrt(d) via the periodic (P, Q) recurrence.

    Returns quotients a_0..a_K; the repeating block (which starts at index 1
    for square roots) is recorded in `period`.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    a0 = math.isqrt(d)
    if a0 * a0 == d:
        raise ValueError(f"{d} is a perfect square")
    block = []
    P, Q = a0, d - a0 * a0
    seen = {}
    while (P, Q) not in seen:
        seen[(P, Q)] = len(block)
        a = (a0 + P) // Q
        block.append(a)
        P = a * Q - P
        Q = (d - P * P) // Q
    start = seen[(P, Q)]
    period = tuple(block[start:])
    # sqrt(d) is purely periodic after a0
    full = [a0] + [block[i] if i < len(block) else
                   period[(i - start) % len(period)] for i in range(K)]
    return ContinuedFraction(tuple(full), period=period)


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

    Raises PrecisionExhausted (carrying the certified prefix) as soon as the
    enclosure can no longer pin a quotient.
    """
    qs = []
    a, w, side = enc.anchor, enc.log2_err, enc.side

    def bail(msg):
        raise PrecisionExhausted(
            f"{msg} after {len(qs)} certified quotients",
            last_certified=len(qs) - 1,
            partial=ContinuedFraction(tuple(qs)) if qs else None)

    for k in range(K + 1):
        fl = a.numerator // a.denominator
        frac = a - fl
        if w != -_INF:
            if side >= 0:
                gap_hi = 1 - frac
                if w + 2 >= log2_fraction(gap_hi):
                    bail("enclosure straddles the next integer")
            if side <= 0:
                if frac == 0 or w + 2 >= log2_fraction(frac):
                    bail("enclosure straddles an integer from below")
        qs.append(fl)
        if k == K:
            break
        if frac == 0:
            # the anchor's expansion ends here (rational anchor); the true
            # value continues with a quotient we cannot pin
            bail("anchor expansion terminated (rational anchor)")
        if w != -_INF:
            l2f = log2_fraction(frac)
            if w + 2 >= l2f:
                bail("error radius reached the fractional part")
            w = w - 2 * l2f + 1
        a = 1 / frac
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
        raise PrecisionExhausted."""
        raise NotImplementedError

    def best_enclosure(self, bits: int) -> Enclosure:
        """enclosure() at a request of at least one bit: the one entry point
        of every escalation, which bench/spans.py times by name."""
        return self.enclosure(max(bits, 1))

    def value(self, bits: int = 256) -> mpmath.mpf:
        """Floating value at up to `bits` precision (best effort)."""
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

    def enclosure(self, bits: int) -> Enclosure:
        return Enclosure(Fraction(self.a, self.b), -_INF, 0, final=True)


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
    """Number given directly by finitely many partial quotients."""

    def __init__(self, cf: ContinuedFraction, spec: str | None = None):
        if len(cf) < 2:
            raise ValueError("need at least a0 and a1")
        self.cf = cf
        self._convs = convergents(cf)
        self.spec = spec or ("cf:[" + str(cf.quotients[0]) + ";" +
                             ",".join(map(str, cf.quotients[1:])) + "]")

    def _tail_log2(self) -> float:
        # |theta - c_K| < 1/(m_K m_{K+1}) and m_{K+1} >= m_K + m_{K-1}
        mk = self._convs[-1].m
        mk1_lb = mk + (self._convs[-2].m if len(self._convs) >= 2 else 1)
        return -(math.log2(mk) + math.log2(mk1_lb))

    def enclosure(self, bits: int) -> Enclosure:
        """The last convergent c_K; theta lies above it for even K, below
        for odd K."""
        side = 1 if (len(self._convs) - 1) % 2 == 0 else -1
        return Enclosure(self._convs[-1].as_fraction(), self._tail_log2(), side,
                         final=True)

    def continued_fraction(self, K: int) -> ContinuedFraction:
        if K + 1 > len(self.cf):
            raise PrecisionExhausted(
                f"only {len(self.cf)} quotients available",
                last_certified=len(self.cf) - 1, partial=self.cf)
        return ContinuedFraction(self.cf.quotients[:K + 1])


class TauBetaTheta(Theta):
    """Liouville-type series sum_i (b/a)^{t_i} with tower exponents
    t_1 = 1, t_{i+1} = a^{t_i}, for beta = a/b > 1 in lowest terms.

    `depth` is the construction depth used for the floating value; distance
    computations extend the series on demand (exact partial sums plus a log2
    tail bound are cheap until the towers outgrow the bit budget).
    """

    def __init__(self, a: int, b: int, depth: int):
        if b < 1 or a <= b or math.gcd(a, b) != 1:
            raise ValueError("need a > b >= 1 with gcd(a, b) = 1")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.a, self.b, self.depth = a, b, depth
        self.spec = f"taubeta:{a}/{b}:{depth}"
        self._towers = [1]
        self._partials = {}
        self._max_depth = None

    def tower(self, i: int) -> int:
        """t_i (1-indexed); raises PrecisionExhausted when unrepresentable."""
        while len(self._towers) < i:
            t = self._towers[-1]
            if t.bit_length() > 40 or t * math.log2(self.a) > (1 << 26):
                raise PrecisionExhausted(
                    f"tower exponent a^t_{len(self._towers)} exceeds bit budget",
                    last_certified=len(self._towers))
            self._towers.append(self.a ** t)
        return self._towers[i - 1]

    def max_depth(self) -> int:
        """Largest depth whose exact partial sum fits the bit budget."""
        if self._max_depth is None:
            d = 1
            while True:
                try:
                    t_next = self.tower(d + 1)
                except PrecisionExhausted:
                    break
                if (t_next.bit_length() > 40
                        or t_next * math.log2(self.a) > PARTIAL_SUM_BITS):
                    break
                d += 1
            self._max_depth = d
        return self._max_depth

    def partial_sum(self, depth: int) -> Fraction:
        if depth not in self._partials:
            s = Fraction(0)
            for i in range(1, depth + 1):
                t = self.tower(i)
                s += Fraction(self.b ** t, self.a ** t)
            self._partials[depth] = s
        return self._partials[depth]

    def tail_log2(self, depth: int) -> float:
        """log2 bound for the tail after `depth` terms (it is < 2x the next
        term)."""
        try:
            t = self.tower(depth + 1)
        except PrecisionExhausted:
            return -_INF  # tail far below any representable magnitude
        if t.bit_length() > 50:
            return -_INF
        l2beta = math.log2(self.a) - math.log2(self.b)
        lt = t * l2beta - 1
        return -lt if lt < 1e15 else -_INF

    def enclosure(self, bits: int) -> Enclosure:
        d, dmax = 1, self.max_depth()
        while d < dmax and self.tail_log2(d) > -bits:
            d += 1
        return Enclosure(self.partial_sum(d), self.tail_log2(d), 1,
                         final=d == dmax)

    def value(self, bits: int = 256) -> mpmath.mpf:
        d = min(self.depth, self.max_depth())
        return fraction_to_mpf(self.partial_sum(d), max(bits, 53))


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
        self._err = math.log2(10.0) * (exp - len(frac))
        self.spec = f"dec:{digits}"

    def enclosure(self, bits: int) -> Enclosure:
        return Enclosure(self.exact, self._err, 0, final=True)


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


def _dist_from_enclosure(enc: Enclosure, m: int):
    """(exact anchor distance, log2 error radius) of ||m * theta||.

    x -> dist(x, Z) is 1-Lipschitz, so the radius is m * 2**log2_err.
    """
    f = (m * enc.anchor) % 1
    d = min(f, 1 - f)
    err = enc.log2_err + math.log2(m) if enc.log2_err != -_INF else -_INF
    return d, err


def _resolve_distance(theta: Theta, m: int):
    """Certified (dist, log2_err): the radius is at least _DIST_REL_BITS
    below the distance itself (or exactly zero).  Escalates the enclosure
    on demand."""
    for enc in _escalating_enclosures(theta, max(96, m.bit_length() + 96)):
        d, err = _dist_from_enclosure(enc, m)
        if err == -_INF:
            if d == 0:
                raise PrecisionExhausted(
                    f"||{_fmt_int(m)} * theta|| below representable resolution")
            return d, err
        if d > 0 and err <= log2_fraction(d) - _DIST_REL_BITS:
            return d, err
    raise PrecisionExhausted(
        f"||{_fmt_int(m)} * theta|| not resolved at the available precision "
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
    K = 1
    while fibonacci(K + 1) <= M:
        K += 1
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


@dataclass(frozen=True)
class ApproximationEvent:
    """One tested m: `hit` is the certified ||m theta|| < 1/psi(m), and `d`
    the exact anchor of ||m theta||.  The 96-bit values `dist` and
    `threshold` are computed when read; the scan decides without them."""

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


def _compare_dist_threshold(num: int, den: int, err: float,
                            psi: PsiFunction, m: int) -> bool:
    """Certified comparison dist < 1/psi(m), where dist = num/den +- 2^err
    and num/den, the anchor distance, is a reduced pair (num >= 0,
    den >= 1).  l2d = log2_ratio(num, den) is the float that log2_fraction
    gives on Fraction(num, den), so the pair is decided on the same floats
    and integers as that Fraction, with no Fraction arithmetic.

    Screen: for m <= 2**53, l2d and l2thr = -psi.log2(m) are floats within
    2**-20 of the exact logs while both are at most 2**30 in magnitude
    (measured against a 256-bit reference in tests/test_realfield.py).
    When they differ by more than 1 bit, the order of num/den and 1/psi(m)
    is the order of the floats, and the larger value exceeds the smaller by
    a factor above 2**(1 - 2**-19), so the exact gap is at least half the
    larger: log2(gap) >= max(l2d, l2thr) - 1 - 2**-17.  A radius
    err <= max(l2d, l2thr) - 3 therefore stays below the exact test's limit
    log2(gap) - 1, and the screen returns what that test would.

    Families with an exact psi(m) = P/Q take that bound; the exact test
    compares num * P with Q * den.  The others keep the bound
    min(l2d, l2thr) - 3, because their fallback, a comparison in log2 with
    a 1e-6 guard band, already gives up at err > min(l2d, l2thr) - 2.
    """
    l2thr = -psi.log2(m)
    l2d = log2_ratio(num, den) if num else -_INF
    screen = max(l2d, l2thr) if psi.has_exact_pair else min(l2d, l2thr)
    if (m <= _SCREEN_M_MAX and abs(l2d - l2thr) > 1
            and max(abs(l2d), abs(l2thr)) <= _SCREEN_LOG2_MAX
            and err <= screen - 3):
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
    convergent denominators.

    Hybrid strategy: below the crossover m* (the first m with psi(m) >= 2M)
    every m is tested; at and beyond m*, any hit has
    ||m theta|| < 1/(2M) <= 1/(2m), so by Legendre's theorem it is g q_k for
    a convergent denominator q_k with g ||q_k theta|| < 1/2 (the route of
    legendre_hits).  Only those multiples are tested there, and each takes
    its distance from the convergent's resolved one: while g d <= 1/2,
    ||g q_k theta|| is g d with radius g 2^err, the same relative radius.
    With d = p/q reduced, that is 2 g p <= q, and g d is the reduced pair
    of Fraction(g p, q).

    Each event is decided on the reduced pair of its exact anchor distance,
    from log2 values and, for near-ties, integer cross-multiplication, with
    no Fraction arithmetic and without building psi(m): its 96-bit `dist`
    and `threshold` are computed only when read.

    certified_to is M unless a distance or comparison does not resolve at
    some m (then at most m - 1), or m* <= M and the certified expansion
    ends at a convergent q_K <= M (then at most q_K; m* - 1 when no
    quotient is certified).
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    _require_irrational(theta, "approximability_scan")

    # crossover: smallest m <= M with psi(m) >= 2M, else M + 1 (monotone
    # bisection in log2; lo and hi stand for a miss at 0 and a hit at M + 1)
    target = math.log2(2 * M)
    lo, hi = 0, M + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if psi.log2(mid) >= target:
            hi = mid
        else:
            lo = mid
    m_star = hi

    events = {}
    certified_to = M

    def add_event(m, is_conv=False, dist=None):
        nonlocal certified_to
        if m in events:
            if is_conv and not events[m].is_convergent:
                events[m] = replace(events[m], is_convergent=True)
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
        # 2 g p <= q: g_cap is the first g past that bound
        p, q = d.numerator, d.denominator
        g_cap = min(M // c.m, q // (2 * p) + 1)
        for g in range(max(2, -(-m_star // c.m)), g_cap + 1):
            add_event(g * c.m, dist=(Fraction(g * p, q), err + math.log2(g))
                      if 2 * g * p <= q else None)
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
    lowest terms and tower exponents t_1 = 1, t_{i+1} = a^{t_i}, truncated
    at `depth` terms: its tower(i), partial_sum(depth) and tail_log2(depth)
    are exact data.

    Raises PrecisionExhausted reporting the max safe depth when the partial
    sum at `depth` outgrows the bit budget.
    """
    theta = TauBetaTheta(a, b, depth)
    dmax = theta.max_depth()
    if depth > dmax:
        raise PrecisionExhausted(
            f"depth {depth} exceeds the bit budget; max safe depth is {dmax}",
            last_certified=dmax)
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

    fib_ok = all(convs[k].m >= fibonacci(k + 1) for k in range(len(convs)))
    all_ones = all(a == 1 for a in cf.quotients[1:])
    equal_everywhere = all(convs[k].m == fibonacci(k + 1)
                           for k in range(len(convs)))
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
    best = None
    for k in range(start, usable):
        mk = convs[k].m
        mk1 = convs[k + 1].m
        if mk.bit_length() > 900:
            lo = hi = 0.0  # exponent underflows: estimate is exactly 1
        else:
            lo = math.log2(mk1) / mk
            hi = math.log2(mk1 + mk) / mk
        mid = 0.5 * (lo + hi)
        if best is None or mid > best[0]:
            best = (mid, lo, hi, k)
    mid, lo, hi, k = best
    return BaseEstimate(estimate=2.0**mid, low=2.0**lo, high=2.0**hi, k_used=k)
