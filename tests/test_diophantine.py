import dataclasses
import hashlib
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from divcorr import diophantine as dio
from divcorr.checks import SUITES
from divcorr.errors import (ConstructionInfeasible, PrecisionExhausted,
                            ThetaParseError)
from divcorr.realfield import (PsiFunction, _fmt, log2_fraction, psi_parse,
                               to_fraction)


def surd_cf_oracle(d: int, K: int):
    """Independent expansion: high-precision floor recurrence in mpmath."""
    with mpmath.workprec(64 * (K + 8)):
        x = mpmath.sqrt(d)
        out = []
        for _ in range(K + 1):
            a = int(mpmath.floor(x))
            out.append(a)
            x = 1 / (x - a)
        return out


# --- expansion and convergents ----------------------------------------------


def test_surd_expansion_against_oracle():
    for d in (2, 3, 5, 7, 13, 61):
        cf = dio.cf_expand_surd(d, 18)
        assert list(cf.quotients) == surd_cf_oracle(d, 18)


def test_surd_periods():
    assert dio.cf_expand_surd(2, 6).period == (2,)
    assert dio.cf_expand_surd(3, 6).period == (1, 2)
    with pytest.raises(ValueError):
        dio.cf_expand_surd(4, 5)
    with pytest.raises(ValueError):
        dio.cf_expand_surd(1, 5)


def test_golden_expansion():
    cf = dio.theta_parse("golden").continued_fraction(9)
    assert list(cf.quotients) == [1] * 10


#: sqrt 2 to 90 decimals, trusted to 1e-90
_SQRT2_DEC = ("dec:1.4142135623730950488016887242096980785696718753769480731"
              "76679737990732478462107038850387534")


def test_cf_expand_from_big_real():
    cf = dio.cf_expand(dio.theta_parse(_SQRT2_DEC), 20)
    assert list(cf.quotients) == [1] + [2] * 20


def test_cf_expand_rational_degenerates():
    # 22/7 to 15 decimals: the literal's data pins [3; 7] and then runs out
    with pytest.raises(PrecisionExhausted) as ei:
        dio.cf_expand(dio.theta_parse("dec:3.142857142857143"), 10)
    assert ei.value.last_certified is not None


def test_convergents_sqrt2_prefix():
    cf = dio.cf_expand_surd(2, 4)
    convs = dio.convergents(cf)
    assert [(c.n, c.m) for c in convs] == [(1, 1), (3, 2), (7, 5), (17, 12),
                                           (41, 29)]


def test_golden_denominators_are_fibonacci():
    cf = dio.theta_parse("golden").continued_fraction(25)
    convs = dio.convergents(cf)
    for c in convs:
        assert c.m == dio.fibonacci(c.k + 1)


def test_determinant_identity_exact():
    cf = dio.cf_expand_surd(61, 40)
    convs = dio.convergents(cf)
    for k in range(1, len(convs)):
        det = convs[k].n * convs[k - 1].m - convs[k - 1].n * convs[k].m
        assert det == (-1) ** (k - 1)
        assert math.gcd(convs[k].n, convs[k].m) == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 50), min_size=2, max_size=14),
       st.integers(0, 9))
def test_determinant_identity_random_cf(quots, a0):
    cf = dio.ContinuedFraction(tuple([a0] + quots))
    convs = dio.convergents(cf)
    for k in range(1, len(convs)):
        det = convs[k].n * convs[k - 1].m - convs[k - 1].n * convs[k].m
        assert det == (-1) ** (k - 1)
        assert convs[k].m >= dio.fibonacci(k + 1)


def test_binet_matches_exact():
    # Binet's closed form (phi^k - (-phi)^-k) / sqrt(5), rounded, is exact
    # in doubles this far
    phi = (1 + math.sqrt(5)) / 2
    for k in range(1, 60):
        binet = (phi**k - (-phi) ** (-k)) / math.sqrt(5)
        assert round(binet) == dio.fibonacci(k)


# --- invariants bundle -------------------------------------------------------


@pytest.mark.parametrize("spec", ["surd:2", "surd:3", "golden"])
def test_convergent_invariants_classics(spec):
    rep = dio.convergent_invariants(dio.theta_parse(spec), 50)
    assert rep.all_ok
    assert rep.sandwich_checked >= 49
    assert rep.fibonacci_all_equal == (spec == "golden")


_CF40 = "cf:[0;" + ",".join(str(k % 5 + 1) for k in range(39)) + "]"
#: e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...] to 40 quotients
_E40 = "cf:[2;" + ",".join(f"1,{2 * k},1" for k in range(1, 14)) + "]"

#: every InvariantReport field (K, determinant_ok, alternation_ok,
#: sandwich_ok, sandwich_checked, fibonacci_ok, fibonacci_all_equal), or the
#: PrecisionExhausted message and last_certified, pinned so that a change
#: to how the signs are decided shows up
_INVARIANT_PINS = [
    ("surd:2", 5, (5, True, True, True, 4, True, False)),
    ("surd:2", 20, (20, True, True, True, 19, True, False)),
    ("golden", 5, (5, True, True, True, 4, True, True)),
    ("golden", 20, (20, True, True, True, 19, True, True)),
    ("taubeta:2/1:4", 5, (5, True, True, True, 4, True, False)),
    ("taubeta:2/1:4", 20, ("anchor expansion terminated (rational anchor) "
                           "after 16 certified quotients", 15)),
    ("jarnik:pow:3:7", 5, (5, True, True, True, 3, True, False)),
    ("jarnik:pow:3:7", 20, ("only 8 quotients available", 7)),
    (_SQRT2_DEC, 5, (5, True, True, True, 4, True, False)),
    (_SQRT2_DEC, 20, (20, True, True, True, 19, True, False)),
    (_CF40, 5, (5, True, True, True, 3, True, False)),
    (_CF40, 20, (20, True, True, True, 18, True, False)),
]


@pytest.mark.parametrize("spec,K,want", _INVARIANT_PINS,
                         ids=[f"{s[:16]}-{K}" for s, K, _ in _INVARIANT_PINS])
def test_convergent_invariants_pinned(spec, K, want):
    try:
        got = dataclasses.astuple(
            dio.convergent_invariants(dio.theta_parse(spec), K))
    except PrecisionExhausted as e:
        got = (str(e), e.last_certified)
    assert got == want


def test_convergent_invariants_deep_tau_beta():
    # the enclosure's log2_err is about -4.46e12: every sign is decided in
    # log2, with no 2^err built
    rep = dio.convergent_invariants(dio.theta_parse("taubeta:3/2:3"), 5)
    assert rep.all_ok
    assert rep.sandwich_checked == 4


def test_best_approximation_sqrt2():
    # brute force over 1 <= m < m_{k+1}, m != m_k, for every k <= 10
    theta = dio.theta_parse("surd:2")
    cf = theta.continued_fraction(11)
    convs = dio.convergents(cf)
    with mpmath.workprec(100):
        s2 = mpmath.sqrt(2)
        for k in range(10 + 1):
            mk = convs[k].m
            best = abs(mk * s2 - convs[k].n)
            nxt = convs[k + 1].m
            for m in range(1, nxt):
                if m == mk:
                    continue
                d = abs(m * s2 - mpmath.nint(m * s2))
                assert best < d


# --- distances ---------------------------------------------------------------


def test_nearest_distance_examples():
    t2 = dio.theta_parse("surd:2")
    assert float(dio.nearest_distance(t2, 5)) == pytest.approx(
        abs(5 * math.sqrt(2) - 7), rel=1e-10)
    g = dio.theta_parse("golden")
    assert float(dio.nearest_distance(g, 1)) == pytest.approx(
        (1 + math.sqrt(5)) / 2 - 1 - 0.236067977, abs=1e-6)
    assert float(dio.nearest_distance(g, 1)) == pytest.approx(0.381966011,
                                                              abs=1e-8)


def test_distance_folds_to_half_at_exact_tie():
    # the fold reports 1/2 exactly at a midpoint tie (only decidable for an
    # exact anchor; irrational theta never lands on the tie)
    enc = dio.Enclosure(Fraction(1, 4), -math.inf, 0)
    d, err = dio._dist_from_enclosure(enc, 2)
    assert d == Fraction(1, 2) and err == -math.inf


def test_distance_fold_range():
    enc = dio.Enclosure(Fraction(7, 10), -math.inf, 0)
    d, _ = dio._dist_from_enclosure(enc, 1)
    assert d == Fraction(3, 10)  # folds down from 0.7
    d, _ = dio._dist_from_enclosure(enc, 3)
    assert d == Fraction(1, 10)  # 2.1 -> 0.1


def test_nearest_distance_rejects_rational():
    with pytest.raises(ValueError):
        dio.nearest_distance(dio.theta_parse("rat:3/2"), 4)


def test_tau_beta_residual_matches_construction():
    # ||16 tau_2|| = 2^-12 (1 + O(2^-65508)): the partial-sum residual
    t = dio.theta_parse("taubeta:2/1:4")
    d = dio.nearest_distance(t, 16)
    assert float(mpmath.log(d, 2)) == pytest.approx(-12.0, abs=1e-6)
    d2 = dio.nearest_distance(t, 65536)
    assert float(mpmath.log(d2, 2)) == pytest.approx(-65520.0, abs=1e-3)


# --- Legendre ----------------------------------------------------------------


class _Unresolvable(dio.Theta):
    """A theta whose enclosure never settles anything; records each
    request that reaches enclosure().  Its data runs out at `final_from`
    bits: from there on each enclosure is final."""

    spec = "unresolvable"

    def __init__(self, final_from=math.inf):
        self.final_from = final_from
        self.requests = []

    def enclosure(self, bits):
        self.requests.append(bits)
        return dio.Enclosure(Fraction(99, 70), 0.0,
                             final=bits >= self.final_from)


@pytest.mark.parametrize("call,start", [
    (lambda th: th.continued_fraction(3), 64),
    (lambda th: dio.nearest_distance(th, 1), 97),
    (lambda th: dio.legendre_is_convergent(th, 1, 1), 82),
    (lambda th: dio._signs(th, 1, (Fraction(1),), 96), 96),
], ids=["continued_fraction", "nearest_distance", "legendre", "signs"])
def test_enclosure_escalation_schedule(call, start):
    # x4 per attempt; the last attempt is capped at 2^24 bits, or is the
    # first whose enclosure is final when that comes sooner
    top = 1 << 24
    full = [start * 4**k for k in range(12) if start * 4**k < top] + [top]
    th = _Unresolvable()
    with pytest.raises(PrecisionExhausted):
        call(th)
    assert th.requests == full
    th = _Unresolvable(final_from=1000)
    with pytest.raises(PrecisionExhausted):
        call(th)
    assert th.requests == ([b for b in full if b < 1000]
                           + [next(b for b in full if b >= 1000)])


#: the depth-5 partial sum of tau_2, 2^-1 + 2^-2 + 2^-4 + 2^-16 + 2^-65536
_TAU2_DEPTH5 = sum(Fraction(1, 2 ** t) for t in (1, 2, 4, 16, 65536))


@pytest.mark.parametrize("spec,anchor,log2_err,side", [
    ("dec:2", Fraction(2), 0.0, 0),
    ("dec:1.5", Fraction(3, 2), -3.321928094887362, 0),
    ("cf:[1;1]", Fraction(2), -1.0, -1),
    (_CF40, Fraction(2103775321029945751, 3015017179644356985),
     -123.07550630322984, -1),
    ("jarnik:exp:3:4",
     Fraction(27043799000610679993079130413290271109315,
              35917545547686059365808220080151141317059), -math.inf, 1),
    ("taubeta:2/1:4", _TAU2_DEPTH5, -math.inf, 1),
    ("taubeta:3/2:3", Fraction(7343302166234, 7625597484987),
     -4460688574309.954, 1),
], ids=["dec:2", "dec:1.5", "cf:[1;1]", "cf40", "jarnik:exp:3:4",
        "taubeta:2/1:4", "taubeta:3/2:3"])
def test_best_enclosure_returns_what_the_data_supports(spec, anchor, log2_err,
                                                        side):
    # a request beyond the data (2^24 bits, the escalation's ceiling) gets
    # the tightest enclosure the data holds, marked final, without raising;
    # for taubeta:2/1:4 that is the depth-5 sum (2^-65536 its last term),
    # which no request below 65536 bits reaches
    theta = dio.theta_parse(spec)
    assert theta.best_enclosure(1 << 24) == dio.Enclosure(anchor, log2_err,
                                                          side, final=True)


@pytest.mark.parametrize("spec,root", [
    ("surd:2", lambda: mpmath.sqrt(2)),
    ("golden", lambda: (1 + mpmath.sqrt(5)) / 2),
], ids=["surd:2", "golden"])
def test_refinable_enclosures_are_never_final(spec, root):
    # a surd's data refines at will: each enclosure is at least `bits`
    # tight, holds the value, and is not final
    theta = dio.theta_parse(spec)
    for bits in (64, 4096):
        enc = theta.best_enclosure(bits)
        assert not enc.final and enc.log2_err <= -bits
        with mpmath.workprec(2 * bits):
            gap = abs(mpmath.mpf(enc.anchor.numerator) / enc.anchor.denominator
                      - root())
            assert gap <= mpmath.mpf(2) ** enc.log2_err


def _recorded_requests(spec):
    """theta_parse(spec) with each best_enclosure request recorded."""
    theta, requests = dio.theta_parse(spec), []
    best = theta.best_enclosure

    def record(bits):
        requests.append(bits)
        return best(bits)

    theta.best_enclosure = record
    return theta, requests


@pytest.mark.parametrize("spec,last_certified,requests", [
    ("taubeta:2/1:5", 15, [64, 256, 1024, 4096, 16384, 65536]),
    ("taubeta:3/2:3", 20, [64]),
], ids=["taubeta:2/1:5", "taubeta:3/2:3"])
def test_escalation_stops_at_the_final_enclosure(spec, last_certified,
                                                 requests):
    # the depth-5 sum of taubeta:2/1:5 first comes at 65536 bits and the
    # depth-3 sum of taubeta:3/2:3 at 64; no request past the final
    # enclosure asks for the same data again
    theta, seen = _recorded_requests(spec)
    with pytest.raises(PrecisionExhausted) as e:
        dio.cf_expand(theta, 40)
    assert e.value.last_certified == last_certified
    assert seen == requests


def test_refinable_escalation_widens_until_resolved():
    # surd:2 at a 382-bit convergent denominator: resolving its distance
    # (about 2^-383) takes a second, 4x wider request
    m = dio.convergents(dio.cf_expand_surd(2, 300))[-1].m
    assert m.bit_length() == 382
    theta, seen = _recorded_requests("surd:2")
    dio.nearest_distance(theta, m)
    assert seen == [478, 1912]


def test_legendre_predicate_examples():
    pi = dio.DecimalTheta("3.14159265358979323846264338327950288")
    assert dio.legendre_is_convergent(pi, 22, 7)  # |22 - 7 pi| ~ 0.0089 < 1/14
    assert not dio.legendre_is_convergent(pi, 13, 4)  # 0.434 > 1/8
    t2 = dio.theta_parse("surd:2")
    assert dio.legendre_is_convergent(t2, 7, 5)
    # reduction convention: 6/4 reduces to 3/2
    assert dio.legendre_is_convergent(t2, 6, 4) == \
        dio.legendre_is_convergent(t2, 3, 2)
    with pytest.raises(ValueError):
        dio.legendre_is_convergent(t2, 1, 0)


def brute_legendre(theta_float: float, M: int):
    out = []
    for m in range(1, M + 1):
        d = abs(m * theta_float - round(m * theta_float))
        if d < 1 / (2 * m):
            out.append(m)
    return out


@pytest.mark.parametrize("spec,value", [("surd:2", math.sqrt(2)),
                                        ("surd:3", math.sqrt(3)),
                                        ("golden", (1 + math.sqrt(5)) / 2)])
def test_legendre_hits_match_float_brute(spec, value):
    # doubles are exact enough at M = 2000 (margins are Theta(1/m))
    hits = dio.legendre_hits(dio.theta_parse(spec), 2000)
    assert hits == brute_legendre(value, 2000)


def test_legendre_hits_are_convergent_denominators():
    # surd:2, surd:3 and golden at M = 1e5, in the legendre verify suite
    checks = [c for c in SUITES["legendre"](0)
              if c.name.endswith("hits are convergent denominators")]
    assert len(checks) == 3 and all(c.ok for c in checks)


# Oracles: the O(M) routes that legendre_hits replaced.  They decide every
# m <= M on its own, so they stay independent of the convergent route.


def oracle_hits_surd(d: int, M: int) -> list[int]:
    """All m <= M with ||m sqrt(d)|| < 1/(2m), by exact integer arithmetic."""
    hits = []
    for m in range(1, M + 1):
        A = d * m * m
        k = math.isqrt(A)
        for n in (k, k + 1):
            if n == 0:
                continue
            # |n - m sqrt d| < 1/(2m)  <=>  2m|n^2 - A| < n + m sqrt d
            t = 2 * m * abs(n * n - A) - n
            if t < 0 or t * t < A:
                hits.append(m)
                break
    return hits


def oracle_hits_golden(M: int) -> list[int]:
    """All m <= M with ||m phi|| < 1/(2m); uses 2*m*phi = m + m*sqrt(5)."""
    hits = []
    for m in range(1, M + 1):
        A = 5 * m * m
        k = math.isqrt(A)
        # j = 2n - m ranges over integers with j == m (mod 2)
        cands = [j for j in (k - 1, k, k + 1, k + 2) if j > 0 and (j - m) % 2 == 0]
        for j in cands:
            # |m sqrt5 - j| < 1/m  <=>  m|j^2 - A| < j + m sqrt5
            t = m * abs(j * j - A) - j
            if t < 0 or t * t < A:
                hits.append(m)
                break
    return hits


def oracle_hits_enclosure(theta, M: int) -> list[int]:
    """Every m <= M against one enclosure; raises PrecisionExhausted at the
    first m it cannot decide, with the hits below it."""
    bits = max(64, 2 * M.bit_length() + 96)
    enc = theta.best_enclosure(bits)
    hits = []
    for m in range(1, M + 1):
        d, err = dio._dist_from_enclosure(enc, m)
        bound = Fraction(1, 2 * m)
        gap = abs(d - bound)
        if err != -math.inf and (gap == 0 or err > log2_fraction(gap) - 1):
            raise PrecisionExhausted(f"Legendre scan unresolved at m={m}",
                                     last_certified=m - 1, partial=hits)
        if d < bound:
            hits.append(m)
    return hits


def _hits_or_partial(route, *args):
    """(hits, last m they cover) of a route that may stop early."""
    try:
        return route(*args), args[-1]
    except PrecisionExhausted as e:
        return e.partial, e.last_certified


def _cf_literal(draw, quotients, max_den=None):
    """A cf: literal of a drawn a0 and `quotients`, cut before the first
    convergent denominator above max_den."""
    qs = [draw(st.integers(0, 5))]
    m_prev, m = 0, 1
    for a in quotients:
        if max_den is not None and a * m + m_prev > max_den:
            break
        qs.append(a)
        m_prev, m = m, a * m + m_prev
    return qs


@st.composite
def _legendre_cases(draw):
    """(theta, M, oracle of M) with data that reaches past M."""
    M = draw(st.integers(1, 20000))
    kind = draw(st.sampled_from(["surd", "surd", "golden", "taubeta", "cf"]))
    if kind == "surd":
        d = draw(st.integers(2, 500).filter(lambda d: math.isqrt(d) ** 2 != d))
        return dio.SurdTheta(d), M, lambda M: oracle_hits_surd(d, M)
    if kind == "golden":
        return dio.GoldenTheta(), M, oracle_hits_golden
    if kind == "taubeta":
        theta = dio.theta_parse("taubeta:2/1:4")
    else:
        # 30 quotients put q_K above F_31 > 1.3e6
        qs = _cf_literal(draw, draw(st.lists(st.integers(1, 60), min_size=30,
                                             max_size=40)))
        theta = dio.CFLiteralTheta(dio.ContinuedFraction(tuple(qs)))
    return theta, M, lambda M: oracle_hits_enclosure(theta, M)


@settings(max_examples=60, deadline=None)
@given(_legendre_cases())
def test_legendre_hits_match_oracles(case):
    theta, M, oracle = case
    new, new_to = _hits_or_partial(dio.legendre_hits, theta, M)
    old, old_to = _hits_or_partial(oracle, M)
    assert new_to >= old_to
    assert [m for m in new if m <= old_to] == old
    if not isinstance(theta, dio.CFLiteralTheta):
        assert new_to == old_to == M


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_legendre_hits_short_literal_last_certified(data):
    """A literal of 5-12 quotients whose data runs out below M: the
    convergent route certifies at least as far as the O(M) loop, agrees
    with it there, and its partial hits hold for any continuation."""
    draw = data.draw
    qs = _cf_literal(draw, draw(st.lists(st.one_of(st.integers(1, 3),
                                                   st.integers(1, 40)),
                                         min_size=11, max_size=11)),
                     max_den=5000)
    qs = qs[:draw(st.integers(5, 12))]
    assume(len(qs) >= 5)
    theta = dio.CFLiteralTheta(dio.ContinuedFraction(tuple(qs)))
    convs = dio.convergents(theta.cf)
    M = draw(st.integers(convs[-1].m + convs[-2].m, 10**6))
    with pytest.raises(PrecisionExhausted) as ei:
        dio.legendre_hits(theta, M)
    new, new_to = ei.value.partial, ei.value.last_certified
    assert new_to <= convs[-1].m + convs[-2].m - 1
    old, old_to = _hits_or_partial(oracle_hits_enclosure, theta, M)
    assert old_to < M and new_to >= old_to
    assert [m for m in new if m <= old_to] == old
    for tail in ([1] * 25, [draw(st.integers(2, 10**6))] + [2] * 20):
        longer = dio.CFLiteralTheta(dio.ContinuedFraction(tuple(qs + tail)))
        assert oracle_hits_enclosure(longer, new_to) == new


def test_legendre_hits_at_2_32():
    M = 2**32
    fib = sorted({dio.fibonacci(k) for k in range(1, 60)
                  if dio.fibonacci(k) <= M})
    assert dio.legendre_hits(dio.GoldenTheta(), M) == fib
    dens = [1, 2]
    while 2 * dens[-1] + dens[-2] <= M:
        dens.append(2 * dens[-1] + dens[-2])
    assert dio.legendre_hits(dio.SurdTheta(2), M) == dens


def test_legendre_hits_stop_below_an_unknown_convergent():
    # jarnik:pow:2:4 is [0; 1, 1, 2, 5], with q_3 = 5 and q_4 = 27.  An
    # unbuilt q_5 is at least 27 + 5 = 32, and the enclosure bounds
    # ||27 theta|| < 2^-8, so q_5 > 2^8 - 27 lies past 100.  The hits stop
    # where the enclosure no longer decides a multiple of 27 (81), as the
    # O(M) loop does.
    theta = dio.theta_parse("jarnik:pow:2:4")
    assert dio.legendre_hits(theta, 31) == [1, 2, 5, 27]
    assert oracle_hits_enclosure(theta, 31) == [1, 2, 5, 27]
    assert dio.legendre_hits(theta, 32) == [1, 2, 5, 27]
    with pytest.raises(PrecisionExhausted) as old:
        oracle_hits_enclosure(theta, 100)
    assert old.value.last_certified == 80
    assert old.value.partial == [1, 2, 5, 27, 54]
    with pytest.raises(PrecisionExhausted) as ei:
        dio.legendre_hits(theta, 100)
    assert ei.value.last_certified >= 80
    assert ei.value.partial == [1, 2, 5, 27, 54]


def test_legendre_hits_deep_tau_beta():
    # taubeta:3/2:3 has log2_err about -4.46e12.  The certified expansion
    # stops at q_K < 10^13, and an unknown q_{K+1} exceeds 1/u - q_K for the
    # upper bound u on ||q_K theta||.  u adds a radius clamped to
    # 2^-(2^24), far below the anchor distance d, so 1/u and 1/d give the
    # same ceiling
    theta = dio.theta_parse("taubeta:3/2:3")
    with pytest.raises(PrecisionExhausted) as ei:
        dio.legendre_hits(theta, 10**13)
    with pytest.raises(PrecisionExhausted) as cf:
        dio.cf_expand(theta, 100)
    convs = dio.convergents(cf.value.partial)
    qK = convs[-1].m
    f = qK * theta.best_enclosure(96).anchor % 1
    d = min(f, 1 - f)
    assert ei.value.last_certified == max(qK + convs[-2].m - 1,
                                          math.ceil(1 / d - qK) - 1)
    assert ei.value.last_certified == 6678264758913
    assert dio.legendre_hits(theta, ei.value.last_certified) == \
        ei.value.partial


def test_legendre_hits_without_certified_quotients():
    with pytest.raises(PrecisionExhausted) as ei:
        dio.legendre_hits(_Unresolvable(final_from=1000), 10)
    assert ei.value.last_certified == 0 and ei.value.partial == []


# --- theta parsing -----------------------------------------------------------


def test_theta_parse_specs():
    assert dio.theta_parse("rat:6/4").spec == "rat:3/2"
    assert dio.theta_parse("surd:2").d == 2
    assert isinstance(dio.theta_parse("golden"), dio.GoldenTheta)
    cf = dio.theta_parse("cf:[1;2,2,2]")
    assert cf.cf.quotients == (1, 2, 2, 2)
    tb = dio.theta_parse("taubeta:3/2:3")
    assert (tb.a, tb.b, tb.depth) == (3, 2, 3)
    dec = dio.theta_parse("dec:1.5")
    assert dec.exact == Fraction(3, 2)


def test_theta_parse_errors():
    for bad in ("", "frob:1", "surd:4", "surd:x", "rat:0/1", "cf:1;2",
                "taubeta:2/3:4", "golden:1", "dec:-2", "dec:1/3", "dec:1_000",
                "dec: 1.5", "dec:.5", "dec:1.", "dec:1e", "dec:inf"):
        with pytest.raises(ThetaParseError):
            dio.theta_parse(bad)


def _cf1_outcome(theta):
    try:
        return dio.cf_expand(theta, 1)
    except PrecisionExhausted as e:
        return e.last_certified, e.partial


def test_decimal_exponent_sets_the_trust_radius():
    # +-1 unit in the last written digit: 0.1 for each of these spellings
    thetas = [dio.theta_parse(f"dec:{s}")
              for s in ("1414.2", "1.4142e3", "1.4142E3", "14142e-1")]
    assert {t.exact for t in thetas} == {Fraction(14142, 10)}
    assert {t._err for t in thetas} == {-math.log2(10)}
    # 1414.2 +- 0.1 lies above 1414, but not by the 4x margin cf_expand needs
    assert {_cf1_outcome(t) for t in thetas} == {(-1, None)}
    assert dio.theta_parse("dec:1.5")._err == -math.log2(10)
    assert dio.theta_parse("dec:25e+1")._err == math.log2(10)


# --- scans -------------------------------------------------------------------


def brute_scan(theta_float: float, psi, M: int):
    hits = []
    for m in range(1, M + 1):
        d = abs(m * theta_float - round(m * theta_float))
        if d < 1 / float(psi.eval(m)):
            hits.append(m)
    return hits


def test_scan_sqrt2_pow3_matches_brute():
    psi = psi_parse("pow:3")
    theta = dio.theta_parse("surd:2")
    res = dio.approximability_scan(theta, psi, 10**4)
    assert res.certified_to == 10**4
    assert res.hits == brute_scan(math.sqrt(2), psi, 10**4)
    # no nontrivial approximations: sqrt2 has bounded quotients
    assert all(m <= 1 for m in res.hits)


def test_scan_golden_hurwitz_band():
    psi = psi_parse("scale:0.4:pow:1")  # threshold 2.5/m > 1/(sqrt5 m)
    theta = dio.theta_parse("golden")
    res = dio.approximability_scan(theta, psi, 1000)
    phi = (1 + math.sqrt(5)) / 2
    assert res.hits == brute_scan(phi, psi, 1000)
    fib = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987]
    assert set(fib) <= set(res.hits)


def test_scan_tau_beta_acceptance_pattern():
    theta = dio.theta_parse("taubeta:2/1:4")
    res = dio.approximability_scan(theta, psi_parse("exp:1.5"), 2**16)
    assert res.certified_to == 2**16
    assert {16, 65536} <= set(res.hits)
    res3 = dio.approximability_scan(theta, psi_parse("exp:3"), 2**16)
    assert all(m <= 4 for m in res3.hits)


def test_scan_includes_convergent_near_misses():
    theta = dio.theta_parse("surd:2")
    res = dio.approximability_scan(theta, psi_parse("pow:3"), 10**4)
    conv_events = [e.m for e in res.events if e.is_convergent]
    assert set([1, 2, 5, 12, 29, 70]) <= set(conv_events)
    for e in res.events:
        assert e.hit == (e.dist < e.threshold)


def _crossover_prechecked(psi, M):
    """The scan's crossover m* before it became one bisection over
    [0, M + 1]: psi(M) and psi(1) checked first, then [1, M] bisected."""
    target = math.log2(2 * M)
    if psi.log2(M) < target:
        return M + 1
    if psi.log2(1) >= target:
        return 1
    lo, hi = 1, M
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if psi.log2(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def test_scan_crossover_matches_prechecked_bisection():
    theta = dio.theta_parse("golden")
    seen = set()
    for spec in ("pow:1", "pow:1/2", "pow:3", "scale:1000:pow:1", "exp:1.5",
                 "scale:1/1000:exp:2", "scale:64:exp:2", "expexp"):
        psi = psi_parse(spec)
        for M in (1, 2, 3, 4, 5, 31, 32, 33, 100, 500, 1000):
            m_star = _crossover_prechecked(psi, M)
            want = m_star if m_star <= M else None
            got = dio.approximability_scan(theta, psi, M).fast_path_from
            assert got == want, (spec, M)
            seen.add("none" if want is None else "one" if m_star == 1
                     else "inside")
    assert seen == {"one", "inside", "none"}


# Pinned scans: the SHA-256 of every event (m, hit, is_convergent, dist,
# threshold) and certified_to, recorded before the log2 screen and the
# integer cross-multiplication replaced the Fraction comparison.
SCAN_DIGESTS = [
    ("taubeta:2/1:4", "exp:1.5", 2**16,
     "2cd7f90d1f730d8e88006bd76fc332be19449c50231b208de71225ebf991a8ed"),
    ("taubeta:2/1:4", "exp:3", 2**16,
     "c01924639f1633a5cf57ec89b85c6c8a21f46df1188da3c52f9aba0fe3de42c1"),
    ("surd:2", "pow:3", 10**4,
     "fe96660edc7c2f8cba3efe8fad2b1b1beb0cc10625f7d336ec2b1e8d1b824634"),
    # recorded before the multiples g*q_k of each convergent denominator
    # took their distances from q_k's; these reach many such multiples
    ("surd:2", "pow:1.5", 10**5,
     "88237b5d58ec93375885a58444297d631d8b70d2cf4bba2dc2b24deb6b9418cb"),
    ("surd:2", "pow:2", 10**5,
     "4739d61fd0730cfadf83e61ad62a4bea05fc8a8b0819dbe18e0556e276a6a4f0"),
    ("surd:2", "exp:1.1", 10**5,
     "8cc5fe09ad3cd68fe4d17cda48fad123802e7a25cb0e0f0c0a719f1c22b12df2"),
    ("golden", "pow:1.5", 10**5,
     "f1a5123ec360cd8ae1c5a24c029d0f78714cdab877aff782d12685f7fa63ec6b"),
    ("golden", "pow:2", 10**5,
     "0e9e5cb7d19fc1700f116c2308eb61c5bec9c64af362008728a1e6eca2e2f5fe"),
    ("golden", "exp:1.1", 10**5,
     "2b1ee3c11d300701d241ab0239e2f8a7ae45e7e59f6b4e79c9215ab5caebc6c3"),
    ("taubeta:2/1:4", "pow:1.5", 10**5,
     "dbd25713ca66b11212b5fd78491726392495e6add4ebee948fbfefcb872dded2"),
    ("taubeta:2/1:4", "pow:2", 10**5,
     "083017a9d2ff7921716614bb01e3257ff1221b325b8c59d54b821ffe2e6b2eb4"),
    ("taubeta:2/1:4", "exp:1.1", 10**5,
     "e8dd67a741b362a75d9a0f5977e18389db827c2e03b1d73dca6e92812ae7c2f4"),
    # theta with finite data, recorded while the scan expanded a fixed 256
    # quotients: e's first 40 quotients (the expansion stops at index 39,
    # past M), and a Jarnik number of 7 quotients whose last denominator
    # 538783 lies below M
    (_E40, "pow:2", 10**5,
     "45ebbcce3c66f7dc449bf27f781ae19a3762b33926750a61b9db5b6fe5be717b"),
    (_E40, "exp:1.1", 10**5,
     "75e2d9c8353dd1ef211be6bbeabe2a4f6e08eda1d7d24497528ffcd4292a3834"),
    ("jarnik:pow:2:6", "exp:1.1", 10**6,
     "07d87b44ee68d9dbf765c9ef8a537a99c77ae749e8b1ce209179affacee8f1ad"),
    # 8132 events, nearly all multiples g*q_k in the fast region; recorded
    # before the scan decided them on integer pairs instead of Fractions
    ("taubeta:2/1:4", "exp:1.5", 2**24,
     "d2c6f211bc12719ea50bea8db789f4be2c8018c22fd151c5b95b55f4d37560e5"),
]


def _scan_digest(res) -> str:
    h = hashlib.sha256()
    for e in res.events:
        h.update(f"{e.m},{e.hit},{e.is_convergent},{_fmt(e.dist)},"
                 f"{_fmt(e.threshold)}\n".encode())
    h.update(f"certified_to={res.certified_to}\n".encode())
    return h.hexdigest()


def _scan_ids(scans) -> list[str]:
    """theta-psi for each scan, and theta-psi-M where an earlier scan has
    the same theta and psi."""
    ids = []
    for t, p, M, _ in scans:
        ids.append(f"{t}-{p}" if f"{t}-{p}" not in ids else f"{t}-{p}-{M}")
    return ids


@pytest.mark.parametrize("theta,psi,M,digest", SCAN_DIGESTS,
                         ids=_scan_ids(SCAN_DIGESTS))
def test_scan_events_are_pinned(theta, psi, M, digest):
    res = dio.approximability_scan(dio.theta_parse(theta), psi_parse(psi), M)
    assert _scan_digest(res) == digest



def _counting(monkeypatch, name):
    """Count the calls of PsiFunction.<name> (and of its aliases)."""
    calls = []
    original = vars(PsiFunction)[name]

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    for key, value in list(vars(PsiFunction).items()):
        if value is original:
            monkeypatch.setattr(PsiFunction, key, counted)
    return calls


def test_scan_screen_leaves_few_exact_comparisons(monkeypatch):
    """The log2 screen decides all but a few events; the rest build the
    exact pair (a**m, b**m).  For golden x exp:1.1, 1/psi(m) = 1.1^-m falls
    far below ||m golden|| for most m, and the screen at
    max(l2d, l2thr) - 3 decides those events without (11^m, 10^m)."""
    calls = _counting(monkeypatch, "exact_pair")
    for theta, psi, M, check, ratio in [
            ("taubeta:2/1:4", "exp:1.5", 2**16, lambda n: n == 2110, 0.01),
            ("golden", "exp:1.1", 10**5, lambda n: n > 1000, 0.02)]:
        calls.clear()
        res = dio.approximability_scan(dio.theta_parse(theta),
                                       psi_parse(psi), M)
        assert check(len(res.events))
        assert len(calls) < ratio * len(res.events)


@pytest.mark.parametrize("theta,psi,M", [
    ("taubeta:2/1:4", "exp:1.5", 2**16), ("golden", "pow:1.5", 10**5),
    ("surd:2", "pow:3", 10**4), ("golden", "scale:0.4:pow:1", 1000),
    ("surd:2", "expexp", 100)])
def test_scan_builds_no_psi_values(monkeypatch, theta, psi, M):
    calls = _counting(monkeypatch, "eval")
    res = dio.approximability_scan(dio.theta_parse(theta), psi_parse(psi), M)
    assert res.events and calls == []


def _eager_values(d, psi, m):
    """(dist, threshold) as the scan built them for every event before they
    were computed on access.  Oracle for the test below."""
    with mpmath.workprec(96):
        thr = 1 / psi.eval(m, 96)
        dm = (mpmath.mpf(d.numerator) / d.denominator) if d > 0 else mpmath.mpf(0)
    return dm, thr


_VALUE_SCANS = [SCAN_DIGESTS[i] for i in (0, 2, 8)]


@pytest.mark.parametrize("theta,psi,M,digest", _VALUE_SCANS,
                         ids=[f"{t}-{p}" for t, p, _, _ in _VALUE_SCANS])
def test_event_values_on_access_match_eager_values(theta, psi, M, digest):
    th, ps = dio.theta_parse(theta), psi_parse(psi)
    res = dio.approximability_scan(th, ps, M)
    for e in res.events:
        dm, thr = _eager_values(e.d, ps, e.m)
        # an mpf compares by value; the repr also pins the 96-bit precision
        assert (e.dist, e.threshold) == (dm, thr)
        assert (repr(e.dist), repr(e.threshold)) == (repr(dm), repr(thr))
        # the anchor is the one the scan certified: within 2^-40 relative
        # of the resolved distance of m (each is within 2^-40 of the truth)
        d, err = dio._resolve_distance(th, e.m)
        assert abs(e.d - d) <= d * Fraction(1, 2**38)
    assert _scan_digest(res) == digest


def _fraction_compare(d, err, psi, m):
    """The scan comparison as it was before the log2 screen: reduce psi(m)
    to a Fraction and compare d with its inverse.  Oracle for the property
    below."""
    exact = psi.eval_fraction(m)
    if exact is not None:
        bound = 1 / exact
        gap = abs(d - bound)
        if gap == 0:
            if err != -math.inf:
                raise PrecisionExhausted(f"scan comparison unresolved at m={m}")
            return False  # boundary: strict inequality fails
        if err != -math.inf and err > log2_fraction(gap) - 1:
            raise PrecisionExhausted(f"scan comparison unresolved at m={m}")
        return d < bound
    # no exact threshold available: compare in log2 with a wide guard band
    l2thr = -psi.log2(m)
    l2d = log2_fraction(d) if d > 0 else -math.inf
    if err != -math.inf and err > min(l2d, l2thr) - 2:
        raise PrecisionExhausted(f"scan comparison unresolved at m={m}")
    if abs(l2d - l2thr) < 1e-6:
        raise PrecisionExhausted(f"scan comparison too close to call at m={m}")
    return l2d < l2thr


_COMPARE_PSIS = ["exp:3/2", "exp:3", "exp:7/5", "pow:3", "pow:2", "pow:5/2",
                 "scale:2/3:exp:3", "scale:5:pow:2", "expexp",
                 "scale:1/2:expexp"]


@st.composite
def _psi_bounds(draw):
    """(psi, m, 1/psi(m)): exact for the families with an exact pair, else
    to 160 bits."""
    psi = psi_parse(draw(st.sampled_from(_COMPARE_PSIS)))
    m = draw(st.integers(1, 8 if psi.text.endswith("expexp") else 2000))
    exact = psi.eval_fraction(m)
    if exact is not None:
        return psi, m, 1 / exact
    return psi, m, to_fraction(1 / psi.eval(m, 160))


@st.composite
def _comparisons(draw):
    """(d, err, psi, m): d exactly at 1/psi(m), within a bit of it, or far
    from it; err exact (-inf), on or near a decision limit, or far below
    it."""
    psi, m, bound = draw(_psi_bounds())
    where = draw(st.sampled_from(["tie", "near", "far"]))
    if where == "tie":
        d = bound
    else:
        frac = Fraction(draw(st.integers(1, 2**20)), 2**21)  # (0, 1/2]
        if where == "near":
            d = bound * (1 + draw(st.sampled_from([-1, 1]))
                         * frac / 2**draw(st.integers(0, 120)))
        else:  # from 1 bit (k = 1) to 200 bits away, above or below
            far = (1 + frac) * Fraction(2) ** draw(st.integers(1, 200))
            d = bound * far if draw(st.booleans()) else bound / far
    l2d, l2thr = log2_fraction(d), -psi.log2(m)
    limits = [min(l2d, l2thr) - 2, min(l2d, l2thr) - 3,
              max(l2d, l2thr) - 2, max(l2d, l2thr) - 3]
    gap_limit = log2_fraction(abs(d - bound)) - 1 if d != bound else None
    if gap_limit is not None:
        limits.append(gap_limit)
    how = draw(st.sampled_from(["exact", "on", "near", "below"]))
    if how == "exact":
        err = -math.inf
    elif how == "on":
        # the code and the oracle compute the min and max limits as the
        # same float expression, so a radius exactly on one probes the
        # non-strict side of that decision
        err = draw(st.sampled_from(limits[:4]))
        assume(gap_limit is None or abs(err - gap_limit) >= 1e-6)
    elif how == "near":
        # two correct roundings of log2(gap) may differ in the last bits,
        # so the draw stays clear of the gap limit by 1e-6, also when
        # another limit plus whole bits lands on it (max(l2d, l2thr) - 1 is
        # log2(gap) - 1 to the last bits when d is far below 1/psi(m))
        u = draw(st.floats(-3, 3).filter(lambda u: abs(u) >= 1e-6))
        err = draw(st.sampled_from(limits)) + u
        assume(gap_limit is None or abs(err - gap_limit) >= 1e-6)
    else:
        err = min(limits) - draw(st.integers(1, 300))
    return d, err, psi, m


@st.composite
def _screen_edges(draw):
    """(d, err, psi, m) at the edges of the log2 screen: d is 2(1 + h) times
    1/psi(m) or that bound over 2(1 + h), with h = 0 or 2^-68 <= |h| <= 1/4,
    so |l2d - l2thr| lies on either side of 1 or on it; err is within a
    hair of screen - 3, the largest radius the screen decides, or of the
    limit of the test that decides past it."""
    psi, m, bound = draw(_psi_bounds())
    h = Fraction(draw(st.integers(-2**8, 2**8)), 2**draw(st.integers(10, 68)))
    d = bound * 2 * (1 + h) if draw(st.booleans()) else bound / (2 * (1 + h))
    l2d, l2thr = log2_fraction(d), -psi.log2(m)
    screen = max(l2d, l2thr) if psi.has_exact_pair else min(l2d, l2thr)
    gap_limit = log2_fraction(abs(d - bound)) - 1
    limit = draw(st.sampled_from([screen - 3, min(l2d, l2thr) - 2, gap_limit]))
    u = draw(st.sampled_from([0.0, 2**-40, -2**-40]) | st.floats(-0.01, 0.01))
    err = limit + u
    # clear of the exact test's limit, as in _comparisons
    assume(abs(err - gap_limit) >= 1e-6)
    return d, err, psi, m


def _outcome(compare, *args):
    try:
        return compare(*args)
    except PrecisionExhausted as e:
        return str(e)


def _on_fallback_limit():
    """A radius exactly on min(l2d, l2thr) - 2, where the fallback for a
    family without an exact pair still decides."""
    psi, m, d = psi_parse("pow:5/2"), 7, Fraction(1, 1000)
    return d, min(log2_fraction(d), -psi.log2(m)) - 2, psi, m


def _assert_compare_matches_oracle(d, err, psi, m):
    # the scan passes the anchor distance as its reduced pair
    assert (_outcome(dio._compare_dist_threshold, d.numerator, d.denominator,
                     err, psi, m)
            == _outcome(_fraction_compare, d, err, psi, m))


@settings(max_examples=400, deadline=None)
@given(_comparisons())
@example(_on_fallback_limit())
def test_compare_matches_fraction_oracle(case):
    _assert_compare_matches_oracle(*case)


@settings(max_examples=400, deadline=None)
@given(_screen_edges())
def test_compare_matches_fraction_oracle_at_screen_edges(case):
    _assert_compare_matches_oracle(*case)


# --- constructions -----------------------------------------------------------


def test_construct_tau_beta_dyadic():
    theta = dio.construct_tau_beta(2, 1, 4)
    assert theta.partial_sum(4) == Fraction(53249, 65536)
    assert float(theta.value(64)) == 0.8125152587890625
    assert [theta.tower(i) for i in range(1, 5)] == [1, 2, 4, 16]


def test_construct_tau_beta_depth1():
    assert float(dio.construct_tau_beta(2, 1, 1).value(64)) == 0.5


def test_construct_tau_beta_exponent_towers():
    theta = dio.construct_tau_beta(3, 2, 3)
    assert [theta.tower(i) for i in range(1, 4)] == [1, 3, 27]


def test_construct_tau_beta_depth_budget():
    with pytest.raises(PrecisionExhausted) as ei:
        dio.construct_tau_beta(2, 1, 8)
    assert ei.value.last_certified == 5  # max safe depth for beta = 2


def test_construct_tau_beta_validation():
    with pytest.raises(ValueError):
        dio.construct_tau_beta(2, 3, 2)  # beta < 1
    with pytest.raises(ValueError):
        dio.construct_tau_beta(4, 2, 2)  # not coprime


def test_construct_jarnik_exp3():
    cf = dio.construct_jarnik(psi_parse("exp:3"), 4)
    assert cf.quotients[:4] == (0, 1, 3, 21)
    convs = dio.convergents(cf)
    # target: ||m_k theta|| < 1/psi(m_k), i.e. m_{k+1} >= psi(m_k)
    psi = psi_parse("exp:3")
    for k in range(2, len(convs) - 1):
        assert math.log2(convs[k + 1].m) >= psi.log2(convs[k].m)


def test_construct_jarnik_posteriori_distances():
    psi = psi_parse("exp:3")
    theta = dio.JarnikTheta(psi, 4)
    convs = dio.convergents(theta.cf)
    for k in range(2, len(convs) - 1):
        # exact guarantee: m_{k+1} >= psi(m_k), hence ||m_k theta|| < 1/psi(m_k)
        assert convs[k + 1].m >= psi.eval_fraction(convs[k].m)
        d = dio.nearest_distance(theta, convs[k].m)
        assert d * psi.eval(convs[k].m, 96) < 1 + 1e-9
    est = dio.irrationality_base_estimate(theta.cf)
    assert est.estimate == pytest.approx(3.0, rel=0.20)


def test_construct_jarnik_expexp_budget():
    with pytest.raises(PrecisionExhausted) as ei:
        dio.construct_jarnik(psi_parse("expexp"), 6)
    assert ei.value.partial.quotients == (0, 1, 16)
    # the theta spec degrades to the constructible prefix
    jt = dio.theta_parse("jarnik:expexp:6")
    assert jt.cf.quotients == (0, 1, 16)
    rep = dio.convergent_invariants(jt, 2)
    assert rep.all_ok


def test_construct_jarnik_infeasible():
    with pytest.raises(ConstructionInfeasible):
        dio.construct_jarnik(psi_parse("pow:1"), 8)


def test_base_estimate_classics():
    # polynomially approximable numbers: the m_k-th roots tend to 1
    assert dio.irrationality_base_estimate(
        dio.cf_expand_surd(2, 20)).estimate == pytest.approx(1.0, abs=0.05)
    golden_cf = dio.theta_parse("golden").continued_fraction(40)
    assert dio.irrationality_base_estimate(golden_cf).estimate == \
        pytest.approx(1.0, abs=0.05)


def test_base_estimate_tau_beta():
    theta = dio.theta_parse("taubeta:2/1:5")
    try:
        cf = dio.cf_expand(theta, 40)
    except PrecisionExhausted as e:
        cf = e.partial
    est = dio.irrationality_base_estimate(cf)
    assert est.estimate == pytest.approx(2.0, rel=0.15)
    assert est.low <= est.estimate <= est.high


def test_base_estimate_needs_three():
    with pytest.raises(ValueError):
        dio.irrationality_base_estimate(dio.ContinuedFraction((1, 2)))
