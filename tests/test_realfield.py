import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcorr import diophantine as dio
from divcorr.errors import PrecisionExhausted, PsiParseError
from divcorr.realfield import (_fmt_int, fraction_to_mpf, gamma_const,
                               log2_fraction, log2_ratio, psi_parse,
                               to_fraction)

# published digits (independent reference)
GAMMA_50 = "0.57721566490153286060651209008240243104215933593992"


def test_gamma_digits():
    g = gamma_const(53)
    assert mpmath.nstr(g, 16) == "0.5772156649015329"
    assert float(2 * g - 1) == pytest.approx(0.1544313298030657, abs=1e-16)
    g200 = gamma_const(200)
    assert mpmath.nstr(g200, 50) == GAMMA_50


def test_fmt_int_switches_to_hex_at_4300_digits():
    # Python's int -> str conversion stops at 4300 digits
    assert _fmt_int(10**4300 - 1) == "9" * 4300
    for n in (10**4300, -10**4300, 3**10000):
        assert _fmt_int(n) == hex(n) and int(_fmt_int(n), 0) == n
    assert _fmt_int(-12) == "-12"


def test_gamma_precision_monotone():
    a = gamma_const(53)
    b = gamma_const(256)
    assert abs(float(a) - float(b)) < 1e-15


def test_gamma_rejects_low_precision():
    with pytest.raises(ValueError):
        gamma_const(10)


def test_to_fraction_roundtrip():
    with mpmath.workprec(120):
        x = mpmath.sqrt(2)
    fr = to_fraction(x)
    assert abs(fr * fr - 2) < Fraction(1, 2**115)
    assert to_fraction(0.375) == Fraction(3, 8)
    assert to_fraction(7) == 7
    assert to_fraction(Fraction(-5, 3)) == Fraction(-5, 3)


def test_log2_fraction_huge():
    f = Fraction(3**10000, 2**9000)
    expect = 10000 * math.log2(3) - 9000
    assert log2_fraction(f) == pytest.approx(expect, rel=1e-12)


# --- psi language ----------------------------------------------------------


def test_psi_parse_families():
    assert float(psi_parse("pow:2").eval(3)) == pytest.approx(9.0)
    assert float(psi_parse("exp:3").eval(4)) == pytest.approx(81.0)
    assert float(psi_parse("expexp").eval(1)) == pytest.approx(math.exp(math.e))
    assert float(psi_parse("scale:2:pow:3").eval(2)) == pytest.approx(16.0)


def test_psi_parse_errors():
    for bad in ("pow", "pow:-1", "exp:1", "exp:0.5", "scale:0:pow:1",
                "frob:2", "expexp:3", "scale:2"):
        with pytest.raises(PsiParseError):
            psi_parse(bad)
    try:
        psi_parse("scale:2:what:1")
    except PsiParseError as e:
        assert e.position >= 0


def test_psi_inverse_closed_forms():
    assert psi_parse("pow:2").inverse(16) == pytest.approx(4.0)
    f = psi_parse("exp:3")
    X = 12345.0
    assert f.inverse(X**0.25) == pytest.approx(math.log(X**0.25) / math.log(3))
    e2 = math.exp(math.exp(2.0))
    assert psi_parse("expexp").inverse(e2) == pytest.approx(2.0, rel=1e-12)


def test_psi_inverse_bisection_oracle():
    # independent monotone bisection against the closed form
    f = psi_parse("expexp")
    y = math.exp(math.exp(2.0))
    lo, hi = 1.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(f.eval(mid)) < y:
            lo = mid
        else:
            hi = mid
    assert f.inverse(y) == pytest.approx(0.5 * (lo + hi), rel=1e-12)


def test_psi_inverse_domain():
    with pytest.raises(ValueError):
        psi_parse("exp:3").inverse(1.0)
    with pytest.raises(ValueError):
        psi_parse("pow:2").inverse(0.5)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["pow:2", "pow:0.5", "exp:1.5", "exp:3", "expexp",
                        "scale:0.4:pow:1", "scale:2:exp:2"]),
       st.floats(min_value=0.0, max_value=3.0))
def test_psi_roundtrip_and_monotone(text, t):
    f = psi_parse(text)
    x = 1.0 + (10.0**3 - 1.0) * (t / 3.0)
    y = f.eval(x)
    assert f.inverse(y) == pytest.approx(x, rel=1e-10)
    y2 = f.eval(x + 0.5)
    assert y2 > y


def test_psi_log2_saturates():
    f = psi_parse("expexp")
    assert f.log2(2.0) == pytest.approx(math.exp(2.0) * math.log2(math.e))
    assert f.log2(10**9) == math.inf
    g = psi_parse("exp:1.5")
    assert g.log2(2**16) == pytest.approx(2**16 * math.log2(1.5))


def test_psi_exact_fraction_and_ceil_div():
    g = psi_parse("exp:3")
    assert g.eval_fraction(4) == Fraction(81)
    assert g.ceil_div(4, 1 << 20) == 21  # ceil(81/4)
    s = psi_parse("scale:0.5:exp:3")
    assert s.eval_fraction(2) == Fraction(9, 2)
    # the pair is not reduced; eval_fraction and ceil_div agree with it
    h = psi_parse("scale:4/3:exp:3/2")
    assert h.exact_pair(5) == (4 * 3**5, 3 * 2**5)
    assert h.eval_fraction(5) == Fraction(4, 3) * Fraction(3, 2) ** 5
    assert h.ceil_div(5, 1 << 20) == 3  # ceil(81/8 / 5)
    assert psi_parse("pow:3").exact_pair(7) == (343, 1)
    assert psi_parse("pow:5/2").exact_pair(7) is None
    assert psi_parse("expexp").exact_pair(2) is None
    e = psi_parse("expexp")
    assert e.ceil_div(1, 1 << 20) == 16  # ceil(e^e) = 16


@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_ceil_div_integer_pow_is_the_ceiling_of_the_pair(a):
    # pow:a returns m^(a - 1) with no division; the pair's ceiling agrees
    psi = psi_parse(f"pow:{a}")
    for m in [*range(1, 300), 2**61 - 1, 3**50]:
        P, Q = psi.exact_pair(m)
        assert psi.ceil_div(m, 1 << 20) == -((-P) // (Q * m))


def test_ceil_div_over_budget_at_an_m_past_the_int_str_limit():
    # m has over 4300 decimal digits: the message names its bit length
    with pytest.raises(PrecisionExhausted, match="14617-bit m"):
        psi_parse("pow:2").ceil_div(10**4400, 10)


@pytest.mark.parametrize("spec,m,P", [
    ("exp:3/2", 5, Fraction(243, 32)), ("scale:4/3:pow:2", 3, Fraction(12)),
    ("pow:5/2", 4, Fraction(32)), ("scale:3:pow:7/3", 8, Fraction(384)),
    ("scale:1/2:pow:5/2", 9, Fraction(243, 2))])
def test_psi_at_most_is_exact(spec, m, P):
    """psi(m) = P at each m; at_most holds from the ceiling of P on, also
    for m^(a/b), where no exact pair exists."""
    psi = psi_parse(spec)
    n = -(-P.numerator // P.denominator)
    assert [psi.at_most(m, k) for k in (n - 1, n, n + 1)] == [False, True, True]
    assert psi_parse("expexp").at_most(2, 10**6) is None


# --- measured error of the log2 values the scan screen compares ------------
#
# diophantine._compare_dist_threshold decides most scan events from
# log2_fraction(d) and psi.log2(m) alone, with a 1-bit margin; it relies on
# both being within 2**-20 of the exact value while at most 2**30 in
# magnitude.  The reference is mpmath at 256 bits.

_LOG2_TOL = 2.0 ** -20


def _ref_log2_int(n: int) -> mpmath.mpf:
    """log2 of a positive int at 256 bits, from its top 300 bits (the rest
    moves the value by less than 2**-298)."""
    s = max(n.bit_length() - 300, 0)
    with mpmath.workprec(256):
        return mpmath.log(mpmath.mpf(n >> s), 2) + s


def _ref_log2(x) -> mpmath.mpf:
    """log2 of a positive int or Fraction at 256 bits."""
    x = Fraction(x)
    with mpmath.workprec(256):
        return _ref_log2_int(x.numerator) - _ref_log2_int(x.denominator)


def _ratio_cases():
    """(a, ka, b, kb, exact log2(p/q)) with p = a << ka, q = b << kb, up to
    2**30 in magnitude; the test shifts in place, so at most one operand of
    2**30 bits (128 MiB) is alive at a time."""
    odd = [1, 3, 2**52 + 1, 2**53 - 1, 3**200, 10**40 + 7]
    for a in odd:
        for b in odd[:4]:
            yield a, 0, b, 0, _ref_log2(Fraction(a, b))
    a, b = 5**30 + 2, 2**61 - 1
    for k in (60, 1000, 2**20 + 3, 2**24 + 77, 2**28 - 5, 2**30 - 64):
        with mpmath.workprec(256):
            yield a, k, b, 0, _ref_log2(Fraction(a, b)) + k
            yield a, 0, b, k, _ref_log2(Fraction(a, b)) - k
    # both huge: the rounding of each bit-length sum no longer cancels
    a, b, k = 3**40, 7**20, 2**27
    with mpmath.workprec(256):
        yield a, k, b, k - 9, _ref_log2(Fraction(a, b)) + 9


def test_log2_ratio_measured_error():
    worst = 0.0
    for a, ka, b, kb, ref in _ratio_cases():
        with mpmath.workprec(256):
            err = abs(log2_ratio(a << ka, b << kb) - ref)
        worst = max(worst, float(err))
    assert worst <= _LOG2_TOL


def _walk_cases():
    """(p, q, kq, [(g, exact log2(g p / q')), ...]) for q' = q << kq, with
    2 g p <= q' as in the scan's walk over the multiples g q_k: synthetic
    pairs out to |log2| near 2**30, then the resolved distances p/q of the
    convergents of four thetas."""
    for p, q in ((1, 3), (3, 2**53 - 1), (2**52 + 1, 2**61 - 1),
                 (10**40 + 7, 3**200)):
        for kq in (0, 60, 1000, 2**20 + 3, 2**24 + 77, 2**28 - 5,
                   2**30 - 512):
            # exact for kq >= 1000 too: 2 g p < 2**1000 there
            yield p, q, kq, [
                (g, _ref_log2(Fraction(g * p, q)) - kq)
                for g in (2, 3, 1000, 2**20 + 1, 2**40 - 3, 2**52 + 1,
                          2**53 - 1)
                if 2 * g * p <= q << min(kq, 1000)]
    for spec in ("taubeta:2/1:4", "golden", "surd:2", "jarnik:pow:2:6"):
        theta = dio.theta_parse(spec)
        for c in dio._convergents_past(theta, 2**24):
            try:
                d, _ = dio._resolve_distance(theta, c.m)
            except PrecisionExhausted:  # the scan skips these too
                continue
            p, q = d.numerator, d.denominator
            yield p, q, 0, [(g, _ref_log2(g * d))
                            for g in {2, 3, q // (4 * p), q // (2 * p)}
                            if 2 <= g <= q // (2 * p)]


def test_walk_log2_measured_error():
    # the scan's walk takes log2(g p / q) as log2_ratio(p, q) + log2(g),
    # one log2_ratio per convergent; its screen needs 2**-20 while the value
    # is at most 2**30 in magnitude.  One q' of 2**30 bits is alive at a time
    worst = 0.0
    for p, q, kq, refs in _walk_cases():
        L = log2_ratio(p, q << kq)
        for g, ref in refs:
            assert abs(ref) <= 2**30
            with mpmath.workprec(256):
                worst = max(worst, float(abs(L + math.log2(g) - ref)))
    assert worst <= _LOG2_TOL


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**(2**12)), st.integers(1, 2**(2**12)),
       st.integers(0, 2**24))
def test_log2_fraction_measured_error(p, q, k):
    f = Fraction(p << k, q)
    with mpmath.workprec(256):
        assert abs(log2_fraction(f) - _ref_log2(f)) <= _LOG2_TOL
        assert abs(log2_fraction(1 / f) + _ref_log2(f)) <= _LOG2_TOL


def _psi_ref_log2(text: str, m: int) -> mpmath.mpf:
    """log2(psi(m)) at 256 bits, from the closed form of each family."""
    head, _, rest = text.partition(":")
    with mpmath.workprec(256):
        if head == "pow":
            s = Fraction(rest)
            return mpmath.mpf(s.numerator) / s.denominator * _ref_log2(m)
        if head == "exp":
            return m * _ref_log2(Fraction(rest))
        if head == "expexp":
            return mpmath.exp(m) / mpmath.log(2)
        c, _, inner = rest.partition(":")
        return _ref_log2(Fraction(c)) + _psi_ref_log2(inner, m)


_PSI_LOG2_CASES = [
    ("exp:3/2", [1, 7, 2**16, 3 * 2**16 - 1, 12345678, 1835008000]),
    ("exp:3", [1, 2**16, 677000000]),
    ("exp:1.1", [10**6, 7800000000]),
    # bases near 1, where log2(a) - log2(b) would cancel
    ("exp:1.000001", [2**40, 740000000000000]),
    ("exp:1099511627777/1099511627776", [2**40, 2**53]),
    ("exp:1.2345678901234567890", [2**31 + 1, 3500000000]),
    # pow above 2**53 up to 2**256, including the Jarnik denominators
    # m_6, m_7 of jarnik:pow:3:7
    ("pow:3", [1, 2, 10**4, 2**53, 2**53 + 1, 59601394712394173339000731,
               211723599072542785377729319366442939995427829921816290889198752331804918235791,
               2**256 - 1, 2**256]),
    ("pow:5/2", [7, 2**50 + 1, 2**100 + 7, 3**161]),
    ("pow:16777216", [2**53 - 1, 2**60 - 1]),
    ("expexp", [1, 2, 10, 20]),
    ("scale:4/3:exp:3/2", [5, 2**20]),
    ("scale:1/1000:pow:2", [1, 2**52 + 1, 2**200 + 1]),
]


@pytest.mark.parametrize("text,ms", _PSI_LOG2_CASES,
                         ids=[t for t, _ in _PSI_LOG2_CASES])
def test_psi_log2_measured_error(text, ms):
    psi = psi_parse(text)
    for m in ms:
        ref = _psi_ref_log2(text, m)
        assert abs(ref) <= 2**30
        with mpmath.workprec(256):
            assert abs(psi.log2(m) - ref) <= _LOG2_TOL, m


@pytest.mark.parametrize("text", [
    "exp:3", "exp:3/2", "exp:11/10", "exp:1.0001", "exp:1000", "exp:2",
    "scale:1/1000:exp:2"])
def test_psi_log2_exp_above_2_53_relative_error(text):
    # above 2**53 an exp family returns float(x) * log2(base) for x < 2**61:
    # three roundings (x, the log, the product); the worst of these samples
    # is 1.04 * 2**-52.  These values lie far outside the +-2**30 range of
    # the scan's log2 screen.
    psi = psi_parse(text)
    rng = random.Random(text)
    worst = 0.0
    for _ in range(3000):
        m = rng.randrange(2**53 + 1, 2**61)
        ref = _psi_ref_log2(text, m)
        with mpmath.workprec(256):
            worst = max(worst, float(abs(psi.log2(m) - ref) / abs(ref)))
    assert worst <= 2**-50


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-2**300, max_value=2**300),
       st.integers(min_value=0, max_value=2**200),
       st.integers(min_value=0, max_value=3000),
       st.integers(min_value=53, max_value=256))
def test_fraction_to_mpf_matches_plain_division(num, k, tz, bits):
    """Splitting off the denominator's power of two keeps every bit of the
    plain route: the numerator rounded, then divided by the whole
    denominator, at `bits` bits."""
    f = Fraction(num, (2 * k + 1) << tz)
    with mpmath.workprec(bits):
        want = mpmath.mpf(f.numerator) / f.denominator
    assert fraction_to_mpf(f, bits)._mpf_ == want._mpf_
