import json
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from divcorr import divisor, voronoi
from divcorr.checks import SUITES
from divcorr.divisor import delta
from divcorr.voronoi import (SpectralParams, a_mn, lambda_kernel,
                             osc_integral, q_n, spectral_j)
from divcorr.diophantine import theta_parse


def lambda_direct(x: float) -> float:
    return math.sin(x) / x + 2 * math.cos(x) / x**2 - 2 * math.sin(x) / x**3


def test_lambda_special_values():
    assert lambda_kernel(0.0) == 1.0 / 3.0
    assert lambda_kernel(math.pi) == pytest.approx(-2 / math.pi**2, rel=1e-12)
    assert lambda_kernel(2 * math.pi) == pytest.approx(1 / (2 * math.pi**2),
                                                       rel=1e-12)


def _lambda_masked(x):
    """lambda_kernel before the in-place pass: each branch evaluated on the
    entries it owns, gathered and scattered by the |x| < 1e-3 mask."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(arr)
    small = np.abs(arr) < 1e-3
    xs = arr[small]
    out[small] = (1.0 / 3.0) - xs * xs / 10.0 + xs**4 / 168.0
    xl = arr[~small]
    sl, cl = np.sin(xl), np.cos(xl)
    out[~small] = sl / xl + 2.0 * cl / xl**2 - 2.0 * sl / xl**3
    return out


def test_lambda_bitwise_equals_masked_kernel():
    edge = [1e-3, np.nextafter(1e-3, 0.0), np.nextafter(1e-3, 1.0)]
    rng = np.random.default_rng(3)
    xs = np.concatenate([
        [0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-160, -1e-160],
        edge, np.negative(edge),
        [-1e5, -3.7e7, -1e100, -1e110, 1e110],
        rng.uniform(-1e-2, 1e-2, 200), -(10.0 ** rng.uniform(-2, 8, 500)),
        10.0 ** rng.uniform(-2, 8, 500)])
    with np.errstate(all="ignore"):  # the masked cube overflows at 1e110
        want = _lambda_masked(xs)
    got = lambda_kernel(xs)
    assert got.tobytes() == want.tobytes()
    for x, y in zip(xs, want):
        assert lambda_kernel(float(x)) == y


def test_lambda_transposed_equals_contiguous_copy():
    # a transposed x is not C-contiguous, so its temporaries and redo mask
    # are Fortran-ordered; the gathered indices must still pair each
    # recomputed value with its own entry
    rng = np.random.default_rng(5)
    xs = np.concatenate([[0.0, -0.0, 5e-324, 1e-3, -1e-3, 1e110],
                         rng.uniform(-1e-2, 1e-2, 97),
                         10.0 ** rng.uniform(-2, 8, 97)])
    x = rng.permutation(xs).reshape(25, 8).T
    assert not x.flags.c_contiguous
    got = lambda_kernel(x)
    want = lambda_kernel(np.ascontiguousarray(x))
    assert got.shape == want.shape == (8, 25)
    assert got.tobytes() == want.tobytes()
    with np.errstate(all="ignore"):  # the masked cube overflows at 1e110
        assert got.tobytes() == _lambda_masked(x).tobytes()


def _ulps_from(v, k):
    """The double k ulps above v > 0 (below for k < 0)."""
    return float((np.array([v]).view(np.int64) + k).view(np.float64)[0])


def _signed(lo, hi):
    return st.one_of(st.floats(min_value=lo, max_value=hi),
                     st.floats(min_value=-hi, max_value=-lo))


#: doubles of every sign and magnitude, weighted towards the kernel's edges:
#: subnormals, the neighbours of the Taylor switch, the spectral range, the
#: band where the cube overflows, and the specials
_KERNEL_ARGS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-2.2250738585072014e-308,
              max_value=2.2250738585072014e-308),
    st.builds(lambda k, sign: sign * _ulps_from(1e-3, k),
              st.integers(-4, 4), st.sampled_from((1.0, -1.0))),
    _signed(1e-3, 1e8),
    _signed(1e102, 1e103),
    st.sampled_from((math.inf, -math.inf, math.nan, 0.0, -0.0)))


def _row_args(spec, X, stride=1):
    """The arguments u = 4 pi (sqrt(m theta) - sqrt n) sqrt X that
    spectral_j passes to lambda_kernel, for the rows m = 1, 1 + stride, ...
    at N = X^{3/4}, concatenated."""
    th = float(theta_parse(spec))
    N = int(X ** 0.75)
    sqrt_n = np.sqrt(np.arange(1, N + 1, dtype=np.float64))
    return np.concatenate([(math.sqrt(m * th) - sqrt_n) * (4.0 * math.pi)
                           * math.sqrt(X) for m in range(1, N + 1, stride)])


def _assert_kernel_bits(xs):
    with np.errstate(all="ignore"):  # the masked cube overflows, nan, inf
        want = _lambda_masked(xs)
    assert lambda_kernel(xs).tobytes() == want.tobytes()
    # the same bytes with the temporaries in a caller's workspace, whose
    # first slice is the result
    work = np.full((4,) + xs.shape, np.nan)
    assert lambda_kernel(xs, work).tobytes() == want.tobytes()
    assert work[0].tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(_KERNEL_ARGS, min_size=1, max_size=40))
def test_lambda_bits_property(xs):
    # x*x*x plus the rounding certificate gives the np.power kernel's bytes
    _assert_kernel_bits(np.array(xs, dtype=np.float64))


@pytest.mark.parametrize("spec", ["surd:2", "taubeta:2/1:4", "rat:1/1"])
def test_lambda_bits_on_spectral_rows(spec):
    # the 89 rows at X = 400 as one (89, 89) array: the kernel is elementwise
    _assert_kernel_bits(_row_args(spec, 400.0).reshape(89, 89))
    _assert_kernel_bits(_row_args(spec, 1e4, stride=7))


def _record_direct(monkeypatch, impl=None):
    """Route lambda_kernel's fallback through a recorder; returns the list
    of the arrays it receives."""
    seen = []
    impl = impl or voronoi._lambda_direct

    def recording(x):
        seen.append(x.copy())
        return impl(x)
    monkeypatch.setattr(voronoi, "_lambda_direct", recording)
    return seen


def test_lambda_fallback_runs_where_the_test_fails(monkeypatch):
    seen = _record_direct(monkeypatch)
    u = _row_args("surd:2", 1e4, stride=7)
    band = u[(np.abs(u) >= 1e-3) & (np.abs(u) <= 100.0)]
    lambda_kernel(band)
    got = np.concatenate(seen)
    assert 0 < got.size < band.size
    assert np.all(np.abs(got) >= 1e-3)  # certificate failures, not Taylor
    seen.clear()
    x = np.geomspace(1e4, 1e6, 20_000)
    lambda_kernel(np.concatenate([x, -x]))
    assert seen == []


def test_lambda_fallback_needs_np_power(monkeypatch):
    # a fallback with the cheap cube moves bits: the certificate, not luck,
    # keeps the np.power values
    def cheap(x):
        s, c = np.sin(x), np.cos(x)
        return s / x + 2.0 * c / (x * x) - 2.0 * s / (x * x * x)
    _record_direct(monkeypatch, cheap)
    u = _row_args("taubeta:2/1:4", 400.0)
    with np.errstate(all="ignore"):
        want = _lambda_masked(u)
    assert lambda_kernel(u).tobytes() != want.tobytes()


def test_cube_within_two_ulps_of_np_power():
    # the certificate needs np.power(x, 3) close to (x*x)*x; 1 ulp measured
    rng = np.random.default_rng(11)
    x = 10.0 ** rng.uniform(-3, 8, 200_000)
    x = np.concatenate([x, -x])
    ulps = np.abs(np.power(x, 3).view(np.int64) - ((x * x) * x).view(np.int64))
    assert ulps.max() <= 2


_AVX2_ONLY = "AVX512_SPR AVX512_ICL X86_V4"

# the kernel against the masked np.power oracle, on random doubles, the
# edges and the spectral rows, under the dispatch set in its environment
_CHILD = """
import json, math, sys
import numpy as np
sys.path.insert(0, %r)
from numpy._core._multiarray_umath import __cpu_features__
from test_voronoi import _lambda_masked, _row_args
from divcorr.voronoi import lambda_kernel
rng = np.random.default_rng(5)
mag = 10.0 ** rng.uniform(-4, 300, 200_000)
xs = [mag * rng.choice([-1.0, 1.0], mag.size),
      np.array([0.0, 5e-324, -5e-324, 1e-3, -1e-3, math.inf, -math.inf,
                math.nan, 1e102, -5.6e102, 1e103]),
      _row_args("surd:2", 1e4, stride=7), _row_args("rat:1/1", 1e4, stride=7)]
xs = np.concatenate(xs)
with np.errstate(all="ignore"):
    want = _lambda_masked(xs)
print(json.dumps({"equal": lambda_kernel(xs).tobytes() == want.tobytes(),
                  "features": {f: __cpu_features__[f] for f in %r}}))
"""


def test_lambda_bits_under_avx2_dispatch():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        pytest.skip("numpy < 2 names its CPU features differently")
    feats = _AVX2_ONLY.split()
    if not all(__cpu_features__.get(f) for f in feats):
        pytest.skip("the host lacks the AVX-512 features to switch off")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=_AVX2_ONLY)
    src = str(Path(voronoi.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    tests = str(Path(__file__).resolve().parent)
    out = subprocess.run([sys.executable, "-c", _CHILD % (tests, feats)],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=300)
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["features"] == {f: False for f in feats}
    assert got["equal"]


def test_lambda_branch_consistency():
    # the two branches agree near the switch point
    for x in np.linspace(5e-4, 1e-2, 500):
        assert abs(lambda_direct(x) - lambda_kernel(x)) < 1e-6
        assert abs(lambda_direct(-x) - lambda_kernel(-x)) < 1e-6


def test_lambda_vectorized_matches_scalar():
    xs = np.array([-3.0, -1e-4, 0.0, 1e-4, 0.5, 10.0])
    v = lambda_kernel(xs)
    for x, y in zip(xs, v):
        assert lambda_kernel(float(x)) == y


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e6))
def test_lambda_decay_bound(x):
    assert abs(lambda_kernel(x)) * abs(x) <= 3.1


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=-1e-2, max_value=1e-2))
def test_lambda_bounded_near_zero(x):
    assert abs(lambda_kernel(x)) <= (1 / 3) * (1 + 1e-9)


def test_osc_integral_trivial_and_domain():
    assert osc_integral(1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        osc_integral(-1.0, 4.0)
    with pytest.raises(ValueError):
        osc_integral(0.0, 4.0)
    with pytest.raises(ValueError):
        osc_integral(1.0, 4.0, kind="tan")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_osc_integral_against_quad():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = float(10.0 ** rng.uniform(-2, 2))
        X = float(10.0 ** rng.uniform(0.05, 3))
        for kind in ("cos", "sin"):
            oracle, err = quad(lambda x: x * x, 1, math.sqrt(X), weight=kind,
                               wvar=a, epsabs=1e-13, epsrel=1e-13, limit=1000)
            got = osc_integral(a, X, kind)
            assert got == pytest.approx(oracle, rel=1e-10, abs=1e-10)


def test_osc_integral_magnitude_bound():
    for a in (1e-2, 0.0316, 0.1, 0.316, 1.0, 3.16, 10.0, 100.0, 1e3):
        for X in (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6):
            for kind in ("cos", "sin"):
                assert abs(osc_integral(a, X, kind)) * a / X**2 <= 4.0


def _osc_series_twins(a, s, kind):
    """The series of osc_integral before cos and sin shared one loop."""
    acc = 0.0
    sign = 1.0
    if kind == "cos":
        apow, fact = 1.0, 1.0  # a^{2j}, (2j)!
        for j in range(48):
            term = sign * apow * (s ** (2 * j + 3) - 1.0) / (fact * (2 * j + 3))
            acc += term
            if abs(term) < 1e-18 * abs(acc):
                break
            sign = -sign
            apow *= a * a
            fact *= (2 * j + 1) * (2 * j + 2)
    else:
        apow, fact = a, 1.0  # a^{2j+1}, (2j+1)!
        for j in range(48):
            term = sign * apow * (s ** (2 * j + 4) - 1.0) / (fact * (2 * j + 4))
            acc += term
            if abs(term) < 1e-18 * abs(acc):
                break
            sign = -sign
            apow *= a * a
            fact *= (2 * j + 2) * (2 * j + 3)
    return acc


def _osc_integral_twins(a, X, kind):
    """osc_integral before cos and sin shared one antiderivative."""
    up = math.sqrt(X)
    if a * up <= 1.0:
        return _osc_series_twins(a, up, kind)
    if kind == "cos":
        def F(t):
            s, c = math.sin(a * t), math.cos(a * t)
            return t * t * s / a + 2.0 * t * c / a**2 - 2.0 * s / a**3
    else:
        def F(t):
            s, c = math.sin(a * t), math.cos(a * t)
            return -t * t * c / a + 2.0 * t * s / a**2 + 2.0 * c / a**3
    return F(up) - F(1.0)


def test_osc_integral_bitwise_equals_twins():
    # random phases on both sides of a sqrt(X) = 1 (series and closed
    # form), and the three doubles a nearest the switch at four X
    rng = np.random.default_rng(17)
    a = 10.0 ** rng.uniform(-4, 3, 4000)
    X = 10.0 ** rng.uniform(0, 8, 4000)
    cases = list(zip(a.tolist(), X.tolist()))
    for X in (1.0, 4.0, 1e4, 1e8):
        at = 1.0 / math.sqrt(X)
        cases += [(at, X), (math.nextafter(at, 0.0), X),
                  (math.nextafter(at, 2.0), X)]
    series = closed = 0
    for a, X in cases:
        if a * math.sqrt(X) <= 1.0:
            series += 1
        else:
            closed += 1
        for kind in ("cos", "sin"):
            got, want = osc_integral(a, X, kind), _osc_integral_twins(a, X, kind)
            assert got.hex() == want.hex(), (a, X, kind)
    assert series > 500 and closed > 500


def test_kernel_integral_identity():
    # Lambda(a sqrt X) = X^{-3/2} int_1^{sqrt X} x^2 cos(ax) dx + Lambda(a) X^{-3/2}
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = float(10.0 ** rng.uniform(-2, 2))
        X = float(10.0 ** rng.uniform(0.05, 4))
        lhs = lambda_kernel(a * math.sqrt(X))
        rhs = osc_integral(a, X, "cos") / X**1.5 + lambda_kernel(a) / X**1.5
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
    lhs = lambda_kernel(1.0 * math.sqrt(9.0))
    rhs = osc_integral(1.0, 9.0, "cos") / 27.0 + lambda_kernel(1.0) / 27.0
    assert lhs == pytest.approx(rhs, rel=1e-12)


# --- truncated series ---------------------------------------------------------


def test_qn_empty_sum(table_2e4):
    assert q_n(50.0, 0, table_2e4) == 0.0


def test_qn_table_too_small(table_2e4):
    with pytest.raises(ValueError):
        q_n(50.0, 30_000, table_2e4)


def test_qn_approximates_delta(table_2e4):
    assert abs(q_n(100.5, 10_000, table_2e4) - delta(100.5)) < 0.5


def test_qn_rms_decay(table_2e4):
    rng = np.random.default_rng(12345)
    xs = 10 + 90 * rng.random(100)
    rms = {}
    for N in (1000, 2000, 4000):
        errs = [q_n(float(x), N, table_2e4) - delta(float(x)) for x in xs]
        rms[N] = math.sqrt(sum(e * e for e in errs) / len(errs))
    assert rms[4000] < rms[2000] <= rms[1000]


def _qn_oracle(x, N, table):
    """(Q_N(x), S) at 120 bits for the same double x and N, where
    S = x^{1/4}/(sqrt2 pi) sum_{n <= N} tau(n) n^{-3/4} bounds |Q_N(x)|."""
    with mpmath.workprec(120):
        X = mpmath.mpf(x)
        total = scale = mpmath.mpf(0)
        for n in range(1, N + 1):
            coef = int(table.counts[n]) * mpmath.power(n, mpmath.mpf(-0.75))
            total += coef * mpmath.cos(4 * mpmath.pi * mpmath.sqrt(n * X)
                                       - mpmath.pi / 4)
            scale += coef
        pref = X ** 0.25 / (mpmath.sqrt(2) * mpmath.pi)
        return pref * total, pref * scale


@pytest.mark.parametrize("lo,hi,N,k", [(0, 3, 1000, 4), (3, 6, 1000, 4),
                                       (11, 12, 10_000, 1)])
def test_qn_float_error_bound(lo, hi, N, k, table_2e4):
    # the rounded phase 4 pi sqrt(n x) carries the error: per term at most
    # 3.9 u of it, cos and the coefficient add below 1 u of it (it is at
    # least 4 pi), and the correctly rounded sum and the prefactor add less,
    # so |q_n - Q_N| <= S * 3 * 2^-52 * 4 pi sqrt(N x) with u = 2^-53.
    # Measured worst err / S: 3.8e-14 on [1, 1e3] and 9.2e-13 on [1e3, 1e6]
    # at N = 1e3, 1.4e-9 on [1e11, 1e12] at N = 1e4; that is c <= 0.015
    # (README).
    rng = np.random.default_rng(lo)
    for x in (10.0 ** rng.uniform(lo, hi, k)).tolist():
        want, S = _qn_oracle(x, N, table_2e4)
        bound = S * 3 * 2.0**-52 * 4 * math.pi * math.sqrt(N * x)
        assert abs(q_n(x, N, table_2e4) - want) <= bound, x


# --- spectral sum --------------------------------------------------------------


def test_a_mn_values():
    assert a_mn(theta_parse("rat:2/1"), 1, 2) == 0.0
    got = a_mn(theta_parse("surd:2"), 1, 1)
    assert got == pytest.approx(4 * math.pi * (2**0.25 - 1), rel=1e-12)
    assert got == pytest.approx(2.3776467, abs=1e-6)
    got = a_mn(theta_parse("surd:2"), 2, 3)
    expect = 4 * math.pi * (math.sqrt(2 * math.sqrt(2)) - math.sqrt(3))
    assert got == pytest.approx(expect, rel=1e-12)
    assert got < 0
    with pytest.raises(ValueError):
        a_mn(theta_parse("surd:2"), 0, 1)


def test_theta_enters_as_one_correctly_rounded_double():
    theta = theta_parse("surd:2435")
    th = float(theta)
    assert th == float.fromhex("0x1.8ac40868f92c1p+5") == math.sqrt(2435)
    # the spectral frequencies use the same double as the exact integral
    assert a_mn(theta, 1, 1) == a_mn(th, 1, 1)


def test_spectral_j_at_n_0_and_past_the_table():
    theta, table = theta_parse("surd:2"), divisor.sieve_tau(10)
    rep = spectral_j(theta, SpectralParams(X=100.0, N=0, T=30.0), table)
    assert (rep.J_total, rep.D_lower, rep.D_upper, rep.term_count_lower,
            rep.term_count_upper) == (0.0, 0.0, 0.0, 0, 0)
    with pytest.raises(ValueError, match="table limit 10 < N = 11"):
        spectral_j(theta, SpectralParams(X=100.0, N=11, T=30.0), table)


def test_spectral_j_matches_brute(table_2e4):
    # the comparison with a naive double loop at X = 16 is the spectral
    # suite of `divcorr verify`
    check, = SUITES["spectral"](0)
    assert check.ok, str(check)
    params = SpectralParams.default(16.0)
    assert params.N == 8 and params.T == math.inf
    rep = spectral_j(theta_parse("surd:2"), params, table_2e4)
    assert rep.term_count_lower == 64 and rep.term_count_upper == 0
    assert rep.D_upper == 0.0


def test_spectral_split_consistency(table_2e4):
    theta = theta_parse("surd:2")
    X = 256.0
    full = spectral_j(theta, SpectralParams(X=X, N=64, T=math.inf), table_2e4)
    split = spectral_j(theta, SpectralParams(X=X, N=64, T=30.0), table_2e4)
    assert split.J_total == pytest.approx(full.J_total, rel=1e-12)
    assert split.J_total == pytest.approx(split.D_lower + split.D_upper,
                                          rel=1e-12)
    assert split.term_count_upper > 0
    assert (split.term_count_lower + split.term_count_upper) == 64 * 64


def _spectral_rows_oracle(theta, params, table):
    """spectral_j as it was before its rows shared buffers: each row builds
    u and its terms afresh, with the masked kernel, one row at a time in m
    order.  Returns (J_total, D_lower, D_upper, count_lower, count_upper)."""
    X, N, T = params.X, params.N, params.T
    th = float(theta)
    n = np.arange(1, N + 1, dtype=np.float64)
    coef = table.counts[1:N + 1] / n**0.75
    sqrt_n = np.sqrt(n)
    sX = math.sqrt(X)
    lo, hi, count = [], [], 0
    for m in range(1, N + 1):
        u = (4.0 * math.pi * (math.sqrt(m * th) - sqrt_n)) * sX
        t = coef[m - 1] * coef * _lambda_masked(u)
        mask = np.abs(u) <= T
        lo.append(float(np.sum(t, where=mask)) if mask.any() else 0.0)
        hi.append(float(np.sum(t, where=~mask)) if (~mask).any() else 0.0)
        count += int(mask.sum())
    pref = X**1.5 / (2.0 * math.pi**2)
    d_lower, d_upper = pref * math.fsum(lo), pref * math.fsum(hi)
    return d_lower + d_upper, d_lower, d_upper, count, N * N - count


def test_spectral_j_equals_row_oracle(table_2e4, monkeypatch):
    # N = 89 is prime, so with 2 or 3 workers the rows split unevenly;
    # rat:1/1 has u == 0 on its diagonal (the Taylor branch).  The default
    # block budget gives one block of all 89 rows; 7 * 89 elements give 12
    # blocks of 7 rows and a tail of 5, and 1 element gives one row a block
    N = 89
    for spec in ("surd:2", "taubeta:2/1:4", "rat:1/1"):
        theta = theta_parse(spec)
        for T in (math.inf, 30.0):
            params = SpectralParams(X=400.0, N=N, T=T)
            want = _spectral_rows_oracle(theta, params, table_2e4)
            if T < math.inf:
                assert 0 < want[3] < N * N, spec
            for elems in (voronoi._BLOCK_ELEMS, 7 * N, 1):
                monkeypatch.setattr(voronoi, "_BLOCK_ELEMS", elems)
                for threads in (1, 2, 3):
                    rep = spectral_j(theta, params, table_2e4,
                                     threads=threads)
                    got = (rep.J_total, rep.D_lower, rep.D_upper,
                           rep.term_count_lower, rep.term_count_upper)
                    assert got == want, (spec, T, elems, threads)


def _kernel_rows(monkeypatch, spec, X, N):
    """Route spectral_j's lambda_kernel calls through a recorder; returns
    the list of the row numbers m of each call's (b, N) argument."""
    th = float(theta_parse(spec))
    sqrt_n = np.sqrt(np.arange(1, N + 1, dtype=np.float64))
    row_of = {((math.sqrt(m * th) - sqrt_n) * (4.0 * math.pi)
               * math.sqrt(X)).tobytes(): m for m in range(1, N + 1)}
    calls = []
    kernel = voronoi.lambda_kernel

    def recording(u, work=None):
        assert u.ndim == 2 and u.shape[1] == N
        calls.append([row_of[row.tobytes()] for row in u])
        return kernel(u, work)
    monkeypatch.setattr(voronoi, "lambda_kernel", recording)
    return calls


def test_spectral_j_calls_kernel_once_per_block(table_2e4, monkeypatch):
    # one lambda_kernel call per block, on B consecutive whole rows (fewer
    # in the tail block): the benchmark's voronoi.lambda_calls counts them.
    # Budgets: the default (one block of 89 rows), 7 rows a block with a
    # tail of 5, 4 rows a block with a tail of 1, and one row a block
    N = 89
    calls = _kernel_rows(monkeypatch, "surd:2", 400.0, N)
    for elems in (voronoi._BLOCK_ELEMS, 7 * N, 4 * N + 88, 1):
        monkeypatch.setattr(voronoi, "_BLOCK_ELEMS", elems)
        B = max(1, elems // N)
        for threads in (1, 2, 3):
            calls.clear()
            spectral_j(theta_parse("surd:2"),
                       SpectralParams(X=400.0, N=N, T=30.0), table_2e4,
                       threads=threads)
            assert len(calls) == -(-N // B), (elems, threads)
            for rows in calls:
                assert 1 <= len(rows) <= B
                assert rows == list(range(rows[0], rows[0] + len(rows)))
            assert sorted(m for rows in calls for m in rows) == list(
                range(1, N + 1)), (elems, threads)


def test_short_rows_run_one_per_block(table_2e4, monkeypatch):
    # below _BLOCK_MIN_N each row is its own block whatever the budget, as
    # the benchmark's span test expects at N = 40
    N = 40
    assert N < voronoi._BLOCK_MIN_N <= 89
    calls = _kernel_rows(monkeypatch, "surd:2", 100.0, N)
    for threads in (1, 2):
        calls.clear()
        spectral_j(theta_parse("surd:2"),
                   SpectralParams(X=100.0, N=N, T=math.inf), table_2e4,
                   threads=threads)
        assert sorted(calls) == [[m] for m in range(1, N + 1)], threads


def test_one_thread_spectral_j_runs_inline(table_2e4, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-thread spectral_j opened a thread pool")

    monkeypatch.setattr(divisor, "ThreadPoolExecutor", no_pool)
    rep = spectral_j(theta_parse("surd:2"),
                     SpectralParams(X=400.0, N=89, T=30.0), table_2e4,
                     threads=1)
    assert rep.term_count_lower + rep.term_count_upper == 89 * 89


def _count_pools(monkeypatch):
    """Record the max_workers of each thread pool that divisor._ordered_map
    opens; returns the list."""
    opened = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(divisor, "ThreadPoolExecutor", CountingPool)
    return opened


def test_two_thread_spectral_j_runs_in_the_pool(table_2e4, monkeypatch):
    # 7 rows a block: 13 blocks for 2 workers
    monkeypatch.setattr(voronoi, "_BLOCK_ELEMS", 7 * 89)
    params = SpectralParams(X=400.0, N=89, T=30.0)
    want = spectral_j(theta_parse("surd:2"), params, table_2e4, threads=1)
    opened = _count_pools(monkeypatch)
    got = spectral_j(theta_parse("surd:2"), params, table_2e4, threads=2)
    assert opened == [2]
    assert got == want


def test_one_block_spectral_j_runs_inline(table_2e4, monkeypatch):
    # at N = 89 the default budget makes all rows one block, which runs
    # inline at any thread count
    params = SpectralParams(X=400.0, N=89, T=30.0)
    assert voronoi._BLOCK_ELEMS // params.N >= params.N
    want = spectral_j(theta_parse("surd:2"), params, table_2e4, threads=1)
    opened = _count_pools(monkeypatch)
    got = spectral_j(theta_parse("surd:2"), params, table_2e4, threads=2)
    assert opened == []
    assert got == want


@pytest.mark.parametrize("N", [8191, 8193, 16385, 44000])
def test_row_sums_of_a_block_equal_the_row_alone(N):
    # the numpy property spectral_j's blocks rest on: row i of a (B, N)
    # sum along axis 1, masked or not, is byte-equal to the sum of row i
    # alone, across numpy's 8192-element buffer
    rng = np.random.default_rng(N)
    ones = np.ones(N, dtype=bool)
    for B in range(1, 6):
        t = rng.standard_normal((B, N)) * 10.0 ** rng.uniform(-6, 6, (B, N))
        lo = rng.integers(0, N, B)
        width = rng.integers(0, N, B)
        width[0] = 0  # an empty band
        idx = np.arange(N)
        band = (idx >= lo[:, None]) & (idx < (lo + width)[:, None])
        for mask in (band, ~band, np.ones((B, N), dtype=bool)):
            got = np.sum(t, axis=1, where=mask)
            for i in range(B):
                assert got[i].tobytes() == np.sum(t[i], where=mask[i]).tobytes()
        got = np.sum(t, axis=1)
        for i in range(B):
            assert got[i].tobytes() == np.sum(t[i], where=ones).tobytes()
            assert got[i].tobytes() == np.sum(t[i]).tobytes()


def test_no_runtime_warning_from_kernel_or_pool(table_2e4):
    # the direct formula divides by zero and overflows below the switch
    # before the Taylor branch overwrites those entries; pool threads have
    # their own numpy error state, so the kernel must set it itself
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lambda_kernel(np.array([0.0, 5e-324, -1e-300, 1e-160, 1e-3, -7.5]))
        lambda_kernel(0.0)
        lambda_kernel(-1e-300)
        spectral_j(theta_parse("rat:1/1"),
                   SpectralParams(X=400.0, N=89, T=30.0), table_2e4,
                   threads=2)


def test_spectral_params_default_with_psi():
    from divcorr.realfield import psi_parse
    psi = psi_parse("pow:2")
    p = SpectralParams.default(10_000.0, theta_parse("surd:2"), psi)
    assert p.N == 1000
    expect_T = math.pi / 2**0.25 * math.sqrt(10_000.0 / 10.0**0.5)
    assert p.T == pytest.approx(expect_T, rel=1e-12)


def test_spectral_resource_cap(table_2e4):
    from divcorr.errors import ResourceLimit
    with pytest.raises(ResourceLimit) as ei:
        spectral_j(theta_parse("surd:2"),
                   SpectralParams(X=1e7, N=100_000, T=math.inf), table_2e4)
    assert ei.value.suggested_cap is not None
