import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

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


def test_spectral_threads_deterministic(table_2e4):
    theta = theta_parse("golden")
    params = SpectralParams.default(400.0)
    a = spectral_j(theta, params, table_2e4, threads=1)
    b = spectral_j(theta, params, table_2e4, threads=4)
    assert a.J_total == b.J_total
    assert a.D_lower == b.D_lower


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
