import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from divcorr.divisor import (TWO_GAMMA_MINUS_1, delta, gauss8_pieces,
                             mean_square, sieve_tau, summatory_D,
                             summatory_D_many, tong_ratio_oracle)
from divcorr.errors import ResourceLimit


def tau_brute(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def test_sieve_small_values():
    t = sieve_tau(12)
    assert list(t.counts[1:]) == [tau_brute(n) for n in range(1, 13)]
    assert t.counts[12] == 6  # divisors 1,2,3,4,6,12
    assert t.counts[6] == 4


def test_sieve_limit_one():
    t = sieve_tau(1)
    assert list(t.counts[1:]) == [1]


def test_sieve_rejects_zero():
    with pytest.raises(ValueError):
        sieve_tau(0)


def test_sieve_primes_and_brute(table_2e4):
    for p in (2, 3, 5, 7, 11, 97, 991, 7919):
        assert table_2e4.tau(p) == 2
    for n in range(1, 300):
        assert table_2e4.tau(n) == tau_brute(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 120), st.integers(2, 120))
def test_tau_multiplicative(a, b):
    if math.gcd(a, b) != 1:
        return
    t = sieve_tau(a * b)
    assert t.tau(a * b) == t.tau(a) * t.tau(b)


def harmonic_sieve(limit: int) -> np.ndarray:
    """The earlier sieve_tau: one slice update per k <= limit/2."""
    counts = np.zeros(limit + 1, dtype=np.int32)
    half = limit // 2
    for k in range(1, half + 1):
        counts[k::k] += 1
    counts[half + 1:] += 1
    counts[0] = 0
    return counts


# squares and their neighbours are where the pair sieve subtracts the
# doubled divisor k = n/k and where isqrt(limit) steps
_SIEVE_LIMITS = st.one_of(
    st.integers(1, 5000),
    st.builds(lambda k, d: min(max(k * k + d, 1), 5000),
              st.integers(1, 71), st.sampled_from([-1, 0, 1])))


@settings(max_examples=150, deadline=None)
@given(_SIEVE_LIMITS)
def test_pair_sieve_matches_harmonic_sieve(limit):
    t = sieve_tau(limit)
    assert t.counts.dtype == np.int32
    assert not t.counts.flags.writeable
    assert np.array_equal(t.counts, harmonic_sieve(limit))


def test_sieve_2e6_bytes_are_pinned(big_table):
    # recorded from the harmonic sieve
    assert hashlib.sha256(big_table.counts.tobytes()).hexdigest() == (
        "8f20759231a6072b7464c072fc5f6d05cba6740de4805c41272c4c81c36f273d")


def hyperbola_loop(x: int) -> int:
    """The earlier summatory_D: the hyperbola sum as a Python loop."""
    r = math.isqrt(x)
    s = 0
    for k in range(1, r + 1):
        s += x // k
    return 2 * s - r * r


@pytest.mark.parametrize("x", [
    *(k * k + d for k in (1, 2, 3, 10, 1023, 1024, 10**5) for d in (-1, 0, 1)),
    10**12, 2**46 - 1, 2**46])
def test_blocked_hyperbola_matches_loop(x):
    # at 2^46 the first block holds 2^62 // 2^46 = 2^16 terms, then 2^20
    assert summatory_D(x) == hyperbola_loop(x)


def test_blocked_hyperbola_around_2_53():
    # the loop oracle is too slow here; D(n) - D(n - 1) = tau(n) instead,
    # from factorizations into primes (checked by Miller-Rabin)
    def is_prime(n):
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
            if a % n == 0:
                continue
            y = pow(a, d, n)
            if y in (1, n - 1):
                continue
            for _ in range(s - 1):
                y = y * y % n
                if y == n - 1:
                    break
            else:
                return False
        return True

    factorizations = {
        2**53 - 1: {6361: 1, 69431: 1, 20394401: 1},
        2**53: {2: 53},
        2**53 + 1: {3: 1, 107: 1, 28059810762433: 1},
    }
    d = {n: summatory_D(n) for n in (2**53 - 2, *factorizations)}
    for n, f in factorizations.items():
        assert math.prod(p**e for p, e in f.items()) == n
        assert all(is_prime(p) for p in f)
        assert d[n] - d[n - 1] == math.prod(e + 1 for e in f.values())


def test_summatory_caps_raise_before_any_work(monkeypatch):
    def no_arange(*args, **kwargs):
        raise AssertionError("summatory_D started its blocks")

    monkeypatch.setattr(np, "arange", no_arange)
    with pytest.raises(ResourceLimit) as e:
        summatory_D(2**63)
    assert e.value.suggested_cap == 2**63 - 1
    monkeypatch.undo()

    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit) as e:
            summatory_D_many(np.array([0, 5, 2**44]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert e.value.suggested_cap == 2**44 - 1
    assert peak < 2**16  # a 2^22-wide int64 row would be 32 MB


def gauss8_one_shot(mid, half, d1, d2=None, theta=1.0):
    """The Gauss-8 kernel before it was blocked: every temporary (n, 8)."""
    nodes, weights = np.polynomial.legendre.leggauss(8)

    def delta_at(d, x):
        return d[:, None] - x * np.log(x) - TWO_GAMMA_MINUS_1 * x

    xs = mid[:, None] + half[:, None] * nodes[None, :]
    f1 = delta_at(d1, xs)
    if d2 is None:
        return half * ((f1 * f1) @ weights)
    tn = theta * xs
    f2 = delta_at(d2, tn)
    return half * ((f1 * f2) @ weights)


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 12293])
@pytest.mark.parametrize("with_d2", [False, True])
def test_blocked_gauss8_matches_one_shot(n, with_d2):
    # pieces as the sweep makes them: [left, right] in [1, 1e6], widths up
    # to 1 with some of 0, D at the left end
    rng = np.random.default_rng(n)
    left = rng.uniform(1.0, 1e6, n)
    width = rng.uniform(0.0, 1.0, n) * (rng.random(n) > 0.1)
    mid, half = 0.5 * (2 * left + width), 0.5 * width
    d1 = np.floor(left * np.log(left) + 0.15 * left)
    theta = 2**0.5
    d2 = np.floor(theta * d1) if with_d2 else None
    got = gauss8_pieces(mid, half, d1, d2, theta)
    want = gauss8_one_shot(mid, half, d1, d2, theta)
    assert got.shape == (n,)
    assert got.tobytes() == want.tobytes()


def test_summatory_examples():
    assert summatory_D(0) == 0
    assert summatory_D(10) == 27
    assert summatory_D(100) == 482


def test_summatory_matches_sieve(table_2e4):
    cd = table_2e4.cumulative()
    xs = np.arange(0, 20_001)
    dv = summatory_D_many(xs)
    assert np.array_equal(dv, cd[xs])
    # scalar spot checks against the vectorized path
    for x in (1, 2, 3, 999, 4096, 19999):
        assert summatory_D(x) == cd[x]


def test_delta_values():
    assert delta(1) == pytest.approx(2 - 2 * (TWO_GAMMA_MINUS_1 + 1) / 2 - 0, abs=1e-12)
    assert delta(1) == pytest.approx(1 - TWO_GAMMA_MINUS_1, abs=1e-12)
    assert delta(10) == pytest.approx(2.4298358, abs=1e-6)
    assert delta(100) == pytest.approx(6.0398484, abs=1e-6)


def test_delta_domain():
    with pytest.raises(ValueError):
        delta(0.5)


def test_delta_jump_is_tau(table_2e4):
    for n in (2, 3, 4, 10, 100, 9999, 10000):
        jump = delta(n) - delta(n - 1e-9)
        assert jump == pytest.approx(table_2e4.tau(n), abs=1e-6)


def test_delta_error_within_two_ulps_of_x_log_x():
    # Against D(floor x) plus the main term at 200 bits.  The double error
    # budget, in units u = ulp(max(x log x, x)): 1/2 for rounding x * log(x),
    # up to 2 ulp(x log x) per ulp of log(x) for x * (log's error), about
    # 1/8 for the (2 gamma - 1) x product and the first subtraction, and far
    # less for the rest.  Sampled maxima are 1.2-1.4 u: up to 1.6e-9
    # absolute for x <= 1e6, 2.7e-8 for x <= 1e7 and 3.0e-7 for x <= 1e8.
    import mpmath
    rng = np.random.default_rng(2024)
    xs = np.concatenate([10.0 ** rng.uniform(0, 8, 300),
                         rng.uniform(9e7, 1e8, 100),
                         np.floor(10.0 ** rng.uniform(0, 8, 100)), [1e8]])
    with mpmath.workprec(200):
        c = 2 * mpmath.euler - 1
        for x in map(float, xs):
            exact = summatory_D(math.floor(x)) - (
                mpmath.mpf(x) * mpmath.log(x) + c * x)
            u = math.ulp(max(x * math.log(x), x))
            assert abs(delta(x) - exact) <= 2 * u, x


def test_delta_changes_sign():
    vals = [delta(x) for x in np.linspace(1.5, 10_000, 4001)]
    assert min(vals) < 0 < max(vals)


def test_mean_square_trivial():
    assert mean_square(1.0) == 0.0


def test_mean_square_matches_adaptive_quad():
    # independent oracle: adaptive quadrature on [1, 2] where D = 1
    oracle, err = quad(lambda x: (1 - x * math.log(x) - TWO_GAMMA_MINUS_1 * x) ** 2,
                       1, 2, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-11
    assert mean_square(2.0) == pytest.approx(oracle, rel=1e-9)


def test_mean_square_non_integer_endpoint(table_2e4):
    # additivity across a non-integer endpoint
    a = mean_square(7.0, table_2e4)
    piece, _ = quad(lambda x: (summatory_D(7) - x * math.log(x)
                               - TWO_GAMMA_MINUS_1 * x) ** 2,
                    7, 7.5, epsabs=1e-13)
    assert mean_square(7.5, table_2e4) == pytest.approx(a + piece, rel=1e-9)


def test_mean_square_monotone(table_2e4):
    vals = [mean_square(X, table_2e4) for X in (10, 100, 1000, 10_000)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_tong_oracle_bracket():
    # frozen reference computed from much larger partial sums at build time
    ref = 0.6542839775
    est, low, high = tong_ratio_oracle(300_000)
    assert low < ref < high
    assert est == pytest.approx(ref, rel=0.02)


def test_delta_sample_invariant():
    from divcorr.divisor import delta_sample
    for x in (1.0, 7.25, 100.0, 1234.5):
        s = delta_sample(x)
        assert s.d_value == summatory_D(int(x))
        assert s.delta == pytest.approx(
            s.d_value - x * math.log(x) - TWO_GAMMA_MINUS_1 * x, abs=1e-12)
        assert s.delta == pytest.approx(
            __import__("divcorr.divisor", fromlist=["delta"]).delta(x), abs=0)
