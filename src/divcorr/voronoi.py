"""Truncated Voronoi series Q_N, the oscillatory kernel Lambda, closed-form
oscillatory integrals, and the spectral double sum J with its diagonal split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divisor import DivisorTable, _ordered_map
from .errors import ResourceLimit
from .exactsum import exact_sum

#: below this |x| the kernel switches to its Taylor polynomial; the direct
#: formula loses all significant digits as x -> 0
_LAMBDA_SWITCH = 1e-3

_SQRT2_PI = math.sqrt(2.0) * math.pi
_4PI = 4.0 * math.pi

#: spectral_j evaluates B = max(1, _BLOCK_ELEMS // N) consecutive rows per
#: numpy call: 4 rows at N = 5623 (X = 1e5), where a worker's six (B, N)
#: buffers take 1.1 MB; 6 to 12 rows outgrew a 2 MB L2 and ran 9-13% slower
#: on one thread
_BLOCK_ELEMS = 24_000

#: rows shorter than _BLOCK_MIN_N run one per block.  Such a J takes a few
#: milliseconds either way (3.5 ms row by row at N = 40, 0.5 ms in one
#: block), and the benchmark's span test pins one lambda_kernel call per row
#: at N = 40 (bench/test_bench.py, which changes only with the benchmark)
_BLOCK_MIN_N = 64


def _lambda_direct(x):
    """sin x/x + 2 cos x/x^2 - 2 sin x/x^3 in this operation order, with the
    cube from np.power: the values that lambda_kernel returns for
    |x| >= _LAMBDA_SWITCH.  Its caller sets the numpy error state."""
    s, c = np.sin(x), np.cos(x)
    return s / x + 2.0 * c / (x * x) - 2.0 * s / np.power(x, 3)


def lambda_kernel(x, work=None):
    """Continuous bounded kernel: 1/3 at 0, else
    sin(x)/x + 2 cos(x)/x^2 - 2 sin(x)/x^3.

    Near zero a degree-4 Taylor polynomial (1/3 - x^2/10 + x^4/168) replaces
    the catastrophically cancelling direct form.  Accepts scalars or arrays.

    The direct form runs on the whole array, in place, with the cube as
    (x*x)*x.  A per-element rounding test certifies that the result equals
    _lambda_direct's, whose cube comes from np.power (slow for negative
    bases); the entries it cannot certify, and those with
    |x| < _LAMBDA_SWITCH, are gathered and recomputed by _lambda_direct and
    the Taylor polynomial.

    work, for a float64 array x, is an optional float64 array of shape
    (4,) + x.shape that holds the kernel's four temporaries; the result is
    then work[0].  spectral_j's workers pass one per block of rows, so that
    repeated calls allocate no large arrays.
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if work is None:
        work = [np.empty_like(arr) for _ in range(4)]
    out, s, c, p = work
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.sin(arr, out=s)
        np.divide(s, arr, out=out)
        np.cos(arr, out=c)
        c *= 2.0
        np.multiply(arr, arr, out=p)
        c /= p
        out += c
        p *= arr
        s *= 2.0
        s /= p
        # Ziv's rounding test.  Here s' = 2 sin x/((x*x)*x); call
        # s = 2 sin x/np.power(x, 3) the term that _lambda_direct subtracts.
        # With u = 2^-53, |s - s'| <= (eps_pow + 4u)|s| plus a subnormal
        # term, which is below d/2 for d = |s'| 2^-44 + 2^-1000 while
        # np.power is within about 60 ulps of the cube (measured: within
        # 1 ulp of (x*x)*x).  So s and s' lie in [s' - d, s' + d], and
        # rounding is monotone: fl(out - s) and fl(out - s') both lie
        # between r1 = fl(out - fl(s' + d)) and r2 = fl(out - fl(s' - d)).
        # Where r1 == r2, r2 is fl(out - s), the value _lambda_direct
        # gives; where they differ (nan and inf included), it is recomputed.
        np.abs(s, out=c)
        c *= 2.0 ** -44
        c += 2.0 ** -1000
        np.add(s, c, out=p)
        s -= c
        np.subtract(out, p, out=p)  # r1
        out -= s                    # r2
        redo = np.not_equal(out, p)
        redo |= np.abs(arr, out=p) < _LAMBDA_SWITCH
        # the same indices as np.nonzero(redo), in the same order; on a
        # 2-D mask np.nonzero is several times slower
        i = np.unravel_index(np.flatnonzero(redo), redo.shape)
        if i[0].size:
            xs = arr[i]
            ys = _lambda_direct(xs)
            small = np.abs(xs) < _LAMBDA_SWITCH
            if small.any():
                xs = xs[small]
                ys[small] = (1.0 / 3.0) - xs * xs / 10.0 + xs**4 / 168.0
            out[i] = ys
    return float(out[0]) if scalar else out


def _osc_series(a: float, s: float, kind: str) -> float:
    """Termwise-integrated Taylor series; accurate for a*s <~ 1 where the
    antiderivative difference cancels catastrophically (terms ~ 1/a^3).

    With k = 0 for cos and k = 1 for sin, term j integrates
    (-1)^j a^{2j+k} x^{2j+k+2} / (2j+k)! over [1, s]."""
    k = 0 if kind == "cos" else 1
    acc = 0.0
    sign = 1.0
    apow, fact = a ** k, 1.0  # a^{2j+k}, (2j+k)!
    for j in range(48):
        e = 2 * j + k + 3
        term = sign * apow * (s ** e - 1.0) / (fact * e)
        acc += term
        if abs(term) < 1e-18 * abs(acc):
            break
        sign = -sign
        apow *= a * a
        fact *= (e - 2) * (e - 1)
    return acc


def osc_integral(a: float, X: float, kind: str = "cos") -> float:
    """integral_1^sqrt(X) x^2 trig(a x) dx via the closed-form antiderivative

        int x^2 trig(ax) dx = x^2 p/a + 2x q/a^2 - 2 p/a^3,

    with (p, q) = (sin(ax), cos(ax)) for cos and (-cos(ax), sin(ax)) for
    sin.  For small phase a*sqrt(X) the difference of antiderivatives loses
    all digits, so a termwise-integrated series is used there.  Requires
    a > 0.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if X < 1:
        raise ValueError("X must be >= 1")
    if kind not in ("cos", "sin"):
        raise ValueError("kind must be 'cos' or 'sin'")
    up = math.sqrt(X)
    if a * up <= 1.0:
        return _osc_series(a, up, kind)

    def F(t):
        s, c = math.sin(a * t), math.cos(a * t)
        p, q = (s, c) if kind == "cos" else (-c, s)
        return t * t * p / a + 2.0 * t * q / a**2 - 2.0 * p / a**3
    return F(up) - F(1.0)


def q_n(x: float, n_terms: int, table: DivisorTable) -> float:
    """Truncated Voronoi approximation to Delta(x):

        (x^{1/4} / (sqrt(2) pi)) * sum_{n <= N} tau(n) n^{-3/4}
                                     cos(4 pi sqrt(n x) - pi/4)

    with the sum correctly rounded (exact_sum).  N = 0 gives the empty sum.
    The rounded phases dominate the error: it is at most
    S * 3 * 2^-52 * 4 pi sqrt(N x), where S is the expression above with
    every cos replaced by 1.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if n_terms == 0:
        return 0.0
    if n_terms < 0 or n_terms > table.limit:
        raise ValueError(f"need 0 <= N <= table limit {table.limit}")
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    terms = (table.counts[1:n_terms + 1] / n**0.75 *
             np.cos(_4PI * np.sqrt(n * x) - math.pi / 4.0))
    return x**0.25 / _SQRT2_PI * exact_sum(terms)


def a_mn(theta, m: int, n: int) -> float:
    """Spectral frequency 4 pi (sqrt(m theta) - sqrt(n)); theta is a Theta
    or a number, taken as float(theta)."""
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    return _4PI * (math.sqrt(m * float(theta)) - math.sqrt(n))


@dataclass(frozen=True)
class SpectralParams:
    """Parameters of the spectral sum: the truncation N and the diagonal
    cutoff T (terms with |a_mn sqrt(X)| <= T count as lower diagonal)."""

    X: float
    N: int
    T: float

    @classmethod
    def default(cls, X: float, theta=None, psi=None) -> "SpectralParams":
        """N = X^{3/4}; T = (pi/sqrt(theta)) sqrt(X / psi^{-1}(X^{1/4}))
        when a psi is supplied, else T = inf (cutoff disabled)."""
        N = int(math.floor(X ** 0.75))
        if psi is None:
            T = math.inf
        else:
            T = (math.pi / math.sqrt(float(theta))
                 * math.sqrt(X / psi.inverse(X ** 0.25)))
        return cls(X=X, N=N, T=T)


@dataclass(frozen=True)
class SpectralReport:
    J_total: float
    D_lower: float
    D_upper: float
    term_count_lower: int
    term_count_upper: int
    params: SpectralParams


def spectral_j(theta, params: SpectralParams, table: DivisorTable,
               threads: int = 1) -> SpectralReport:
    """The spectral double sum

        J = (X^{3/2} / (2 pi^2)) sum_{m,n <= N} tau(m) tau(n) (mn)^{-3/4}
                                   Lambda(a_mn sqrt(X)),

    partitioned at the cutoff |a_mn sqrt(X)| <= T.

    The rows m run in blocks of B = max(1, _BLOCK_ELEMS // N) consecutive
    rows (B = 1 for N < _BLOCK_MIN_N), so that each numpy call works on a
    (B, N) array: a row alone is too short for a thread to keep the GIL
    released long enough to gain from a second one.  With threads > 1,
    worker i of k = min(threads, number of blocks) takes the blocks
    i, i + k, ...; one block runs inline.  Each
    element goes through the same ufuncs whatever the block, and each row's
    sum is numpy's sum over that row's own N elements (axis=1); the row sums
    are added with math.fsum, which is exact, so the result does not depend
    on threads or on B.
    """
    X, N, T = params.X, params.N, params.T
    if N < 0:
        raise ValueError("N must be >= 0")
    if N * N > 2_000_000_000:
        cap = 44_000
        raise ResourceLimit(
            f"{N}x{N} spectral terms exceed the budget; cap N at about {cap} "
            f"(X at about {int(cap ** (4 / 3))})", suggested_cap=cap)
    if table.limit < N:
        raise ValueError(f"table limit {table.limit} < N = {N}")
    if N == 0:
        return SpectralReport(0.0, 0.0, 0.0, 0, 0, params)

    th = float(theta)
    n = np.arange(1, N + 1, dtype=np.float64)
    coef = table.counts[1:N + 1] / n**0.75
    sqrt_n = np.sqrt(n)
    sX = math.sqrt(X)

    B = max(1, _BLOCK_ELEMS // N) if N >= _BLOCK_MIN_N else 1
    blocks = -(-N // B)
    step = min(threads, blocks) if threads > 1 else 1

    def blocks_from(first):
        # blocks first, first + step, ...; u, the coefficient products and
        # the kernel's four temporaries (the first then takes |u|) live in
        # six (B, N) buffers reused from block to block
        buf = np.empty((6, B, N))
        sums = []
        for b0 in range(1 + first * B, N + 1, step * B):
            ms = range(b0, min(b0 + B, N + 1))
            u, t, work = buf[0, :len(ms)], buf[1, :len(ms)], buf[2:, :len(ms)]
            sm = np.array([math.sqrt(m * th) for m in ms])
            np.subtract(sm[:, None], sqrt_n, out=u)
            u *= _4PI
            u *= sX
            np.multiply(coef[b0 - 1:ms.stop - 1, None], coef, out=t)
            t *= lambda_kernel(u, work)
            if T == math.inf:  # u is finite: every term is lower diagonal
                sums.extend((lo, 0.0, N) for lo in np.sum(t, axis=1).tolist())
                continue
            mask = np.abs(u, out=work[0]) <= T
            k = np.count_nonzero(mask, axis=1).tolist()
            lo = np.sum(t, axis=1, where=mask).tolist()
            hi = np.sum(t, axis=1, where=~mask).tolist()
            sums.extend(zip(lo, hi, k))
        return sums

    # one task per worker; fsum is exact, so the order of the rows does not
    # matter
    parts = _ordered_map(blocks_from, [(i,) for i in range(step)], step)
    rows = [r for part in parts for r in part]

    pref = X**1.5 / (2.0 * math.pi**2)
    d_lower = pref * math.fsum(r[0] for r in rows)
    d_upper = pref * math.fsum(r[1] for r in rows)
    count_lower = sum(r[2] for r in rows)
    return SpectralReport(J_total=d_lower + d_upper,
                          D_lower=d_lower, D_upper=d_upper,
                          term_count_lower=count_lower,
                          term_count_upper=N * N - count_lower,
                          params=params)
