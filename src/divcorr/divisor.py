"""Divisor function tau, its summatory function D, the error term Delta in

    D(x) = x log x + (2 gamma - 1) x + Delta(x),

and the mean square integral of Delta over [1, X].
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ResourceLimit
from .exactsum import exact_block_sum
from .realfield import gamma_const

#: 2*gamma - 1, the linear coefficient of the smooth main term.
TWO_GAMMA_MINUS_1 = float(2 * gamma_const(256) - 1)

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)

_SIEVE_LIMIT_CAP = 200_000_000
#: summatory_D works in int64.
_SUMMATORY_X_CAP = 2**63 - 1
#: Entries per int64 block of the hyperbola sum (8 MB).
_HYPERBOLA_BLOCK = 1 << 20
#: Pieces per Gauss block (see _gauss_blocks), the unit in which callers
#: hand pieces to gauss8_pieces: its node-major buffers then hold 8 x 4096
#: doubles (256 KB).
_GAUSS_BLOCK = 4096
#: Terms per block of tong_ratio_oracle's series (512 KB per float64 array).
_TONG_BLOCK = 1 << 16


@dataclass(frozen=True)
class DivisorTable:
    """Sieved divisor counts: counts[n] = tau(n) for 1 <= n <= limit.

    counts has length limit+1 with counts[0] = 0 so that it is indexable by n
    directly; the array is read-only and safe to share across threads.
    """

    limit: int
    counts: np.ndarray
    _cumulative: list = field(default_factory=list, repr=False, compare=False)

    def tau(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n={n} outside table range [1, {self.limit}]")
        return int(self.counts[n])

    def cumulative(self) -> np.ndarray:
        """D(n) for 0 <= n <= limit as uint32 (cached), summed in place in
        its one uint32 array: 7.6 MB traced at limit 2e6, where
        np.cumsum(counts, dtype=np.uint32) would also hold a cast of the
        counts.  D(_SIEVE_LIMIT_CAP) is about 3.85e9 < 2**32, so the sums
        never wrap; every consumer casts them to float64 or int."""
        if not self._cumulative:
            cd = self.counts.astype(np.uint32)
            np.cumsum(cd, out=cd)
            cd.flags.writeable = False
            self._cumulative.append(cd)
        return self._cumulative[0]


def sieve_tau(limit: int) -> DivisorTable:
    """Divisor-count sieve up to `limit`.

    Counts each divisor pair (k, n/k) with k <= n/k once: for every
    k <= isqrt(limit), 2 for each multiple n >= k^2 of k, less 1 at n = k^2
    where the pair is one divisor.  That is isqrt(limit) strided numpy
    updates touching about (limit/2) ln(limit) entries in all.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > _SIEVE_LIMIT_CAP:
        raise ResourceLimit(
            f"sieve limit {limit} exceeds cap {_SIEVE_LIMIT_CAP}",
            suggested_cap=_SIEVE_LIMIT_CAP)
    counts = np.zeros(limit + 1, dtype=np.int32)
    for k in range(1, math.isqrt(limit) + 1):
        counts[k * k::k] += 2
        counts[k * k] -= 1
    counts.flags.writeable = False
    return DivisorTable(limit=limit, counts=counts)


def summatory_D(x: int) -> int:
    """D(x) = sum_{n <= x} tau(n), exactly, via the hyperbola identity

        D(x) = 2 * sum_{k <= r} floor(x/k) - r^2,   r = isqrt(x).

    The sum runs over int64 numpy blocks k0 <= k < k0 + len, with
    len * (x // k0) <= 2^62 so that no block sum overflows (len >= 1), and
    len <= 2^20 (8 MB); the block sums add up as Python ints.  Below
    x = 2^42 every block but the last has 2^20 terms, so the O(sqrt x)
    divisions take about sqrt(x) / 2^20 numpy calls; above it the first
    blocks are shorter and grow with k0.  x >= 2^63 does not fit int64 and
    raises ResourceLimit.
    """
    x = int(x)
    if x < 0:
        raise ValueError("x must be non-negative")
    if x > _SUMMATORY_X_CAP:
        raise ResourceLimit(
            f"summatory_D: x={x} exceeds cap {_SUMMATORY_X_CAP}",
            suggested_cap=_SUMMATORY_X_CAP)
    r = math.isqrt(x)
    s = 0
    k0 = 1
    while k0 <= r:
        n = min(max(1, (1 << 62) // (x // k0)), _HYPERBOLA_BLOCK, r - k0 + 1)
        k = np.arange(k0, k0 + n, dtype=np.int64)
        s += int(np.floor_divide(x, k, out=k).sum())
        k0 += n
    return 2 * s - r * r


def _delta_at(d: np.ndarray, x: np.ndarray, out: np.ndarray,
              tmp: np.ndarray) -> np.ndarray:
    """Delta = (d - x log x) - C x into `out`, with C = TWO_GAMMA_MINUS_1, at
    the (8, m) node-major nodes x where D = d (one value per column) is
    constant; tmp is scratch of the same shape."""
    np.log(x, out=tmp)
    np.multiply(x, tmp, out=tmp)
    np.subtract(d, tmp, out=out)
    np.multiply(TWO_GAMMA_MINUS_1, x, out=tmp)
    return np.subtract(out, tmp, out=out)


#: Pieces per integration chunk of mean_square and the correlation sweep.
#: Each chunk is rounded to one sum and the chunk sums are reduced in index
#: order, so the chunk boundaries (global multiples of _CHUNK) fix the
#: output bits.
_CHUNK = 1 << 18


def _ordered_map(fn, items, threads: int) -> list:
    """[fn(*item) for item in items], run inline when threads <= 1 and else
    in a pool of `threads` workers with at most `threads` items in flight
    (the iterable is drawn lazily: at most one item beyond those in flight
    is built).  Results come back in item order."""
    if threads <= 1:
        return [fn(*item) for item in items]
    done, pending = [], deque()
    with ThreadPoolExecutor(max_workers=threads) as ex:
        for item in items:
            if len(pending) == threads:
                done.append(pending.popleft().result())
            pending.append(ex.submit(fn, *item))
        done.extend(f.result() for f in pending)
    return done


def _gauss_blocks(n: int) -> list[tuple[int, int]]:
    """Bounds (s, e) of the Gauss blocks of n pieces: _GAUSS_BLOCK pieces
    each, but the last takes the remainder too, so only a call with fewer
    than _GAUSS_BLOCK pieces has a block shorter than that.

    mean_square and the correlation sweep hand gauss8_pieces one block of
    each chunk at a time.  A BLAS gemv may round a row differently
    depending on where the row sits in the matrix (its offset from the
    kernel's unrolled groups, or a short tail): every block starts at a
    multiple of _GAUSS_BLOCK and only the last one ends with the chunk's
    tail, so each row is rounded as in a single gemv over the whole chunk,
    and the output bits do not depend on the block size.
    """
    k = n // _GAUSS_BLOCK or min(n, 1)
    return [(i * _GAUSS_BLOCK, n if i == k - 1 else (i + 1) * _GAUSS_BLOCK)
            for i in range(k)]


def gauss8_pieces(mid: np.ndarray, half: np.ndarray, d1: np.ndarray,
                  d2: np.ndarray | None = None,
                  theta: float = 1.0) -> np.ndarray:
    """8-point Gauss integral of Delta(x) Delta(theta x) over each piece
    [mid - half, mid + half] on which D(x) = d1 and D(theta x) = d2 are
    constant.  With d2 omitted the integrand is Delta(x)^2.

    The integrand fills node-major (8, n) buffers, the nodes down axis 0,
    reused through out= ufuncs, so that each ufunc runs 8 flat loops over
    the pieces rather than one 8-element loop per piece: x = mid + half *
    node, Delta at x and at theta * x (_delta_at), and their product,
    written through the transposed view of a C-contiguous (n, 8) buffer.
    The weighted sum over the nodes is one gemv, `prod @ _GAUSS_WEIGHTS`,
    which is then scaled by half.  Its scratch is up to five buffers of
    8 * n doubles, so callers pass one Gauss block (_gauss_blocks) at a time.
    """
    shape = (len(_GAUSS_NODES), len(mid))
    x, tmp, f1 = np.empty(shape), np.empty(shape), np.empty(shape)
    f2 = f1 if d2 is None else np.empty(shape)
    np.multiply(half, _GAUSS_NODES[:, None], out=x)
    np.add(mid, x, out=x)
    _delta_at(d1, x, f1, tmp)
    if d2 is not None:
        _delta_at(d2, np.multiply(theta, x, out=x), f2, tmp)
    prod = np.empty(shape[::-1])
    np.multiply(f1, f2, out=prod.T)
    result = prod @ _GAUSS_WEIGHTS
    result *= half
    return result


@dataclass(frozen=True)
class DeltaSample:
    """One evaluation of the error term: D(floor(x)) and the remainder."""

    x: float
    d_value: int
    delta: float


def delta(x: float) -> float:
    """Delta(x) = D(floor(x)) - x log x - (2 gamma - 1) x, for x >= 1.

    Right-continuous at integers (jump of size tau(n) at x = n).
    """
    return delta_sample(x).delta


def delta_sample(x: float) -> DeltaSample:
    """delta(x) together with the exact summatory value it came from."""
    if x < 1:
        raise ValueError("x must be >= 1")
    d = summatory_D(math.floor(x))
    return DeltaSample(x=float(x), d_value=d,
                       delta=d - x * math.log(x) - TWO_GAMMA_MINUS_1 * x)


def mean_square(X: float, table: DivisorTable | None = None) -> float:
    """Integral of Delta(x)^2 over [1, X], breakpoint-exact.

    The integrand is smooth between consecutive integers (D is constant
    there), so each unit piece is integrated by 8-point Gauss quadrature,
    which is far beyond 1e-9 accurate for this integrand class.
    """
    if X < 1:
        raise ValueError("X must be >= 1")
    n_hi = math.floor(X)
    if table is None or table.limit < n_hi:
        table = sieve_tau(n_hi)
    cd = table.cumulative()

    # pieces [n, min(n + 1, X)] for n = 1, ..., ceil(X) - 1, on which
    # D = D(n), one chunk of _CHUNK pieces at a time, each chunk built and
    # integrated one Gauss block at a time and rounded to one exact sum
    end = math.ceil(X)

    def pieces(lo, hi):
        for s, e in _gauss_blocks(hi - lo):
            left = np.arange(lo + s, lo + e, dtype=np.float64)
            right = np.minimum(left + 1, X)
            yield gauss8_pieces(0.5 * (left + right), 0.5 * (right - left),
                                cd[lo + s:lo + e].astype(np.float64))

    return math.fsum(
        exact_block_sum(partial(pieces, lo, min(lo + _CHUNK, end)))
        for lo in range(1, end, _CHUNK))


def tong_ratio_oracle(limit: int = 2_000_000,
                      table: DivisorTable | None = None) -> tuple[float, float, float]:
    """Independent series value for lim mean_square(X)/X^{3/2}:

        (1/(6 pi^2)) * sum_{n>=1} tau(n)^2 / n^{3/2}

    computed by partial sums plus an integral tail bracket based on
    sum_{n<=t} tau(n)^2 ~ t log(t)^3 / pi^2.  Returns (estimate, low, high).
    """
    if table is None or table.limit < limit:
        table = sieve_tau(limit)

    def terms():
        for s in range(1, limit + 1, _TONG_BLOCK):
            n = np.arange(s, min(s + _TONG_BLOCK, limit + 1),
                          dtype=np.float64)
            t2 = table.counts[s:s + len(n)].astype(np.float64) ** 2
            yield t2 / n**1.5

    partial = exact_block_sum(terms)

    # tail of integral_N^inf t^{-3/2} log^k t dt by the exact recurrence
    # I_k = 2 N^{-1/2} log^k N + 2k I_{k-1}
    L = math.log(limit)
    i0 = 2.0 / math.sqrt(limit)
    i1 = i0 * L + 2 * i0
    i2 = i0 * L**2 + 4 * i1
    i3 = i0 * L**3 + 6 * i2
    lead = (i3 + 3 * i2) / math.pi**2
    # bracket generously: lower-order terms of the tau^2 summatory are positive
    low = partial + 0.8 * lead
    high = partial + 2.5 * lead
    est = partial + 1.45 * lead
    scale = 1.0 / (6 * math.pi**2)
    return est * scale, low * scale, high * scale
