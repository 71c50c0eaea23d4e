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

#: sieve_tau counts in uint16: tau(n) <= 2 sqrt(n) < 2^16 below the cap.
_SIEVE_LIMIT_CAP = 200_000_000
#: Past n = _SIEVE_K^2 the divisor pairs (k, n/k) with k <= _SIEVE_K count
#: the same at n and n + lcm(1, ..., _SIEVE_K) = n + 27720.
_SIEVE_K = 12
#: summatory_D works in int64.
_SUMMATORY_X_CAP = 2**63 - 1
#: Below this x, float64 division gives floor(x/k) exactly, and integers up
#: to it add exactly in float64.
_FLOAT_EXACT = 2**53
#: Entries per block of the hyperbola sum (8 MB).
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


def _add_pairs(counts: np.ndarray, ks) -> None:
    """Count the divisor pairs (k, n/k) with k <= n/k for each k in ks:
    2 at every multiple n >= k^2 of k, less 1 at n = k^2."""
    for k in ks:
        counts[k * k::k] += 2
        counts[k * k] -= 1


def sieve_tau(limit: int) -> DivisorTable:
    """Divisor-count sieve up to `limit`.

    Counts each divisor pair (k, n/k) with k <= n/k once (_add_pairs), in
    uint16: no count passes 2 isqrt(_SIEVE_LIMIT_CAP) + 1 < 2^16.  For
    n > 144 the pairs with k <= _SIEVE_K = 12 add 2 for each such k | n, a
    pattern of period lcm(1..12) = 27720 that one np.resize lays down; the
    entries n <= 144 are then counted exactly, and isqrt(limit) - 12
    strided updates add the pairs with k >= 13, touching about
    limit (ln(limit)/2 - 3) entries in all.  One cast makes the int32
    table.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > _SIEVE_LIMIT_CAP:
        raise ResourceLimit(
            f"sieve limit {limit} exceeds cap {_SIEVE_LIMIT_CAP}",
            suggested_cap=_SIEVE_LIMIT_CAP)
    period = np.zeros(math.lcm(*range(1, _SIEVE_K + 1)), dtype=np.uint16)
    for k in range(1, _SIEVE_K + 1):
        period[::k] += 2
    counts = np.resize(period, limit + 1)
    head = counts[:_SIEVE_K**2 + 1]
    head[:] = 0
    _add_pairs(head, range(1, math.isqrt(len(head) - 1) + 1))
    _add_pairs(counts, range(_SIEVE_K + 1, math.isqrt(limit) + 1))
    counts = counts.astype(np.int32)
    counts.flags.writeable = False
    return DivisorTable(limit=limit, counts=counts)


def summatory_D(x: int) -> int:
    """D(x) = sum_{n <= x} tau(n), exactly, via the hyperbola identity

        D(x) = 2 * sum_{k <= r} floor(x/k) - r^2,   r = isqrt(x).

    The sum runs over numpy blocks k0 <= k < k0 + len of at most 2^20
    terms (8 MB), whose sums add up as Python ints.  Below x = 2^53 the
    blocks are float64: floor(x/k) is the floor of the correctly rounded
    x/k, because a k that does not divide x leaves x/k at least 1/k from
    an integer, more than half an ulp of x/k < 2^53 / k; and with
    len * (x // k0) <= 2^53 every partial sum of a block is an integer
    that float64 holds exactly.  From 2^53 on they are int64, with
    len * (x // k0) <= 2^62 so that no block sum overflows.  Either way
    the first blocks are shorter for large x and grow with k0 (len >= 1).
    x >= 2^63 does not fit int64 and raises ResourceLimit.
    """
    x = int(x)
    if x < 0:
        raise ValueError("x must be non-negative")
    if x > _SUMMATORY_X_CAP:
        raise ResourceLimit(
            f"summatory_D: x={x} exceeds cap {_SUMMATORY_X_CAP}",
            suggested_cap=_SUMMATORY_X_CAP)
    in_float = x < _FLOAT_EXACT
    bound = _FLOAT_EXACT if in_float else 1 << 62
    r = math.isqrt(x)
    s = 0
    k0 = 1
    while k0 <= r:
        n = min(max(1, bound // (x // k0)), _HYPERBOLA_BLOCK, r - k0 + 1)
        if in_float:
            k = np.arange(k0, k0 + n, dtype=np.float64)
            np.floor(np.divide(float(x), k, out=k), out=k)
        else:
            k = np.arange(k0, k0 + n, dtype=np.int64)
            np.floor_divide(x, k, out=k)
        s += int(k.sum())
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


def gauss8_workspace(blocks: list[tuple[int, int]]) -> list[np.ndarray]:
    """gauss8_pieces' four buffers, sized for the longest of `blocks`."""
    w = max(e - s for s, e in blocks)
    return [np.empty(len(_GAUSS_NODES) * w) for _ in range(4)]


def gauss8_pieces(mid: np.ndarray, half: np.ndarray, d1: np.ndarray,
                  d2: np.ndarray | None = None,
                  theta: float = 1.0, work=None) -> np.ndarray:
    """8-point Gauss integral of Delta(x) Delta(theta x) over each piece
    [mid - half, mid + half] on which D(x) = d1 and D(theta x) = d2 are
    constant.  With d2 omitted the integrand is Delta(x)^2.

    The integrand fills node-major (8, n) buffers, the nodes down axis 0,
    reused through out= ufuncs, so that each ufunc runs 8 flat loops over
    the pieces rather than one 8-element loop per piece: x = mid + half *
    node, Delta at x and at theta * x (_delta_at), and their product,
    written contiguously and then copied once, transposed, into x's freed
    buffer viewed as a C-contiguous (n, 8) matrix.  The weighted sum over
    the nodes is one gemv, `prod @ _GAUSS_WEIGHTS`, which is then scaled by
    half.  Its scratch is four buffers of 8 * n doubles, so callers pass
    one Gauss block (_gauss_blocks) at a time.

    work is an optional list of four flat float64 arrays of at least 8 * n
    entries (gauss8_workspace) that hold those buffers; the fourth is read
    only with d2.  A caller passes one per chunk, so that its blocks
    allocate no large arrays; the output bits do not depend on it.
    """
    n = len(mid)
    if work is None:
        work = gauss8_workspace([(0, n)])
    x, tmp, f1, f2 = (w[:8 * n].reshape(8, n) for w in work)
    np.multiply(half, _GAUSS_NODES[:, None], out=x)
    np.add(mid, x, out=x)
    _delta_at(d1, x, f1, tmp)
    if d2 is None:
        f2 = f1
    else:
        _delta_at(d2, np.multiply(theta, x, out=x), f2, tmp)
    np.multiply(f1, f2, out=tmp)
    prod = work[0][:8 * n].reshape(n, 8)
    prod[...] = tmp.T
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
        blocks = _gauss_blocks(hi - lo)
        work = gauss8_workspace(blocks)
        for s, e in blocks:
            left = np.arange(lo + s, lo + e, dtype=np.float64)
            right = np.minimum(left + 1, X)
            yield gauss8_pieces(0.5 * (left + right), 0.5 * (right - left),
                                cd[lo + s:lo + e].astype(np.float64),
                                work=work)

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
        # tau(n)^2 / n^1.5 in two reused buffers
        step = np.arange(min(limit, _TONG_BLOCK), dtype=np.float64)
        n, t = np.empty_like(step), np.empty_like(step)
        for s in range(1, limit + 1, _TONG_BLOCK):
            k = min(_TONG_BLOCK, limit + 1 - s)
            np.power(np.add(step[:k], s, out=n[:k]), 1.5, out=n[:k])
            np.square(table.counts[s:s + k], out=t[:k], dtype=np.float64)
            yield np.divide(t[:k], n[:k], out=t[:k])

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
