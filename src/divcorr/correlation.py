"""Breakpoint-exact evaluation of the correlation integral

    I_theta(X) = integral_1^X Delta(x) Delta(theta x) dx,

grid sweeps, normalized ratios, log-log exponent fits, and the comparison
against the spectral sum.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

import numpy as np

from .diophantine import Theta, theta_parse
from .divisor import (_CHUNK, DivisorTable, _gauss_blocks, _ordered_map,
                      gauss8_pieces, gauss8_workspace, sieve_tau)
from .errors import ResourceLimit
from .exactsum import exact_prefix_sums
from .realfield import PsiFunction, _fmt
from .voronoi import (SpectralParams, SpectralReport,
                      check_spectral_budget, spectral_j)

#: the sweep zeroes the integral of each piece no wider than this (the
#: slivers between near-coincident breakpoints n ~ m*theta, and the empty
#: pieces between equal ones), and drops breakpoint values above
#: Xmax + _MERGE_TOL
_MERGE_TOL = 1e-12

#: time budget of one sweep, in pieces: the sweep streams its pieces in
#: O(_CHUNK) memory, so this caps run time, not memory (the tau table up to
#: theta * X is the one array that grows with X)
_MAX_PIECES = 60_000_000
#: most grid points of one correlate_grid (Python objects and a row each)
_MAX_POINTS = 100_000

#: samples with |I| below this multiple of X^{3/2} are dropped from fits
_FIT_FLOOR = 1e-9


@dataclass(frozen=True)
class CorrelationResult:
    theta: Theta
    X: float
    I: float
    method: str  # "exact" | "spectral"
    breakpoints_used: int

    @property
    def ratio(self) -> float:
        """I / X^{3/2}."""
        return self.I / self.X**1.5


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    rms_residual: float
    points_used: int
    sign_changes: int


def _as_theta(theta) -> Theta:
    return theta if isinstance(theta, Theta) else theta_parse(theta)


def _first_n_at_or_above(v: float, th: float, n_lo: int, n_hi: int) -> int:
    """Smallest n in [n_lo, n_hi] with float64(n) / th >= v, else n_hi + 1.
    float64(n) / th is non-decreasing in n, so a start near v * th walks
    only a step or two."""
    n = min(max(math.floor(v * th), n_lo), n_hi + 1)
    while n > n_lo and (n - 1) / th >= v:
        n -= 1
    while n <= n_hi and n / th < v:
        n += 1
    return n


def _sweep(theta: Theta, xs: list[float], table: DivisorTable | None,
           threads: int = 1) -> list[CorrelationResult]:
    """One streaming pass over [1, max(xs)] returning I at every requested
    X.  Breakpoints: the integers from 1 (where Delta(x) jumps), n/theta
    (where Delta(theta x) jumps) and the requested prefix ends, up to
    Xmax + _MERGE_TOL.

    One closed-form count, below(v), of the breakpoints below v gives each
    grid X's global index, the number of pieces and each chunk of _CHUNK
    pieces from global index start: bisecting the integers finds a window
    [a, b) that holds the chunk's _CHUNK + 1 breakpoints, which are sliced
    from its sorted values at start - below(a) (equal values never
    straddle an integer, so the slice is the global sort's).  A piece's
    D(x) and D(theta x) indices follow from its global index too.  Each
    chunk is integrated by gauss8_pieces one Gauss block at a time, with
    the bounds of _gauss_blocks (so each piece's bits are those of one call
    over the chunk), and each block's piece integrals stream straight into
    exact_prefix_sums, which reads each piece once and gives the chunk's
    sum and, for each grid X inside it, the sum of its pieces before X.  A
    correctly rounded sum is unique, so these are the floats math.fsum
    returns.  The grid X in a chunk and before a block are found by
    bisecting grid_at, so a dense grid costs O(log P) per block.  I(X) is
    the fsum of the earlier chunk sums plus that partial sum.  Memory is
    O(threads * _CHUNK) besides the table: a chunk in flight holds its
    breakpoint window, a float64 array of about _CHUNK, plus one Gauss
    block's arrays, the chunk's gauss8_workspace (four buffers of its
    longest block) and the exact sum's three buffers of 2^16 values
    (tracemalloc's peak for correlate_grid("surd:2", 1e4, 4e6, 4) on a
    prebuilt table and its cumulative D: 5.2 MiB at one thread, 12.7 MiB
    at two).  The output bits do not depend on `threads` (with more than
    one chunk, _ordered_map runs the chunks on `threads` workers).
    """
    th = float(theta)
    if th <= 0:
        raise ValueError("theta must be positive")
    xs_sorted = sorted(set(float(x) for x in xs))
    if xs_sorted[0] < 1:
        raise ValueError("X must be >= 1")
    Xmax = xs_sorted[-1]

    est_pieces = Xmax + th * Xmax
    if est_pieces > _MAX_PIECES:
        cap = int(_MAX_PIECES / (1 + th))
        raise ResourceLimit(
            f"~{est_pieces:.3g} integration pieces exceed the budget; "
            f"cap X at about {cap}", suggested_cap=cap)

    need = max(int(math.floor(Xmax)), int(math.floor(th * Xmax)) + 1, 2)
    if table is None or table.limit < need:
        table = sieve_tau(need)
    cd = table.cumulative()
    i_hi = math.floor(Xmax)
    n_lo, n_hi = math.floor(th) + 1, math.floor(th * Xmax)
    past = math.nextafter(Xmax + _MERGE_TOL, math.inf)

    def below(v):
        """How many breakpoints lie below v.  Uncapped: every v that decides
        a piece (a grid X, past, a window's start a) lies at or below past,
        and values caps each window's n / theta at past itself."""
        return (max(0, min(i_hi, math.ceil(v) - 1))
                + _first_n_at_or_above(v, th, n_lo, n_hi) - n_lo
                + bisect.bisect_left(xs_sorted, v))

    # global index of each grid X's first equal breakpoint
    grid_at = [below(x) for x in xs_sorted]
    n_pieces = below(past) - 1
    ints = range(1, math.ceil(past) + 1)

    def values(start):
        """The breakpoints at global indices start..start + _CHUNK, from
        the integer window [a, b) with below(a) <= start and b the least
        integer with below(b) > start + _CHUNK."""
        a = bisect.bisect_right(ints, start, key=below)
        b = bisect.bisect_right(ints, start + _CHUNK, key=below) + 1
        i1 = min(b, i_hi + 1)
        n0 = _first_n_at_or_above(a, th, n_lo, n_hi)
        n1 = _first_n_at_or_above(min(b, past), th, n_lo, n_hi)
        grid = xs_sorted[bisect.bisect_left(xs_sorted, a):
                         bisect.bisect_left(xs_sorted, b)]
        # the three sorted runs in one array: the integers, the n / theta
        # from j and the grid X from k
        j = i1 - a
        k = j + n1 - n0
        vals = np.empty(k + len(grid))
        vals[:j] = np.arange(a, i1, dtype=np.float64)
        np.divide(np.arange(n0, n1, dtype=np.float64), th, out=vals[j:k])
        vals[k:] = grid
        vals.sort(kind="stable")  # timsort: merges the three sorted runs
        i = start - below(a)
        return vals[i:i + _CHUNK + 1]

    def pieces(start, vals, offs):
        # the chunk's piece integrals one Gauss block at a time, with
        # _gauss_blocks' bounds, so each block's call runs the gemv on the
        # rows at the offsets that a call over the whole chunk would
        blocks = _gauss_blocks(len(vals) - 1)
        work = gauss8_workspace(blocks)
        for s, e in blocks:
            left, right = vals[s:e], vals[s + 1:e + 1]
            width = right - left
            # D(x) index: min(floor(left), floor(Xmax)), which is the count
            # of the integer breakpoints 1..i_hi up to left (left >= 1)
            idx = left.astype(np.int64)
            np.minimum(idx, i_hi, out=idx)
            d1 = cd[idx].astype(np.float64)
            # D(theta x) index: on a live piece j the breakpoints up to left
            # are the first start + j + 1, namely the integers 1..idx,
            # the grid X at or before global index start + j, and the
            # n / th from floor(th) + 1 on.  A dead piece's index may be -1,
            # a valid read: the piece is zeroed below.
            k = n_lo + start + s - bisect.bisect_right(grid_at, start + s)
            np.subtract(np.arange(k, k + e - s), idx, out=idx)
            for off in offs[bisect.bisect_right(offs, s):
                            bisect.bisect_left(offs, e)]:
                idx[off - s:] -= 1
            out = gauss8_pieces(0.5 * (left + right), 0.5 * width, d1,
                                cd[idx].astype(np.float64), th, work=work)
            out[~(width > _MERGE_TOL)] = 0.0
            yield out

    def integrate(start, vals):
        offs = [i - start for i in grid_at[
            bisect.bisect_right(grid_at, start):
            bisect.bisect_left(grid_at, start + _CHUNK)]]
        sums = exact_prefix_sums(lambda: pieces(start, vals, offs),
                                 offs + [len(vals) - 1])
        return sums[-1], {start + off: p for off, p in zip(offs, sums)}

    # the values are built as the pool draws each chunk, so chunk c + 1's
    # window is allocated while chunk c's is alive (built inside integrate,
    # glibc trims and regrows the heap under gauss8_pieces' buffers on
    # every chunk); a single chunk runs inline, so its temporaries stay in
    # the main thread's malloc arena
    starts = range(0, n_pieces, _CHUNK)
    done = _ordered_map(integrate, ((s, values(s)) for s in starts),
                        threads if len(starts) > 1 else 1)
    chunk_totals = [total for total, _ in done]
    # grid index -> fsum of its chunk's pieces before it
    partial = {i: p for _, parts in done for i, p in parts.items()}

    results = []
    for x, i in zip(xs_sorted, grid_at):
        ci, off = divmod(i, _CHUNK)
        total = math.fsum(chunk_totals[:ci])
        if off:
            total += partial[i]
        results.append(CorrelationResult(theta=theta, X=x, I=total,
                                         method="exact", breakpoints_used=i))
    return results


def correlate_exact(theta, X: float, table: DivisorTable | None = None,
                    threads: int = 1) -> CorrelationResult:
    """I_theta(X) over [1, X], split at every jump of either factor and
    integrated by 8-point Gauss quadrature per smooth piece."""
    return _sweep(_as_theta(theta), [X], table, threads)[0]


def correlate_grid(theta, xmin: float, xmax: float, points: int,
                   table: DivisorTable | None = None,
                   threads: int = 1) -> list[CorrelationResult]:
    """I_theta at `points` geometrically spaced X in [xmin, xmax]; one
    incremental sweep serves the whole grid, and output is deterministic for
    any thread count."""
    theta = _as_theta(theta)
    if not (1 <= xmin < xmax):
        raise ValueError("need 1 <= xmin < xmax")
    if points < 2:
        raise ValueError("points must be >= 2")
    if points > _MAX_POINTS:
        raise ResourceLimit(f"{points} grid points exceed the budget; cap "
                            f"them at {_MAX_POINTS}",
                            suggested_cap=_MAX_POINTS)
    xs = np.geomspace(xmin, xmax, points).tolist()
    return _sweep(theta, xs, table, threads)


def normalized_ratio(result: CorrelationResult,
                     psi: PsiFunction | None = None):
    """I / X^{3/2}; with a psi supplied, also the decorrelation-normalized
    value I * psi^{-1}(X^{1/4})^{3/2} / X^{3/2}."""
    r = result.ratio
    if psi is None:
        return r
    return r, r * psi.inverse(result.X ** 0.25) ** 1.5


def fit_exponent(results: list[CorrelationResult]) -> ExponentFit:
    """Least-squares slope of log|I| against log X.

    Samples with |I| <= 1e-9 X^{3/2} are dropped; the sign_changes field
    counts the dropped samples plus sign flips between consecutive kept
    samples (oscillating I makes the fit phase-sensitive).
    """
    res = sorted(results, key=lambda r: r.X)
    kept = [r for r in res if abs(r.I) > _FIT_FLOOR * r.X**1.5]
    dropped = len(res) - len(kept)
    if len(kept) < 3:
        raise ValueError(f"need >= 3 usable points, have {len(kept)}")
    lx = np.log([r.X for r in kept])
    ly = np.log([abs(r.I) for r in kept])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    flips = sum(1 for a, b in zip(kept, kept[1:])
                if math.copysign(1, a.I) != math.copysign(1, b.I))
    return ExponentFit(slope=float(slope), intercept=float(intercept),
                       rms_residual=float(np.sqrt(np.mean(resid**2))),
                       points_used=len(kept), sign_changes=dropped + flips)


@dataclass(frozen=True)
class SpectralComparison:
    theta: Theta
    X: float
    I_exact: float
    report: SpectralReport
    discrepancy: float
    ratio_x118: float  # |I - J| / X^{11/8}


def compare_spectral(theta, X: float, psi: PsiFunction | None = None,
                     table: DivisorTable | None = None,
                     threads: int = 1, N: int | None = None,
                     T: float | None = None) -> SpectralComparison:
    """Exact I_theta(X) against the spectral sum with the default
    parameterization (N = X^{3/4}; T from psi when given, else no cutoff).
    N and T may be overridden."""
    theta = _as_theta(theta)
    params = SpectralParams.default(X, theta, psi)
    if N is not None or T is not None:
        params = SpectralParams(X=X, N=N if N is not None else params.N,
                                T=T if T is not None else params.T)
    check_spectral_budget(params.N)  # before the sieve and the sweep
    need = max(params.N, int(math.floor(float(theta) * X)) + 1,
               int(math.floor(X)))
    if table is None or table.limit < need:
        table = sieve_tau(need)
    exact = correlate_exact(theta, X, table, threads)
    rep = spectral_j(theta, params, table, threads)
    disc = abs(exact.I - rep.J_total)
    return SpectralComparison(theta=theta, X=X, I_exact=exact.I, report=rep,
                              discrepancy=disc,
                              ratio_x118=disc / X**1.375)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


CSV_HEADER = "theta_spec,X,I,I_over_X32,method,breakpoints_used"


def result_csv_row(r: CorrelationResult, psi: PsiFunction | None = None) -> str:
    cols = [r.theta.spec, _fmt(r.X), _fmt(r.I), _fmt(r.ratio), r.method,
            str(r.breakpoints_used)]
    if psi is not None:
        cols.append(_fmt(normalized_ratio(r, psi)[1]))
    return ",".join(cols)


def _json_num(x):
    """JSON-safe number: values >= 1e15 go out as strings so consumers do
    not silently lose precision."""
    if isinstance(x, int) and abs(x) >= 10**15:
        return str(x)
    if isinstance(x, float) and abs(x) >= 1e15:
        return _fmt(x)
    return x


def results_json(results: list[CorrelationResult],
                 fit: ExponentFit | None = None,
                 psi: PsiFunction | None = None) -> str:
    rows = []
    for r in results:
        row = {"theta_spec": r.theta.spec, "X": _json_num(r.X),
               "I": _json_num(r.I), "I_over_X32": r.ratio,
               "method": r.method, "breakpoints_used": r.breakpoints_used}
        if psi is not None:
            row["psi_normalized"] = normalized_ratio(r, psi)[1]
        rows.append(row)
    doc = {"results": rows}
    if fit is not None:
        doc["fit"] = {"slope": fit.slope, "intercept": fit.intercept,
                      "rms_residual": fit.rms_residual,
                      "points_used": fit.points_used,
                      "sign_changes": fit.sign_changes}
    return json.dumps(doc, indent=2, sort_keys=True)
