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
from .divisor import (_CHUNK, DivisorTable, _ordered_map, gauss8_pieces,
                      sieve_tau)
from .errors import ResourceLimit
from .exactsum import exact_prefix_sums
from .realfield import PsiFunction, _fmt
from .voronoi import SpectralParams, SpectralReport, spectral_j

#: the sweep zeroes the integral of each piece no wider than this (the
#: slivers between near-coincident breakpoints n ~ m*theta, and the empty
#: pieces between equal ones), and drops breakpoint values above
#: Xmax + _MERGE_TOL
_MERGE_TOL = 1e-12

#: time budget of one sweep, in pieces: the sweep streams its pieces in
#: O(_CHUNK) memory, so this caps run time, not memory (the tau table up to
#: theta * X is the one array that grows with X)
_MAX_PIECES = 60_000_000

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
    X.  Breakpoints: 1.0, the integers (where Delta(x) jumps), n/theta
    (where Delta(theta x) jumps) and the requested prefix ends, up to
    Xmax + _MERGE_TOL.

    One closed-form count, below(v), of the breakpoints below v gives each
    grid X's global index, the number of pieces and each chunk of _CHUNK
    pieces from global index start: bisecting the integers finds a window
    [a, b) that holds the chunk's _CHUNK + 1 breakpoints, which are sliced
    from its sorted values at start - below(a) (equal values never
    straddle an integer, so the slice is the global sort's).  A piece's
    D(x) and D(theta x) indices follow from its global index too.  Each
    chunk is integrated by gauss8_pieces and reduced to exact_sum of its
    pieces and, for each grid X inside it, exact_sum of its pieces before
    X (exact_prefix_sums: the exact sums of the segments between grid
    points are added as integers, so no piece is read twice).  A correctly
    rounded sum is unique, so these are the floats math.fsum returns; then
    the chunk is dropped.  I(X) is the fsum of the earlier chunk sums plus
    that partial sum.  Memory is O(threads * _CHUNK) besides the table,
    and the output bits do not depend on `threads` (with more than one
    chunk, _ordered_map runs the chunks on `threads` workers).
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
        return (int(v > 1) + max(0, min(i_hi, math.ceil(v) - 1) - 1)
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
        vals = np.concatenate((
            [1.0] if a == 1 else [],
            np.arange(max(a, 2), min(b, i_hi + 1), dtype=np.float64),
            np.arange(_first_n_at_or_above(a, th, n_lo, n_hi),
                      _first_n_at_or_above(min(b, past), th, n_lo, n_hi),
                      dtype=np.float64) / th,
            xs_sorted[bisect.bisect_left(xs_sorted, a):
                      bisect.bisect_left(xs_sorted, b)]))
        vals.sort(kind="stable")  # timsort: merges the four sorted runs
        i = start - below(a)
        return vals[i:i + _CHUNK + 1]

    def integrate(start, vals):
        left, right = vals[:-1], vals[1:]
        width = right - left
        offs = [i - start for i in grid_at if start < i < start + _CHUNK]
        # D(x) index: min(floor(left), floor(Xmax)), which is 1 plus the
        # count of integer breakpoints 2..i_hi up to left (left >= 1)
        idx = left.astype(np.int64)
        np.minimum(idx, i_hi, out=idx)
        d1 = cd[idx].astype(np.float64)
        # D(theta x) index: on a live piece j the breakpoints up to left are
        # the first start + j + 1, namely 1.0, idx - 1 integers, the grid X
        # at or before global index start + j, and the n / th from
        # floor(th) + 1 on.  A dead piece's index may be -1, a valid read:
        # the piece is zeroed below.
        k = n_lo + start - sum(i <= start for i in grid_at)
        np.subtract(np.arange(k, k + len(left)), idx, out=idx)
        for off in offs:
            idx[off:] -= 1
        piece = gauss8_pieces(0.5 * (left + right), 0.5 * width, d1,
                              cd[idx].astype(np.float64), th)
        piece[~(width > _MERGE_TOL)] = 0.0
        sums = exact_prefix_sums(piece, offs + [len(piece)])
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
