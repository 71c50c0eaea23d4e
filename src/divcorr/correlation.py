"""Breakpoint-exact evaluation of the correlation integral

    I_theta(X) = integral_1^X Delta(x) Delta(theta x) dx,

grid sweeps, normalized ratios, log-log exponent fits, and the comparison
against the spectral sum.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .diophantine import Theta, theta_parse
from .divisor import DivisorTable, gauss8_pieces, sieve_tau
from .errors import ResourceLimit
from .realfield import PsiFunction, _fmt
from .voronoi import SpectralParams, SpectralReport, spectral_j

#: pieces narrower than this merge with their neighbour (near-coincident
#: breakpoints n ~ m*theta would otherwise create degenerate slivers)
_MERGE_TOL = 1e-12

_MAX_PIECES = 60_000_000

_CHUNK = 1 << 18

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


def _sweep(theta: Theta, xs: list[float], table: DivisorTable | None,
           threads: int = 1) -> list[CorrelationResult]:
    """One incremental pass over [1, max(xs)] returning I at every requested
    X.  Breakpoints: integers (where Delta(x) jumps), n/theta (where
    Delta(theta x) jumps), and the requested prefix ends."""
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

    ints = np.arange(2.0, math.floor(Xmax) + 1.0)
    n_lo = int(math.floor(th)) + 1
    n_hi = int(math.floor(th * Xmax))
    tbps = np.arange(n_lo, n_hi + 1, dtype=np.float64) / th
    grid = np.asarray(xs_sorted, dtype=np.float64)

    vals = np.concatenate(([1.0], ints, tbps, grid))
    kinds = np.concatenate((
        np.full(1, 2, dtype=np.int8),
        np.zeros(len(ints), dtype=np.int8),
        np.ones(len(tbps), dtype=np.int8),
        np.full(len(grid), 2, dtype=np.int8),
    ))
    order = np.argsort(vals, kind="stable")
    vals, kinds = vals[order], kinds[order]
    keep = vals <= Xmax + _MERGE_TOL
    vals, kinds = vals[keep], kinds[keep]

    # counters *after* each breakpoint, exact by construction
    d1_idx = 1 + np.cumsum(kinds == 0)
    d2_idx = int(math.floor(th)) + np.cumsum(kinds == 1)

    left, right = vals[:-1], vals[1:]
    width = right - left
    live = width > _MERGE_TOL
    d1 = cd[d1_idx[:-1]].astype(np.float64)
    d2 = cd[d2_idx[:-1]].astype(np.float64)
    mid = 0.5 * (left + right)
    half = 0.5 * width

    n_pieces = len(left)
    starts = list(range(0, n_pieces, _CHUNK))

    def chunk_integrals(start):
        stop = min(start + _CHUNK, n_pieces)
        piece = gauss8_pieces(mid[start:stop], half[start:stop],
                              d1[start:stop], d2[start:stop], th)
        piece[~live[start:stop]] = 0.0
        return piece

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            chunks = list(ex.map(chunk_integrals, starts))
    else:
        chunks = [chunk_integrals(s) for s in starts]

    # prefix sums: exact order, independent of threading
    chunk_totals = [math.fsum(c.tolist()) for c in chunks]
    results = []
    grid_set = {}
    for x in xs_sorted:
        i = int(np.searchsorted(vals, x, side="left"))
        grid_set[x] = i  # vals[i] == x by construction
    for x, i in grid_set.items():
        ci, off = divmod(i, _CHUNK)
        total = math.fsum(chunk_totals[:ci])
        if off:
            total += math.fsum(chunks[ci][:off].tolist())
        results.append(CorrelationResult(theta=theta, X=x, I=total,
                                         method="exact", breakpoints_used=i))
    results.sort(key=lambda r: r.X)
    return results


def correlate_exact(theta, X: float, table: DivisorTable | None = None,
                    threads: int = 1) -> CorrelationResult:
    """I_theta(X) over [1, X], split at every jump of either factor and
    integrated by 8-point Gauss quadrature per smooth piece."""
    theta = _as_theta(theta)
    if X < 1:
        raise ValueError("X must be >= 1")
    if X == 1:
        return CorrelationResult(theta=theta, X=1.0, I=0.0, method="exact",
                                 breakpoints_used=0)
    return _sweep(theta, [X], table, threads)[0]


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
