import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from divcorr import correlation, divisor
from divcorr.correlation import (compare_spectral, correlate_exact,
                                 correlate_grid, fit_exponent,
                                 normalized_ratio, result_csv_row,
                                 results_json, CorrelationResult)
from divcorr.divisor import (TWO_GAMMA_MINUS_1, DivisorTable, gauss8_pieces,
                             mean_square, summatory_D)
from divcorr.diophantine import theta_parse
from divcorr.errors import ResourceLimit
from divcorr.exactsum import exact_prefix_sums
from divcorr.realfield import psi_parse


def oracle_integral(th: float, X: float) -> float:
    """Independent adaptive quadrature, piece by piece between all jumps."""
    bps = {1.0, X}
    bps.update(float(n) for n in range(2, int(X) + 1))
    n = int(math.floor(th)) + 1
    while n / th <= X:
        bps.add(n / th)
        n += 1
    bps = sorted(b for b in bps if 1.0 <= b <= X)

    def f(x):
        d1 = summatory_D(int(x)) - x * math.log(x) - TWO_GAMMA_MINUS_1 * x
        tx = th * x
        d2 = (summatory_D(int(tx)) - tx * math.log(tx)
              - TWO_GAMMA_MINUS_1 * tx)
        return d1 * d2

    total = 0.0
    for a, b in zip(bps[:-1], bps[1:]):
        if b - a < 1e-13:
            continue
        v, _ = quad(f, a, b, epsabs=1e-12, epsrel=1e-12)
        total += v
    return total


def test_exact_matches_quadrature_oracle(table_2e4):
    th = math.sqrt(2)
    got = correlate_exact("surd:2", 300.0, table_2e4)
    assert got.I == pytest.approx(oracle_integral(th, 300.0), rel=1e-6)
    got = correlate_exact("rat:3/2", 200.0, table_2e4)
    assert got.I == pytest.approx(oracle_integral(1.5, 200.0), rel=1e-6)
    # theta < 1 exercises the D(0) = 0 region of the second factor
    got = correlate_exact("dec:0.8125152587890625", 150.0, table_2e4)
    assert got.I == pytest.approx(oracle_integral(0.8125152587890625, 150.0),
                                  rel=1e-6)


def test_identity_theta_equals_mean_square(table_2e4):
    # theta = 1 reduces the sweep to mean_square's pieces (each integer
    # breakpoint twice, the duplicate piece of width 0); both call the same
    # Gauss-8 kernel and, while the pieces fit one chunk, reduce alike
    for X in (7.5, 10.0, 100.0, 1000.0, 12345.6):
        r = correlate_exact("rat:1/1", X, table_2e4)
        assert r.I == mean_square(X, table_2e4)
        assert r.I >= 0


def test_trivial_and_domain(table_2e4):
    assert correlate_exact("surd:2", 1.0, table_2e4).I == 0.0
    with pytest.raises(ValueError):
        correlate_exact("surd:2", 0.5, table_2e4)
    with pytest.raises(ValueError):
        correlate_grid("surd:2", 100.0, 10.0, 5, table_2e4)
    with pytest.raises(ValueError):
        correlate_grid("surd:2", 10.0, 100.0, 1, table_2e4)


def test_resource_cap():
    with pytest.raises(ResourceLimit) as ei:
        correlate_exact("rat:2/1", 5e8)
    assert ei.value.suggested_cap is not None


def test_grid_prefix_additivity(table_2e4):
    # grid values equal fresh single-X sweeps (prefix consistency)
    rs = correlate_grid("surd:2", 50.0, 400.0, 4, table_2e4)
    for r in rs:
        single = correlate_exact("surd:2", r.X, table_2e4)
        assert r.I == pytest.approx(single.I, rel=1e-10, abs=1e-8)


def test_grid_split_additivity(table_2e4):
    # [1, X'] + [X', X] = [1, X] for the quadrature pieces
    th = "surd:2"
    full = correlate_exact(th, 333.0, table_2e4).I
    lo = correlate_exact(th, 177.3, table_2e4).I
    # integrate [177.3, 333] through the grid machinery: difference of prefixes
    rs = correlate_grid(th, 177.3, 333.0, 2, table_2e4)
    assert rs[1].I - rs[0].I == pytest.approx(full - lo, rel=1e-10)
    assert rs[0].I == pytest.approx(lo, rel=1e-10)


def test_grid_thread_determinism(table_2e4):
    a = correlate_grid("surd:2", 100.0, 5000.0, 6, table_2e4, threads=1)
    b = correlate_grid("surd:2", 100.0, 5000.0, 6, table_2e4, threads=4)
    assert [r.I for r in a] == [r.I for r in b]


def test_endpoints_only():
    rs = correlate_grid("rat:2/1", 10.0, 100.0, 2)
    assert [r.X for r in rs] == [10.0, 100.0]


def test_fit_exponent_exact_power_law():
    rows = [CorrelationResult(theta_parse("rat:1/1"), X, X**1.5, "exact", 0)
            for X in np.geomspace(10, 1e5, 9)]
    fit = fit_exponent(rows)
    assert fit.slope == pytest.approx(1.5, abs=1e-12)
    assert fit.rms_residual < 1e-12
    assert fit.sign_changes == 0
    assert fit.points_used == 9


def test_fit_exponent_drops_and_flags():
    theta = theta_parse("rat:1/1")
    rows = [CorrelationResult(theta, 10.0, 1e3, "exact", 0),
            CorrelationResult(theta, 100.0, 0.0, "exact", 0),
            CorrelationResult(theta, 1000.0, -1e5, "exact", 0),
            CorrelationResult(theta, 10000.0, 1e7, "exact", 0)]
    fit = fit_exponent(rows)
    assert fit.points_used == 3
    assert fit.sign_changes == 3  # 1 dropped + 2 flips
    with pytest.raises(ValueError):
        fit_exponent(rows[:2])


def test_normalized_ratio(table_2e4):
    r = correlate_exact("rat:1/1", 100.0, table_2e4)
    assert normalized_ratio(r) == pytest.approx(r.I / 1000.0)
    psi = psi_parse("exp:3")
    base, normed = normalized_ratio(r, psi)
    expect = base * (math.log(100.0**0.25) / math.log(3.0)) ** 1.5
    assert normed == pytest.approx(expect, rel=1e-12)
    r1 = correlate_exact("rat:1/1", 1.0, table_2e4)
    assert normalized_ratio(r1) == 0.0


def test_compare_spectral_small(table_2e4):
    cmp100 = compare_spectral("rat:1/1", 100.0, table=table_2e4)
    # both routes see the positive square-type mass
    assert cmp100.I_exact > 0 and cmp100.report.J_total > 0
    assert cmp100.report.params.N == 31
    assert cmp100.report.params.T == math.inf
    cmp_t = compare_spectral("surd:2", 100.0, psi=psi_parse("pow:2"),
                             table=table_2e4)
    assert math.isfinite(cmp_t.report.params.T)
    assert cmp_t.report.J_total == pytest.approx(
        cmp_t.report.D_lower + cmp_t.report.D_upper, rel=1e-12)


def test_csv_and_json_shapes(table_2e4):
    rs = correlate_grid("surd:2", 100.0, 10000.0, 4, table_2e4)
    row = result_csv_row(rs[0])
    assert row.startswith("surd:2,100,")
    assert len(row.split(",")) == 6
    psi = psi_parse("exp:3")
    assert len(result_csv_row(rs[0], psi).split(",")) == 7
    doc = results_json(rs, fit=fit_exponent(rs), psi=psi)
    import json
    parsed = json.loads(doc)
    assert len(parsed["results"]) == 4
    assert "slope" in parsed["fit"]
    assert "psi_normalized" in parsed["results"][0]


def test_json_num_writes_values_from_1e15_as_strings():
    assert correlation._json_num(10**15) == "1000000000000000"
    assert correlation._json_num(2e15) == "2000000000000000"
    assert correlation._json_num(10**15 - 1) == 10**15 - 1


def test_identity_theta_at_1e4(big_table):
    r = correlate_exact("rat:1/1", 10_000.0, big_table)
    assert r.I == pytest.approx(mean_square(10_000.0, big_table), rel=1e-9)


def test_rational_nonvanishing(big_table):
    # small-denominator rationals keep a positive correlation at scale
    for spec in ("rat:2/1", "rat:3/2", "rat:5/3"):
        rs = correlate_grid(spec, 1e3, 1e5, 6, big_table)
        assert all(r.I > 0 for r in rs)


def test_rational_ratio_stabilizes(big_table):
    rs = correlate_grid("rat:2/1", 1e5, 4e5, 2, big_table)
    r1, r2 = rs[0].ratio, rs[1].ratio
    assert abs(r1 - r2) / abs(r2) < 0.05


def diagonal_constant(a: int, b: int) -> mpmath.mpf:
    """C(a, b), the limit of I/X^{3/2} for theta = a/b in lowest terms, at
    200 bits: theta^{1/4} (ab)^{-3/4} zeta(3/2)^4 / (6 pi^2 zeta(3)) times,
    for each prime p | ab with p^alpha || a and p^beta || b, the Euler
    factor ratio F_{alpha,beta}(x) / F_{0,0}(x) at x = p^{-3/2}, where
    F = g2 + (A + B) g1 + A B g0 with A = alpha + 1, B = beta + 1,
    g0 = 1/(1-x), g1 = x/(1-x)^2 and g2 = x(1+x)/(1-x)^3 (Ramanujan's
    sum tau(n)^2 n^{-s} = zeta(s)^4 / zeta(2s), corrected at p | ab)."""

    def order(n, p):
        k = 0
        while n % p == 0:
            n, k = n // p, k + 1
        return k

    def F(A, B, x):
        return (x * (1 + x) / (1 - x) ** 3 + (A + B) * x / (1 - x) ** 2
                + A * B / (1 - x))

    with mpmath.workprec(200):
        C = (mpmath.mpf(a) / b) ** 0.25 * mpmath.mpf(a * b) ** -0.75 * (
            mpmath.zeta(1.5) ** 4 / (6 * mpmath.pi ** 2 * mpmath.zeta(3)))
        for p in range(2, a * b + 1):
            if a * b % p == 0 and all(p % d for d in range(2, p)):
                x = mpmath.mpf(p) ** -1.5
                C *= F(order(a, p) + 1, order(b, p) + 1, x) / F(1, 1, x)
        return C


#: theta = a/b: C(a, b) to 12 digits, and the curve alpha L^2 + beta L +
#: gamma (L = log X) that the second-order remainder
#: F/X = (I - C X^{3/2}) / X follows.  Each curve is the least-squares fit
#: to correlate_grid at 400 log-spaced X in [1e3, 2e5] on one table,
#: rounded to 4 decimals.  On 2000 log-spaced X in [1e3, 2e5] F/X stayed
#: within 0.396, 0.343, 0.371 and 0.393 of them; the band adds a margin.
#: The curves differ by theta, and no law shared across theta is asserted.
#: Delta here has no -1/4: with the mean-zero Delta - 1/4, gamma moves by
#: -1/16.
_RATIONAL_REMAINDERS = {
    (1, 1): ("0.654283977509", (-0.0279, -0.2075, -0.7515)),
    (2, 1): ("0.683606041008", (-0.0269, -0.2331, -0.6829)),
    (3, 2): ("0.468079964094", (-0.0264, -0.2025, -0.5141)),
    (5, 3): ("0.300313882224", (-0.0230, -0.2295, -0.0306)),
}
_RATIONAL_REMAINDER_BAND = 0.55


@pytest.mark.parametrize("a,b", list(_RATIONAL_REMAINDERS))
def test_rational_second_order_remainder_follows_its_curve(big_table, a, b):
    digits, curve = _RATIONAL_REMAINDERS[a, b]
    C = diagonal_constant(a, b)
    assert mpmath.nstr(C, 12) == digits
    dev = {}
    for r in correlate_grid(f"rat:{a}/{b}", 1e3, 2e5, 8, big_table):
        f = (r.I - float(C) * r.X ** 1.5) / r.X
        dev[r.X] = f - np.polyval(curve, math.log(r.X))
    assert max(map(abs, dev.values())) <= _RATIONAL_REMAINDER_BAND, dev


def test_irrational_ratio_decorrelates(big_table):
    # |I|/X^{3/2} shrinks across the top decade for sqrt2
    rs = correlate_grid("surd:2", 1e3, 1e6, 8, big_table)
    lo = max(abs(r.ratio) for r in rs if r.X <= 1e4)
    hi = max(abs(r.ratio) for r in rs if r.X >= 1e5)
    assert hi < lo


# ---------------------------------------------------------------------------
# the streaming sweep against the materialising one it replaced
# ---------------------------------------------------------------------------


def materialised_breakpoints(th: float, xs: list[float]):
    """Every breakpoint of [1, max(xs)] at once, globally stable-sorted."""
    xs_sorted = sorted(set(float(x) for x in xs))
    Xmax = xs_sorted[-1]
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
    keep = vals <= Xmax + correlation._MERGE_TOL
    return vals[keep], kinds[keep]


def materialised_indices(th: float, xs: list[float]):
    """Every breakpoint, and the D(x) and D(theta x) index after each, as
    1 and floor(th) plus the running counts of the integer and n / th
    breakpoints."""
    vals, kinds = materialised_breakpoints(th, xs)
    d1_idx = 1 + np.cumsum(kinds == 0)
    d2_idx = int(math.floor(th)) + np.cumsum(kinds == 1)
    return vals, d1_idx, d2_idx


def materialised_sweep(th: float, xs: list[float], table, chunk: int):
    """(X, I, breakpoints_used) per grid X, as the sweep computed them
    before it streamed: all pieces in memory, chunks of `chunk` pieces."""
    vals, d1_idx, d2_idx = materialised_indices(th, xs)
    cd = table.cumulative()
    left, right = vals[:-1], vals[1:]
    width = right - left
    live = width > correlation._MERGE_TOL
    d1 = cd[d1_idx[:-1]].astype(np.float64)
    d2 = cd[d2_idx[:-1]].astype(np.float64)
    mid = 0.5 * (left + right)
    half = 0.5 * width
    n_pieces = len(left)
    chunks = []
    for start in range(0, n_pieces, chunk):
        stop = min(start + chunk, n_pieces)
        piece = gauss8_pieces(mid[start:stop], half[start:stop],
                              d1[start:stop], d2[start:stop], th)
        piece[~live[start:stop]] = 0.0
        chunks.append(piece)
    chunk_totals = [math.fsum(c.tolist()) for c in chunks]
    out = []
    for x in sorted(set(float(x) for x in xs)):
        i = int(np.searchsorted(vals, x, side="left"))
        ci, off = divmod(i, chunk)
        total = math.fsum(chunk_totals[:ci])
        if off:
            total += math.fsum(chunks[ci][:off].tolist())
        out.append((x, total, i))
    return out


SWEEP_THETAS = ["rat:1/1", "rat:2/1", "rat:3/2", "dec:0.8125152587890625",
                "surd:2", "surd:3", "golden", "taubeta:2/1:4"]


@pytest.mark.parametrize("chunk", [7, 64, 1000, correlation._CHUNK])
@pytest.mark.parametrize("spec", SWEEP_THETAS)
def test_streaming_sweep_matches_materialised(spec, chunk, monkeypatch,
                                              big_table):
    theta = theta_parse(spec)
    th = float(theta)
    # about 6 chunks of pieces (2.2 at the default size), so that many
    # chunk starts run, each bisecting for its own window; integer
    # endpoint, duplicate points, and 7.5, which is n/theta for rat:2/1
    chunks = 6 if chunk < correlation._CHUNK else 2.2
    Xmax = float(max(20, math.ceil(chunks * chunk / (1 + th))))
    xs = [1.0, 2.0, 7.5, 7.5, Xmax / 3, Xmax / 3, Xmax - 1, Xmax]
    # a grid X whose first equal breakpoint has a piece index that is a
    # multiple of the chunk size (an empty partial sum); where a duplicate
    # breakpoint sits on every such index, one more point shifts them
    for extra in ([], [1.5]):
        vals, _ = materialised_breakpoints(th, xs + extra)
        j = next((j for j in range(chunk, len(vals), chunk)
                  if vals[j - 1] < vals[j] <= Xmax), None)
        if j is not None:
            xs += extra + [float(vals[j])]
            break
    assert j is not None
    want = materialised_sweep(th, xs, big_table, chunk)
    assert (vals[j], j) in [(x, i) for x, _, i in want]
    monkeypatch.setattr(correlation, "_CHUNK", chunk)
    # with small chunks many run at once: more threads than cores too
    for threads in ((1, 2, 4) if chunk < 1000 else (1,)):
        got = correlation._sweep(theta, xs, big_table, threads)
        assert [(r.X, r.I, r.breakpoints_used) for r in got] == want


@pytest.mark.parametrize("xs", [
    # integer grid points, and 7.5, which is n/theta for rat:2/1
    [2.0, 7.5, 100.0, 1000.0],
    # Xmax just above an integer
    [3.25, 1000.0000000000002],
    # Xmax one ulp below 400, which is a breakpoint n/theta for rat:1/5,
    # kept within _MERGE_TOL: its floor is above floor(Xmax)
    [5.0, 399.99999999999994],
    # 100 grid points inside (7, 8): whole chunks of 64 pieces fall inside
    # one integer window [a, b)
    [7.005 + 0.0099 * k for k in range(100)] + [1000.0],
])
@pytest.mark.parametrize("spec", SWEEP_THETAS + ["rat:1/5"])
def test_d_index_counts_the_integer_breakpoints(spec, xs, monkeypatch):
    # the D(x) and D(theta x) indices and grid positions that the sweep
    # works out from global piece indices, against the running counts of
    # the breakpoint kinds and searchsorted.  With tau = 1 the table's D(n)
    # is n, so the kernel receives the indices themselves.  Small chunks,
    # so that start > 0 and grid X fall inside chunks
    theta = theta_parse(spec)
    th = float(theta)
    monkeypatch.setattr(correlation, "_CHUNK", 64)
    limit = max(math.floor(xs[-1]), math.floor(th * xs[-1])) + 2
    table = DivisorTable(limit, np.r_[0, np.ones(limit, dtype=np.int64)])
    seen = []

    def kernel(mid, half, d1, d2, theta, work=None):
        seen.append((d1, d2))
        return np.zeros(len(mid))

    monkeypatch.setattr(correlation, "gauss8_pieces", kernel)
    got = correlation._sweep(theta, xs, table)
    vals, d1_idx, d2_idx = materialised_indices(th, xs)
    live = np.diff(vals) > correlation._MERGE_TOL
    d1, d2 = (np.concatenate(d) for d in zip(*seen))
    assert len(seen) > 2 and len(d1) == len(vals) - 1
    assert d1[live].tolist() == d1_idx[:-1][live].tolist()
    assert d2[live].tolist() == d2_idx[:-1][live].tolist()
    assert [r.breakpoints_used for r in got] == \
        np.searchsorted(vals, sorted(set(xs)), side="left").tolist()


@pytest.mark.parametrize("chunk", [1000, correlation._CHUNK])
@pytest.mark.parametrize("spec,X,n", [("rat:7/5", 61725.0, 86415),
                                      ("rat:23/9", 111105.0, 283935)])
def test_sweep_drops_breakpoint_one_ulp_past_the_cap(spec, X, n, chunk,
                                                     monkeypatch, big_table):
    # n / theta is the first double above Xmax + _MERGE_TOL (which rounds
    # to Xmax), so it is not a breakpoint; below() and values() each cap
    # their reach at that double.  Without the caps the last chunk carries
    # pieces past Xmax, which no I(X) sums, so the kernel's piece count is
    # checked along with the results
    theta = theta_parse(spec)
    th = float(theta)
    assert n / th == math.nextafter(X + correlation._MERGE_TOL, math.inf)
    xs = [1.0, X / 2, X]
    want = materialised_sweep(th, xs, big_table, chunk)
    vals, _ = materialised_breakpoints(th, xs)
    assert vals[-1] == X
    pieces = []

    def kernel(mid, *args, **kwargs):
        pieces.append(len(mid))
        return gauss8_pieces(mid, *args, **kwargs)

    monkeypatch.setattr(correlation, "gauss8_pieces", kernel)
    monkeypatch.setattr(correlation, "_CHUNK", chunk)
    got = correlation._sweep(theta, xs, big_table)
    assert [(r.X, r.I, r.breakpoints_used) for r in got] == want
    assert sum(pieces) == len(vals) - 1


def grid_at_indices(th: float, n_pieces: int, targets: list[int]):
    """Grid X for which the sweep has n_pieces pieces and a grid X first
    equal to the breakpoint at each global index in `targets` (ascending,
    below the last unit's pieces): the t-th is the value at index
    targets[t] - t before any of them is added, and filler X in
    (floor(Xmax), Xmax) make up the count."""
    m = (n_pieces - len(targets)) // (1 + th)
    while True:
        X = m + 0.25
        vals, _ = materialised_breakpoints(th, [X])
        fill = n_pieces - len(targets) - (len(vals) - 1)
        if fill >= 0:
            break
        m -= 1
    xs = [float(vals[T - t]) for t, T in enumerate(targets)]
    xs += np.linspace(m, X, fill + 2)[1:-1].tolist() + [X]
    vals, _ = materialised_breakpoints(th, xs)
    assert len(vals) - 1 == n_pieces
    assert np.searchsorted(vals, xs[:len(targets)]).tolist() == targets
    return xs


def chunk_wide_sweep(th: float, xs: list[float], table):
    """(X, I, breakpoints_used) per grid X from the sweep's chunk integrator
    as it was before it ran one Gauss block at a time: a chunk's pieces in
    one gauss8_pieces call, its D(x) and D(theta x) indices from its global
    index, reduced by exact_prefix_sums.  Each chunk's breakpoints are
    sliced from the materialised ones."""
    vals, _ = materialised_breakpoints(th, xs)
    xs_sorted = sorted(set(float(x) for x in xs))
    grid_at = np.searchsorted(vals, xs_sorted).tolist()
    cd = table.cumulative()
    i_hi, n_lo = math.floor(xs_sorted[-1]), math.floor(th) + 1
    chunk = correlation._CHUNK

    def integrate(start, vals):
        left, right = vals[:-1], vals[1:]
        width = right - left
        offs = [i - start for i in grid_at if start < i < start + chunk]
        idx = left.astype(np.int64)
        np.minimum(idx, i_hi, out=idx)
        d1 = cd[idx].astype(np.float64)
        k = n_lo + start - sum(i <= start for i in grid_at)
        np.subtract(np.arange(k, k + len(left)), idx, out=idx)
        for off in offs:
            idx[off:] -= 1
        piece = gauss8_pieces(0.5 * (left + right), 0.5 * width, d1,
                              cd[idx].astype(np.float64), th)
        piece[~(width > correlation._MERGE_TOL)] = 0.0
        sums = exact_prefix_sums(piece, offs + [len(piece)])
        return sums[-1], {start + off: p for off, p in zip(offs, sums)}

    done = [integrate(s, vals[s:s + chunk + 1])
            for s in range(0, len(vals) - 1, chunk)]
    chunk_totals = [total for total, _ in done]
    partial = {i: p for _, parts in done for i, p in parts.items()}
    out = []
    for x, i in zip(xs_sorted, grid_at):
        ci, off = divmod(i, chunk)
        total = math.fsum(chunk_totals[:ci])
        if off:
            total += partial[i]
        out.append((x, total, i))
    return out


_G = divisor._GAUSS_BLOCK
#: (pieces, grid indices) of rat:2/1 sweeps at the default _CHUNK: the
#: second chunk is three Gauss blocks, the last 5096 pieces long, or one
#: block of 1000; grid X sit on block edges, on the chunk edge and inside
#: the long last block
EDGE_SWEEPS = [
    (correlation._CHUNK + 3 * _G + 1000,
     [4 * _G, 6 * _G, correlation._CHUNK, correlation._CHUNK + _G,
      correlation._CHUNK + 3 * _G + 500]),
    (correlation._CHUNK + 1000, [_G, correlation._CHUNK + 502]),
]


@pytest.mark.parametrize("n_pieces, targets", EDGE_SWEEPS)
def test_sweep_gauss_blocks_at_chunk_and_grid_edges(n_pieces, targets,
                                                    monkeypatch, big_table):
    # the sweep integrates each chunk one Gauss block at a time; rat:2/1
    # has a dead piece (n / theta equal to an integer) in every unit, so
    # dead pieces and grid offsets fall on either side of block edges.
    # Each kernel call must be one of _gauss_blocks' blocks of its chunk:
    # a gemv may round a row by its place in the matrix, and with those
    # bounds each row keeps its place in a call over the whole chunk
    xs = grid_at_indices(2.0, n_pieces, targets)
    want = materialised_sweep(2.0, xs, big_table, correlation._CHUNK)
    assert chunk_wide_sweep(2.0, xs, big_table) == want
    blocks = [e - s for n in (correlation._CHUNK,
                              n_pieces - correlation._CHUNK)
              for s, e in divisor._gauss_blocks(n)]
    calls = []

    def kernel(mid, *args, **kwargs):
        calls.append(len(mid))
        return gauss8_pieces(mid, *args, **kwargs)

    monkeypatch.setattr(correlation, "gauss8_pieces", kernel)
    for threads in (1, 2):
        calls.clear()
        got = correlation._sweep(theta_parse("rat:2/1"), xs, big_table,
                                 threads)
        assert [(r.X, r.I, r.breakpoints_used) for r in got] == want
        assert sorted(calls) == sorted(blocks)


def test_single_chunk_sweep_runs_inline(table_2e4, monkeypatch):
    want = correlate_grid("surd:2", 100.0, 5000.0, 6, table_2e4, threads=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-chunk sweep opened a thread pool")

    monkeypatch.setattr(divisor, "ThreadPoolExecutor", no_pool)
    got = correlate_grid("surd:2", 100.0, 5000.0, 6, table_2e4, threads=2)
    assert [(r.I, r.breakpoints_used) for r in got] == \
        [(r.I, r.breakpoints_used) for r in want]


def test_many_chunk_sweep_runs_in_the_pool(table_2e4, monkeypatch):
    monkeypatch.setattr(correlation, "_CHUNK", 1000)
    want = correlate_grid("surd:2", 100.0, 5000.0, 6, table_2e4, threads=1)
    opened = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(divisor, "ThreadPoolExecutor", CountingPool)
    got = correlate_grid("surd:2", 100.0, 5000.0, 6, table_2e4, threads=2)
    assert opened == [2]
    assert [(r.I, r.breakpoints_used) for r in got] == \
        [(r.I, r.breakpoints_used) for r in want]


def test_sweep_memory_does_not_grow_with_X(big_table):
    # the sweep holds O(_CHUNK) pieces, not all of them: 4x the range may
    # not raise the traced peak by more than a quarter
    big_table.cumulative()
    peaks = []
    for X in (2e5, 8e5):
        tracemalloc.start()
        try:
            correlate_exact("surd:2", X, big_table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


def test_sweep_memory_is_two_chunk_arrays_and_the_gauss_buffers(big_table):
    # one chunk (about 241k pieces at X = 1e5) holds its breakpoint window
    # and its piece integrals, float64 arrays of at most _CHUNK + 1, and
    # integrates one Gauss block at a time: gauss8_pieces' five buffers of
    # fewer than 8 x 8192 doubles, plus the block's own short arrays (17.2
    # MB traced while the whole chunk went through one call)
    big_table.cumulative()
    tracemalloc.start()
    try:
        correlate_exact("surd:2", 1e5, big_table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk_array = 8 * (correlation._CHUNK + 1)
    gauss_buf = 8 * 8 * (2 * divisor._GAUSS_BLOCK - 1)
    assert peak <= 2 * chunk_array + 5 * gauss_buf + 2**19
