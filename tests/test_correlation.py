import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

from divcorr import correlation
from divcorr.correlation import (compare_spectral, correlate_exact,
                                 correlate_grid, fit_exponent,
                                 normalized_ratio, result_csv_row,
                                 results_json, CorrelationResult)
from divcorr.divisor import (TWO_GAMMA_MINUS_1, DivisorTable, gauss8_pieces,
                             mean_square, summatory_D)
from divcorr.diophantine import theta_parse
from divcorr.errors import ResourceLimit
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
    # windows and counter carries run; integer endpoint, duplicate points,
    # and 7.5, which is n/theta for rat:2/1
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

    def kernel(mid, half, d1, d2, theta):
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


def test_single_chunk_sweep_runs_inline(table_2e4, monkeypatch):
    want = correlate_grid("surd:2", 100.0, 5000.0, 6, table_2e4, threads=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-chunk sweep opened a thread pool")

    monkeypatch.setattr(correlation, "ThreadPoolExecutor", no_pool)
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

    monkeypatch.setattr(correlation, "ThreadPoolExecutor", CountingPool)
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
