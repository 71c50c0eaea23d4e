"""The four benchmark workloads: seeded inputs, set-up, one timed pass, and
the rows and exact integers that the output gate checks.

Each workload is a closed loop in one process: the calls of a pass run one
after another, and a pass starts only when the previous one has returned.
Program functions are always reached through their module attribute
(``divisor.sieve_tau``, never a name bound at import time), so the span
recorder in ``spans.py`` sees every call when tracing is on.

Seed 0 reproduces the acceptance inputs (tests/test_acceptance.py and
``divcorr verify``).  Other seeds draw only the free inputs: the surd ``d``,
the point-query ``x`` values and the scan bound ``M``; everything else is the
acceptance shape.  The draws are chosen so that a pass costs about the same
on every seed, because the spread of a metric across seeds is what limits
how small a regression the benchmark can see.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from divcorr import correlation, diophantine, divisor, realfield, voronoi


def fmt(x) -> str:
    """A float as the CLI prints it."""
    return format(float(x), ".17g")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _check_points(rng: random.Random, limit: int, count: int = 24) -> list[int]:
    """n values at which summatory_D is compared with a sieve's cumulative:
    D(100) = 482 from criterion 1, the table top, and random n below it."""
    return sorted({100, limit, *(rng.randint(1, limit) for _ in range(count))})


def _e_literal(terms: int) -> str:
    """cf:[...] spec of e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...], cut to `terms`."""
    qs = [2]
    k = 1
    while len(qs) < terms:
        qs += [1, 2 * k, 1]
        k += 1
    qs = qs[:terms]
    return "cf:[2;" + ",".join(map(str, qs[1:])) + "]"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int], dict]
    """seed -> plain data: specs, numbers and bounds; nothing parsed."""
    prepare: Callable[[dict], dict]
    """inputs -> parsed program objects (part of set-up)."""
    run: Callable[[dict], dict]
    """One timed pass over prepared inputs -> its outputs."""
    rows: Callable[[dict], list[str]]
    """Outputs formatted as the CLI formats them; digested by the gate."""
    exact: Callable[[dict], dict]
    """Exact integer outputs, pinned for seed 0."""
    invariants: Callable[[dict, dict], list[tuple[str, bool]]]
    """Checks that hold for every seed: (name, passed)."""


# ---------------------------------------------------------------------------
# decorrelation_grid
# ---------------------------------------------------------------------------

GRID_TABLE = 2_000_010


def _grid_inputs(seed: int) -> dict:
    rng = _rng("decorrelation_grid", seed)
    # sqrt(d) * 1e6 must stay inside the shared 2_000_010 table, or _sweep
    # sieves a second table and the pass changes shape: d in {2, 3}
    d = 2 if seed == 0 else rng.choice((2, 3))
    return {"thetas": ["rat:2/1", f"surd:{d}", "taubeta:2/1:4"],
            "xmin": 1e4, "xmax": 1e6, "points": 12,
            "table_limit": GRID_TABLE,
            "check_n": _check_points(rng, GRID_TABLE)}


def _grid_prepare(inp: dict) -> dict:
    return {**inp, "thetas": [diophantine.theta_parse(s) for s in inp["thetas"]]}


def _grid_run(p: dict) -> dict:
    table = divisor.sieve_tau(p["table_limit"])
    table.cumulative()
    grids = [correlation.correlate_grid(th, p["xmin"], p["xmax"], p["points"],
                                        table=table, threads=1)
             for th in p["thetas"]]
    fits = [correlation.fit_exponent(g) for g in grids]
    return {"table": table, "grids": grids, "fits": fits}


def _grid_rows(out: dict) -> list[str]:
    rows = []
    for grid, fit in zip(out["grids"], out["fits"]):
        rows += [correlation.result_csv_row(r) for r in grid]
        rows.append(f"{fmt(fit.slope)},{fmt(fit.intercept)},"
                    f"{fmt(fit.rms_residual)},{fit.points_used},"
                    f"{fit.sign_changes}")
    return rows


def _grid_exact(out: dict) -> dict:
    return {"breakpoints_used": [[r.breakpoints_used for r in g]
                                 for g in out["grids"]]}


def _grid_invariants(inp: dict, out: dict) -> list[tuple[str, bool]]:
    slope = out["fits"][0].slope
    cd = out["table"].cumulative()
    agree = all(divisor.summatory_D(n) == int(cd[n]) for n in inp["check_n"])
    # criterion 8c: taubeta I * log(X)^{3/2} / X^{3/2} stays bounded
    top = [r for r in out["grids"][2] if r.X >= 1e5]
    vals = [abs(r.I) * math.log(r.X) ** 1.5 / r.X ** 1.5 for r in top]
    return [
        ("rational slope in [1.47, 1.53]", 1.47 <= slope <= 1.53),
        ("summatory_D equals the sieve's cumulative", agree),
        ("taubeta log-normalized spread < 10", max(vals) / min(vals) < 10.0),
        ("12 rows per theta", all(len(g) == inp["points"] for g in out["grids"])),
    ]


# ---------------------------------------------------------------------------
# spectral_compare
# ---------------------------------------------------------------------------


def _spectral_inputs(seed: int) -> dict:
    rng = _rng("spectral_compare", seed)
    # the exact side sieves sqrt(d) * 1e5 itself: d in {2, 3} keeps that
    # sieve, and so the pass, the same size on every seed
    d = 2 if seed == 0 else rng.choice((2, 3))
    return {"cases": [[f"surd:{d}", None], ["taubeta:2/1:4", "exp:3"]],
            "X": 1e5, "threads": 2}


def _spectral_prepare(inp: dict) -> dict:
    cases = [(diophantine.theta_parse(t),
              realfield.psi_parse(p) if p is not None else None)
             for t, p in inp["cases"]]
    return {**inp, "cases": cases}


def _spectral_run(p: dict) -> dict:
    return {"cases": p["cases"],
            "comparisons": [correlation.compare_spectral(
                theta, p["X"], psi=psi, threads=p["threads"])
                for theta, psi in p["cases"]]}


def _spectral_rows(out: dict) -> list[str]:
    rows = []
    for c in out["comparisons"]:
        rep, prm = c.report, c.report.params
        rows.append(",".join([c.theta.spec, fmt(c.X), str(prm.N), fmt(prm.T),
                              fmt(c.I_exact), fmt(rep.J_total),
                              fmt(rep.D_lower), fmt(rep.D_upper),
                              fmt(c.discrepancy), fmt(c.ratio_x118),
                              str(rep.term_count_lower),
                              str(rep.term_count_upper)]))
    return rows


def _spectral_exact(out: dict) -> dict:
    return {"terms": [[c.report.term_count_lower, c.report.term_count_upper]
                      for c in out["comparisons"]]}


def _brute_spectral_rel(theta) -> float:
    """Criterion 9a: spectral_j against the naive double loop at X = 16."""
    th = float(theta.value(64))
    X = 16.0
    table = divisor.sieve_tau(16)
    rep = voronoi.spectral_j(theta, voronoi.SpectralParams.default(X), table)
    brute = 0.0
    for m in range(1, 9):
        for n in range(1, 9):
            u = 4 * math.pi * (math.sqrt(m * th) - math.sqrt(n)) * math.sqrt(X)
            brute += (table.tau(m) * table.tau(n) / (m * n) ** 0.75
                      * voronoi.lambda_kernel(u))
    brute *= X ** 1.5 / (2 * math.pi ** 2)
    return abs(rep.J_total - brute) / abs(brute)


def _spectral_invariants(inp: dict, out: dict) -> list[tuple[str, bool]]:
    surd_cmp, tau_cmp = out["comparisons"]
    n2 = [c.report.params.N ** 2 for c in out["comparisons"]]
    counts = [c.report.term_count_lower + c.report.term_count_upper
              for c in out["comparisons"]]
    return [
        ("spectral_j matches the brute double loop at X=16",
         _brute_spectral_rel(out["cases"][0][0]) < 1e-9),
        ("term counts sum to N^2", counts == n2),
        ("T = inf puts every term below the cutoff",
         surd_cmp.report.term_count_upper == 0),
        ("finite T runs both sides of the split",
         tau_cmp.report.term_count_lower > 0
         and tau_cmp.report.term_count_upper > 0),
    ]


# ---------------------------------------------------------------------------
# liouville_scan
# ---------------------------------------------------------------------------

CF_LITERAL = _e_literal(40)
SCAN_LO, SCAN_HI = 2 ** 16, 2 ** 17


def _scan_inputs(seed: int) -> dict:
    rng = _rng("liouville_scan", seed)
    M = SCAN_LO if seed == 0 else rng.randrange(SCAN_LO, SCAN_HI)
    # every pass scans M and its mirror image in [2^16, 2^17): the scan cost
    # grows with M (multiples of convergent denominators near M carry the
    # largest psi values), and the pair keeps the pass cost seed-independent
    mirror = SCAN_LO + SCAN_HI - 1 - M
    # surds whose partial quotients are all >= 2, so every convergent
    # denominator is a Legendre hit (m_{k+1} > 2 m_k)
    d = 2 if seed == 0 else rng.choice((2, 5, 6, 10, 11))
    return {"scan_theta": "taubeta:2/1:4", "psis": ["exp:1.5", "exp:3"],
            "scan_bounds": [M, mirror],
            "cf_theta": "taubeta:2/1:5", "cf_terms": 40,
            "legendre": [f"surd:{d}", "golden"], "legendre_M": 10 ** 5,
            "literal": CF_LITERAL, "literal_M": 10 ** 4}


def _scan_prepare(inp: dict) -> dict:
    parse = diophantine.theta_parse
    return {**inp,
            "scan_theta": parse(inp["scan_theta"]),
            "psis": [realfield.psi_parse(s) for s in inp["psis"]],
            "cf_theta": parse(inp["cf_theta"]),
            "legendre": [parse(s) for s in inp["legendre"]],
            "literal": parse(inp["literal"])}


def _scan_run(p: dict) -> dict:
    scans = [[diophantine.approximability_scan(p["scan_theta"], psi, M)
              for psi in p["psis"]] for M in p["scan_bounds"]]
    try:
        cf = diophantine.cf_expand(p["cf_theta"], p["cf_terms"])
    except diophantine.PrecisionExhausted as e:
        # criterion 7: the certified prefix is the result
        cf = e.partial
    base = diophantine.irrationality_base_estimate(cf)
    legendre = [diophantine.legendre_hits(th, p["legendre_M"])
                for th in p["legendre"]]
    literal = diophantine.legendre_hits(p["literal"], p["literal_M"])
    return {"prepared": p, "scans": scans, "cf": cf, "base": base,
            "legendre": legendre, "literal": literal}


def _scan_rows(out: dict) -> list[str]:
    rows = []
    for M, pair in zip(out["prepared"]["scan_bounds"], out["scans"]):
        for psi, sc in zip(out["prepared"]["psis"], pair):
            rows.append(f"scan,{psi.text},{M},{sc.certified_to},"
                        f"{sc.fast_path_from},{len(sc.events)}")
            rows += [f"{e.m},{int(e.hit)},{int(e.is_convergent)}"
                     for e in sc.events]
    # quotients of a Liouville number outgrow int -> str limits: hex
    rows.append("cf," + ",".join(format(q, "x") for q in out["cf"].quotients))
    b = out["base"]
    rows.append(f"base,{fmt(b.estimate)},{fmt(b.low)},{fmt(b.high)},{b.k_used}")
    rows += ["legendre," + ",".join(map(str, h)) for h in out["legendre"]]
    rows.append("literal," + ",".join(map(str, out["literal"])))
    return rows


def _scan_exact(out: dict) -> dict:
    return {"scan_hits": [[sc.hits for sc in pair] for pair in out["scans"]],
            "certified_to": [[sc.certified_to for sc in pair]
                             for pair in out["scans"]],
            "scan_events": [[len(sc.events) for sc in pair]
                            for pair in out["scans"]],
            "legendre_hits": out["legendre"],
            "literal_hits": out["literal"]}


def _denominators(theta, M: int, K: int = 60) -> list[int]:
    cf = theta.continued_fraction(K)
    return sorted({c.m for c in diophantine.convergents(cf) if c.m <= M})


def _scan_invariants(inp: dict, out: dict) -> list[tuple[str, bool]]:
    p = out["prepared"]
    checks = []
    for M, (sc15, sc3) in zip(p["scan_bounds"], out["scans"]):
        checks += [
            (f"exp:1.5 hits include 16 and 65536 (M={M})",
             {16, 65536} <= set(sc15.hits)),
            (f"exp:1.5 certified_to == M (M={M})", sc15.certified_to == M),
            (f"exp:3 hits are all <= 4 (M={M})",
             all(m <= 4 for m in sc3.hits)),
        ]
    checks.append(("irrationality base within 15% of 2",
                   abs(out["base"].estimate - 2.0) / 2.0 < 0.15))
    for th, hits in zip(p["legendre"], out["legendre"]):
        checks.append((f"Legendre hits of {th.spec} equal its convergent "
                       f"denominators", hits == _denominators(th, p["legendre_M"])))
    # generic path, by Legendre: a hit m reduces to a convergent denominator
    # m_k, with m = g m_k and g^2 < 1 / (2 m_k ||m_k theta||), so the hits
    # among multiples of m_k are g = 1, 2, ... up to the first miss
    lit, M = p["literal"], p["literal_M"]
    qualify = set()
    for mk in _denominators(lit, M, len(lit.cf) - 1):
        m = mk
        while m <= M and diophantine.nearest_distance(lit, m) < 1.0 / (2 * m):
            qualify.add(m)
            m += mk
    checks.append(("cf literal hits are the multiples of convergent "
                   "denominators that meet 1/(2m)",
                   out["literal"] == sorted(qualify)))
    return checks


# ---------------------------------------------------------------------------
# mean_square_tong
# ---------------------------------------------------------------------------

QN_TERMS = 10_000
POINT_QUERIES = 8


def _tong_inputs(seed: int) -> dict:
    rng = _rng("mean_square_tong", seed)
    # one x per equal log10-stratum of [1e11, 1e12]: summatory_D costs
    # O(sqrt x), and stratifying keeps the sum of sqrt(x) nearly constant
    u = ([0.5] * POINT_QUERIES if seed == 0
         else [rng.random() for _ in range(POINT_QUERIES)])
    xs = [10.0 ** (11 + (i + ui) / POINT_QUERIES) for i, ui in enumerate(u)]
    return {"tong_limit": 2_000_000, "X": 1e6, "xs": xs, "qn_terms": QN_TERMS,
            "check_n": _check_points(rng, QN_TERMS)}


def _tong_run(p: dict) -> dict:
    # `divcorr verify --suite tong`: the oracle and mean_square each sieve
    est, low, high = divisor.tong_ratio_oracle(p["tong_limit"])
    ms = divisor.mean_square(p["X"])
    # `divcorr delta --x x --voronoi-n 10000` per point
    table = divisor.sieve_tau(p["qn_terms"])
    deltas = [divisor.delta_sample(x) for x in p["xs"]]
    qs = [voronoi.q_n(x, p["qn_terms"], table) for x in p["xs"]]
    return {"tong": (est, low, high), "mean_square": ms, "table": table,
            "deltas": deltas, "qs": qs, "X": p["X"]}


def _tong_rows(out: dict) -> list[str]:
    rows = ["tong," + ",".join(map(fmt, out["tong"])),
            f"mean_square,{fmt(out['X'])},{fmt(out['mean_square'])}"]
    rows += [f"{fmt(d.x)},{d.d_value},{fmt(d.delta)},{fmt(q)}"
             for d, q in zip(out["deltas"], out["qs"])]
    return rows


def _tong_exact(out: dict) -> dict:
    return {"D": [d.d_value for d in out["deltas"]]}


def _tong_invariants(inp: dict, out: dict) -> list[tuple[str, bool]]:
    est, low, high = out["tong"]
    ratio = out["mean_square"] / out["X"] ** 1.5
    cd = out["table"].cumulative()
    return [
        # the check of `divcorr verify --suite tong`
        ("mean_square inside the Tong bracket",
         abs(ratio - est) / est < 0.10 and low * 0.9 < ratio < high * 1.1),
        ("summatory_D equals the sieve's cumulative",
         all(divisor.summatory_D(n) == int(cd[n]) for n in inp["check_n"])),
        # |Delta(x)| / x^{1/4} stays below about 3 up to 1e12; x^{1/3} is
        # ~10 x^{1/4} there, and an off-by-one in D costs ~sqrt(x)
        ("|Delta(x)| < x^(1/3) at the point queries",
         all(abs(d.delta) < d.x ** (1 / 3) for d in out["deltas"])),
    ]


WORKLOADS = {w.name: w for w in (
    Workload(
        "decorrelation_grid",
        "criterion 8: I_theta on [1e4, 1e6] x 12 for three thetas sharing one "
        "sieve; the correlation sweep does ~3/4 of the work, the sieve the rest",
        _grid_inputs, _grid_prepare, _grid_run, _grid_rows, _grid_exact,
        _grid_invariants),
    Workload(
        "spectral_compare",
        "criterion 9: exact I against the spectral sum J at X = 1e5 with 2 "
        "threads; spectral_j is ~90% of the work, the one voronoi workload",
        _spectral_inputs, _spectral_prepare, _spectral_run, _spectral_rows,
        _spectral_exact, _spectral_invariants),
    Workload(
        "liouville_scan",
        "criteria 6 and 7: certified big-integer scans in diophantine and "
        "realfield with no numpy; the only workload for those two layers",
        _scan_inputs, _scan_prepare, _scan_run, _scan_rows, _scan_exact,
        _scan_invariants),
    Workload(
        "mean_square_tong",
        "verify --suite tong plus delta and q_n queries: the one workload "
        "where divisor (two sieves, mean_square, the hyperbola) dominates",
        _tong_inputs, dict, _tong_run, _tong_rows, _tong_exact,
        _tong_invariants),
)}
