"""The check suites of `divcorr verify`, shared with the acceptance tests.

SUITES maps each suite name to a function seed -> list[Check].  Only the
sampled lambda checks read the seed, and each suite sieves its own table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diophantine import (cf_expand, convergent_invariants, convergents,
                          legendre_hits, nearest_distance, theta_parse)
from .divisor import mean_square, sieve_tau, tong_ratio_oracle
from .voronoi import SpectralParams, lambda_kernel, osc_integral, spectral_j


@dataclass(frozen=True)
class Check:
    name: str
    measured: object
    threshold: object
    ok: bool

    def __str__(self) -> str:
        return (f"{self.name}: measured={self.measured} "
                f"threshold={self.threshold} {'PASS' if self.ok else 'FAIL'}")


def _holds(name: str, ok: bool) -> Check:
    return Check(name, ok, True, ok)


def cf_suite(seed: int) -> list[Check]:
    """Convergent identities on 51 quotients of sqrt 2, sqrt 3 and golden,
    and on the constructible prefix of jarnik:expexp:6."""
    checks = []
    for spec in ("surd:2", "surd:3", "golden"):
        rep = convergent_invariants(theta_parse(spec), 50)
        checks.append(_holds(f"cf invariants {spec} K=50", rep.all_ok))
        if spec == "golden":
            checks.append(_holds("golden m_k = F_(k+1) exactly",
                                 rep.fibonacci_all_equal))
    jt = theta_parse("jarnik:expexp:6")
    K = len(jt.cf) - 1
    checks.append(_holds(f"cf invariants jarnik:expexp (K={K} within budget)",
                         convergent_invariants(jt, K).all_ok))
    return checks


def legendre_suite(seed: int) -> list[Check]:
    """Legendre hit sets up to M = 1e5 against the convergent data."""
    checks = []
    M = 10**5
    for spec in ("surd:2", "surd:3", "golden"):
        theta = theta_parse(spec)
        hits = legendre_hits(theta, M)
        convs = [c for c in convergents(cf_expand(theta, 60))
                 if c.m <= M]
        dens = sorted({c.m for c in convs})
        checks.append(_holds(f"legendre criterion {spec}: hits are convergent "
                             f"denominators", set(hits) <= set(dens)))
        # independent route: which convergents actually satisfy the bound
        qualify = sorted({c.m for c in convs
                          if nearest_distance(theta, c.m) < 1.0 / (2 * c.m)})
        checks.append(_holds(f"legendre hit set {spec} matches per-convergent "
                             f"distances", hits == qualify))
        if spec in ("surd:2", "golden"):
            checks.append(_holds(f"{spec}: every convergent denominator "
                                 f"qualifies", hits == dens))
        if spec == "surd:2":
            checks.append(_holds("sqrt2 denominator list",
                                 hits == [1, 2, 5, 12, 29, 70, 169, 408, 985,
                                          2378, 5741, 13860, 33461, 80782]))
    return checks


def lambda_suite(seed: int) -> list[Check]:
    """Lambda(0), the kernel/integral identity on 100 seeded draws, and the
    1/x decay of the kernel."""
    exact0 = lambda_kernel(0.0) == 1.0 / 3.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        a = float(10.0 ** rng.uniform(-2, 2))
        X = float(10.0 ** rng.uniform(0.1, 4))
        lhs = lambda_kernel(a * math.sqrt(X))
        rhs = osc_integral(a, X, "cos") / X**1.5 + lambda_kernel(a) / X**1.5
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    xs = np.linspace(1.0, 500.0, 20001)
    decay = float(np.max(np.abs(lambda_kernel(xs) * xs)))
    return [_holds("lambda(0) = 1/3 exactly", exact0),
            Check("kernel/integral identity rel err", f"{worst:.3g}", "1e-10",
                  worst < 1e-10),
            Check("kernel decay |L(x) x| on [1,500]", f"{decay:.4g}", "3.1",
                  decay <= 3.1)]


def spectral_suite(seed: int) -> list[Check]:
    """spectral_j for sqrt 2 at X = 16 against a naive double loop."""
    theta, X = theta_parse("surd:2"), 16.0
    table = sieve_tau(16)
    rep = spectral_j(theta, SpectralParams.default(X), table)
    th, N = float(theta), rep.params.N
    brute = 0.0
    for m in range(1, N + 1):
        for n in range(1, N + 1):
            u = 4 * math.pi * (math.sqrt(m * th) - math.sqrt(n)) * math.sqrt(X)
            brute += (table.tau(m) * table.tau(n) / (m * n) ** 0.75
                      * lambda_kernel(u))
    brute *= X**1.5 / (2 * math.pi**2)
    rel = abs(rep.J_total - brute) / abs(brute)
    return [Check("spectral sum vs naive double loop X=16", f"{rel:.3g}",
                  "1e-9", rel < 1e-9)]


def tong_suite(seed: int) -> list[Check]:
    """The mean square of Delta at X = 1e6 against Tong's series constant:
    within 10% of it, and inside its bracket widened by 10%."""
    est, low, high = tong_ratio_oracle(2_000_000)
    X = 10.0**6
    ratio = mean_square(X) / X**1.5
    rel = abs(ratio - est) / est
    return [Check("mean square ratio vs series oracle", f"{ratio:.6f}",
                  f"{est:.6f} +-10%",
                  rel < 0.10 and low * 0.9 < ratio < high * 1.1)]


SUITES = {
    "cf": cf_suite,
    "legendre": legendre_suite,
    "lambda": lambda_suite,
    "spectral": spectral_suite,
    "tong": tong_suite,
}
