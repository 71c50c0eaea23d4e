"""Command-line front end: reproducible, machine-readable access to every
pipeline stage.

Exit codes: 0 success, 1 check failure, 2 usage/domain error, 3 resource
limit, 4 precision exhausted.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

from . import __version__
from .checks import SUITES
from .correlation import (CSV_HEADER, compare_spectral, correlate_grid,
                          fit_exponent, result_csv_row, results_json)
from .diophantine import (ContinuedFraction, JarnikTheta, TauBetaTheta, Theta,
                          construct_tau_beta, convergent_invariants,
                          convergents, nearest_distance, theta_parse)
from .divisor import delta, sieve_tau
from .errors import (ConstructionInfeasible, PrecisionExhausted, PsiParseError,
                     ResourceLimit, ThetaParseError)
from .realfield import _fmt, _fmt_int, log2_ratio, psi_parse
from .voronoi import q_n

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_PRECISION = 4


@dataclass(frozen=True)
class RunConfig:
    precision_bits: int
    threads: int
    out_format: str
    seed: int

    def header(self, command: str) -> str:
        return (f"# divcorr v{__version__} precision_bits={self.precision_bits} "
                f"threads={self.threads} out_format={self.out_format} "
                f"seed={self.seed} command={command}")


def _emit(line=""):
    sys.stdout.write(line + "\n")


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------


def cmd_delta(cfg: RunConfig, args) -> int:
    x = args.x
    d = delta(x)
    _emit(cfg.header("delta"))
    if args.voronoi_n:
        N = args.voronoi_n
        table = sieve_tau(N)
        q = q_n(x, N, table)
        _emit("x,delta,q_N,N,gap")
        _emit(f"{_fmt(x)},{_fmt(d)},{_fmt(q)},{N},{_fmt(abs(d - q))}")
    else:
        _emit("x,delta")
        _emit(f"{_fmt(x)},{_fmt(d)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cf
# ---------------------------------------------------------------------------


def _print_cf_table(theta: Theta, cf: ContinuedFraction):
    _emit("k,a_k,n_k,m_k,dist_mk_theta")
    for c in convergents(cf):
        try:
            dist = _fmt(nearest_distance(theta, c.m))
        except PrecisionExhausted:
            dist = "unresolved"
        _emit(f"{c.k},{_fmt_int(cf.quotients[c.k])},{_fmt_int(c.n)},"
              f"{_fmt_int(c.m)},{dist}")


def _psi_target(psi, m: int, m_next: int) -> tuple[float, bool]:
    """(log2 psi(m), whether m_next >= psi(m)) for a row of the Jarnik table.

    The two sides of a constructed row agree to far below float resolution,
    so target_met is decided exactly (PsiFunction.at_most) wherever the
    family allows it, and in log2 only for expexp.
    """
    pq = psi.exact_pair(m)
    l2p = log2_ratio(*pq) if pq is not None else psi.log2(m)
    met = psi.at_most(m, m_next)
    return l2p, math.log2(m_next) >= l2p if met is None else met


def cmd_cf(cfg: RunConfig, args) -> int:
    _emit(cfg.header("cf"))
    if args.construct:
        theta = theta_parse(args.construct)
        if isinstance(theta, TauBetaTheta):
            t = construct_tau_beta(theta.a, theta.b, theta.depth)
            _emit("beta,depth,value,tail_log2")
            _emit(f"{t.a}/{t.b},{t.depth},{_fmt(t.value(cfg.precision_bits))},"
                  f"{_fmt(t.tail_log2(t.depth))}")
            _emit("term,exponent")
            for i in range(1, t.depth + 1):
                _emit(f"{i},{t.tower(i)}")
            return EXIT_OK
        if isinstance(theta, JarnikTheta):
            if theta.truncated is not None:
                _emit(f"# note: {theta.truncated}")
            psi, cf = theta.psi, theta.cf
            _print_cf_table(theta, cf)
            # a-posteriori approximability of the constructed convergents:
            # ||m_k theta|| < 1/m_{k+1} <= 1/psi(m_k) for k >= 2
            _emit("k,m_k,log2_m_next,log2_psi_mk,target_met")
            convs = convergents(cf)
            for k in range(2, len(convs)):
                if k + 1 < len(convs):
                    l2n = math.log2(convs[k + 1].m)
                    l2p, met = _psi_target(psi, convs[k].m, convs[k + 1].m)
                else:
                    # m_{k+1} is unbuilt: the construction makes it at least
                    # max(psi(m_k), m_k), so the target holds by construction
                    l2p = psi.log2(convs[k].m)
                    l2n = max(l2p, math.log2(convs[k].m))
                    met = True
                _emit(f"{k},{_fmt_int(convs[k].m)},{_fmt(l2n)},{_fmt(l2p)},"
                      f"{met}")
            return EXIT_OK
        raise ValueError(f"unknown constructor {theta.spec!r} (taubeta/jarnik)")

    if not args.theta:
        raise ValueError("cf needs --theta or --construct")
    theta = theta_parse(args.theta)
    if theta.is_rational:
        raise ValueError("cf requires an irrational theta "
                         f"(got {theta.spec}); rationals are only legal for "
                         "the correlation integral")
    K = args.terms - 1
    if K < 0:
        raise ValueError("--terms must be >= 1")
    try:
        cf = theta.continued_fraction(K)
    except PrecisionExhausted as e:
        _emit(f"# note: {e}")
        if e.partial is None:
            return EXIT_PRECISION
        cf = e.partial
    _print_cf_table(theta, cf)
    rep = convergent_invariants(theta, len(cf) - 1)
    _emit("invariant,ok")
    _emit(f"determinant,{rep.determinant_ok}")
    _emit(f"alternation,{rep.alternation_ok}")
    _emit(f"sandwich,{rep.sandwich_ok}")
    _emit(f"fibonacci,{rep.fibonacci_ok}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# correlate
# ---------------------------------------------------------------------------


def cmd_correlate(cfg: RunConfig, args) -> int:
    theta = theta_parse(args.theta)
    psi = psi_parse(args.psi) if args.psi else None
    results = correlate_grid(theta, args.xmin, args.xmax, args.points,
                             threads=cfg.threads)
    fit = fit_exponent(results) if args.fit else None
    _emit(cfg.header("correlate"))
    if cfg.out_format == "json":
        _emit(results_json(results, fit=fit, psi=psi))
        return EXIT_OK
    header = CSV_HEADER + (",psi_normalized" if psi else "")
    _emit(header)
    for r in results:
        _emit(result_csv_row(r, psi))
    if fit is not None:
        _emit("fit_slope,fit_intercept,rms_residual,points_used,sign_changes")
        _emit(f"{_fmt(fit.slope)},{_fmt(fit.intercept)},{_fmt(fit.rms_residual)},"
              f"{fit.points_used},{fit.sign_changes}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig, args) -> int:
    _emit(cfg.header("verify"))
    checks = SUITES[args.suite](cfg.seed)
    for c in checks:
        _emit(str(c))
    ok = all(c.ok for c in checks)
    _emit(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# compare (exact vs spectral)
# ---------------------------------------------------------------------------


def cmd_compare(cfg: RunConfig, args) -> int:
    _emit(cfg.header("compare"))
    psi = psi_parse(args.psi) if args.psi else None
    cmp = compare_spectral(args.theta, args.x, psi=psi, threads=cfg.threads,
                           N=args.n, T=args.t)
    _emit("X,N,T,I_exact,J_total,D_lower,D_upper,discrepancy,disc_over_X118")
    p = cmp.report.params
    _emit(",".join([_fmt(cmp.X), str(p.N), _fmt(p.T), _fmt(cmp.I_exact),
                    _fmt(cmp.report.J_total), _fmt(cmp.report.D_lower),
                    _fmt(cmp.report.D_upper), _fmt(cmp.discrepancy),
                    _fmt(cmp.ratio_x118)]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="divcorr",
        description="Divisor error term, Diophantine machinery, and "
                    "correlation experiments")
    p.add_argument("--precision-bits", type=int, default=256)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   dest="out_format")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled property checks")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("delta", help="exact error term, optionally vs the "
                                     "truncated oscillating sum")
    d.add_argument("--x", type=float, required=True)
    d.add_argument("--voronoi-n", type=int, default=0)

    c = sub.add_parser("cf", help="continued fraction tables and constructions")
    c.add_argument("--theta", type=str)
    c.add_argument("--terms", type=int, default=10)
    c.add_argument("--construct", type=str,
                   help="taubeta:a/b:depth or jarnik:<psi>:K")

    r = sub.add_parser("correlate", help="correlation integral over a grid")
    r.add_argument("--theta", type=str, required=True)
    r.add_argument("--xmin", type=float, required=True)
    r.add_argument("--xmax", type=float, required=True)
    r.add_argument("--points", type=int, required=True)
    r.add_argument("--fit", action="store_true")
    r.add_argument("--psi", type=str, default=None)

    m = sub.add_parser("compare", help="exact integral vs spectral sum")
    m.add_argument("--theta", type=str, required=True)
    m.add_argument("--x", type=float, required=True)
    m.add_argument("--psi", type=str, default=None)
    m.add_argument("--n", type=int, default=None, help="override N")
    m.add_argument("--t", type=float, default=None, help="override T")

    v = sub.add_parser("verify", help="invariant suites")
    v.add_argument("--suite", type=str, required=True,
                   choices=sorted(SUITES))
    return p


_COMMANDS = {
    "delta": cmd_delta,
    "cf": cmd_cf,
    "correlate": cmd_correlate,
    "compare": cmd_compare,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(precision_bits=args.precision_bits, threads=args.threads,
                    out_format=args.out_format, seed=args.seed)
    if cfg.precision_bits < 53 or cfg.threads < 1:
        parser.error("precision-bits must be >= 53 and threads >= 1")
    try:
        return _COMMANDS[args.command](cfg, args)
    except ResourceLimit as e:
        print(f"resource error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except PrecisionExhausted as e:
        print(f"precision exhausted: {e}", file=sys.stderr)
        return EXIT_PRECISION
    except ConstructionInfeasible as e:
        print(f"construction infeasible: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, PsiParseError, ThetaParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
