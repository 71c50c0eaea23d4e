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

from . import __version__
from .checks import SUITES
from .correlation import (CSV_HEADER, compare_spectral, correlate_grid,
                          fit_exponent, result_csv_row, results_json)
from .diophantine import (ContinuedFraction, JarnikTheta, TauBetaTheta, Theta,
                          cf_expand, convergent_invariants, convergents,
                          nearest_distance, theta_parse)
from .divisor import delta, sieve_tau
from .errors import (ConstructionInfeasible, PrecisionExhausted, PsiParseError,
                     ResourceLimit, ThetaParseError)
from .realfield import _fmt, _fmt_int, fraction_to_mpf, log2_ratio, psi_parse
from .voronoi import q_n

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_PRECISION = 4


def _emit(line=""):
    sys.stdout.write(line + "\n")


def _emit_header(args):
    _emit(f"# divcorr v{__version__} precision_bits={args.precision_bits} "
          f"threads={args.threads} out_format={args.out_format} "
          f"seed={args.seed} command={args.command}")


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------


def cmd_delta(args) -> int:
    x = args.x
    d = delta(x)
    _emit_header(args)
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


#: the largest m, in bits, whose distance the cf table resolves.  A row's
#: nearest_distance takes time in proportion to m's bits, and a Jarnik
#: construction's m doubles its bits each row, so the rows past this print
#: unresolved.  Every golden row lies below it (65537 bits at most).
_DIST_BITS = 1 << 17


def _print_cf_table(theta: Theta, cf: ContinuedFraction):
    _emit("k,a_k,n_k,m_k,dist_mk_theta")
    for c in convergents(cf):
        dist = "unresolved"
        if c.m.bit_length() <= _DIST_BITS:
            try:
                dist = _fmt(nearest_distance(theta, c.m))
            except PrecisionExhausted:
                pass
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


def cmd_cf(args) -> int:
    if args.construct:
        theta = theta_parse(args.construct)
        if not isinstance(theta, (TauBetaTheta, JarnikTheta)):
            raise ValueError(
                f"unknown constructor {theta.spec!r} (taubeta/jarnik)")
        _emit_header(args)
        if isinstance(theta, TauBetaTheta):
            d = theta.depth  # the table's depth-term sum, not float(theta)
            value = fraction_to_mpf(theta.partial_sum(d), args.precision_bits)
            _emit("beta,depth,value,tail_log2")
            _emit(f"{theta.a}/{theta.b},{d},{_fmt(value)},"
                  f"{_fmt(theta.tail_log2(d))}")
            _emit("term,exponent")
            for i in range(1, d + 1):
                _emit(f"{i},{theta.tower(i)}")
            return EXIT_OK
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

    if not args.theta:
        raise ValueError("cf needs --theta or --construct")
    theta = theta_parse(args.theta)
    if args.terms < 1:
        raise ValueError("--terms must be >= 1")
    try:
        cf, note = cf_expand(theta, args.terms - 1), None
    except PrecisionExhausted as e:
        cf, note = e.partial, e
    _emit_header(args)
    if note is not None:
        _emit(f"# note: {note}")
        if cf is None:
            return EXIT_PRECISION
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


def _psi_arg(text: str | None, X: float):
    """The --psi function, or None without one.  Raises before any work or
    output unless psi^{-1}(X^{1/4}), which the psi columns read at X and
    above, is defined: X >= psi(1)^4."""
    if not text:
        return None
    psi = psi_parse(text)
    try:
        psi.inverse(X ** 0.25)
    except ValueError:
        raise ValueError(f"--psi {text} needs X >= psi(1)^4 = "
                         f"{_fmt(float(psi.eval(1) ** 4))}, got X = {_fmt(X)}"
                         ) from None
    return psi


def cmd_correlate(args) -> int:
    theta = theta_parse(args.theta)
    psi = _psi_arg(args.psi, args.xmin)
    results = correlate_grid(theta, args.xmin, args.xmax, args.points,
                             threads=args.threads)
    fit = fit_exponent(results) if args.fit else None
    _emit_header(args)
    if args.out_format == "json":
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


def cmd_verify(args) -> int:
    _emit_header(args)
    checks = SUITES[args.suite](args.seed)
    for c in checks:
        _emit(str(c))
    ok = all(c.ok for c in checks)
    _emit(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# compare (exact vs spectral)
# ---------------------------------------------------------------------------


def cmd_compare(args) -> int:
    theta = theta_parse(args.theta)
    psi = _psi_arg(args.psi, args.x)
    _emit_header(args)
    cmp = compare_spectral(theta, args.x, psi=psi, threads=args.threads,
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
    if args.precision_bits < 53 or args.threads < 1:
        parser.error("precision-bits must be >= 53 and threads >= 1")
    if args.out_format == "json" and args.command != "correlate":
        parser.error("--format json applies to correlate only")
    try:
        return _COMMANDS[args.command](args)
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
