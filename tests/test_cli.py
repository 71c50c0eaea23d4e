import json
import math
import re

import pytest

from divcorr import cli
from divcorr.cli import main
from divcorr.diophantine import theta_parse
from divcorr.divisor import sieve_tau
from divcorr.realfield import _fmt
from divcorr.voronoi import SpectralParams, spectral_j


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_delta_basic(capsys):
    code, out, _ = run(capsys, "delta", "--x", "100")
    assert code == 0
    assert out.startswith("# divcorr v")
    assert "6.0398484" in out


def test_precision_bits_comes_from_the_flag_only(capsys, monkeypatch):
    # every stdout header carries precision_bits; no environment variable
    # may change it behind the flag
    monkeypatch.setenv("DIVCORR_PRECISION_BITS", "128")
    _, out, _ = run(capsys, "delta", "--x", "2")
    assert " precision_bits=256 " in out.splitlines()[0]
    _, out, _ = run(capsys, "--precision-bits", "128", "delta", "--x", "2")
    assert " precision_bits=128 " in out.splitlines()[0]


def test_delta_with_voronoi(capsys):
    code, out, _ = run(capsys, "delta", "--x", "100.5", "--voronoi-n", "4000")
    assert code == 0
    assert "gap" in out
    last = out.strip().splitlines()[-1].split(",")
    assert float(last[-1]) < 0.5


def test_delta_domain_error(capsys):
    code, out, err = run(capsys, "delta", "--x", "0.5")
    assert code == 2
    assert "must be >= 1" in err


def test_cf_surd(capsys):
    code, out, _ = run(capsys, "cf", "--theta", "surd:2", "--terms", "10")
    assert code == 0
    assert "9,2,3363,2378," in out
    assert "determinant,True" in out


def test_cf_rejects_rational(capsys):
    code, _, err = run(capsys, "cf", "--theta", "rat:22/7")
    assert code == 2
    assert "cf_expand requires an irrational theta, got rat:22/7" in err


def test_cf_construct_taubeta(capsys):
    code, out, _ = run(capsys, "cf", "--construct", "taubeta:2/1:4")
    assert code == 0
    assert "0.8125152587890625" in out
    assert "4,16" in out


def test_cf_construct_jarnik(capsys):
    code, out, _ = run(capsys, "cf", "--construct", "jarnik:expexp:6")
    assert code == 0
    assert "target_met" in out
    assert ",True" in out.strip().splitlines()[-1]


def jarnik_rows(capsys, spec):
    code, out, _ = run(capsys, "cf", "--construct", spec)
    assert code == 0
    lines = out.splitlines()
    start = lines.index("k,m_k,log2_m_next,log2_psi_mk,target_met") + 1
    return [line.split(",") for line in lines[start:]]


@pytest.mark.parametrize("spec,met", [
    ("jarnik:pow:3:7", lambda m, n: n >= m**3),
    ("jarnik:pow:3:9", lambda m, n: n >= m**3),
    ("jarnik:exp:7/5:10", lambda m, n: 5**m * n >= 7**m),
    # m^(5/2) is irrational: n >= m^(5/2) <=> n^2 >= m^5
    ("jarnik:pow:5/2:8", lambda m, n: n**2 >= m**5),
    # n >= 3 m^(7/3) <=> n^3 >= 27 m^7
    ("jarnik:scale:3:pow:7/3:8", lambda m, n: n**3 >= 27 * m**7),
])
def test_cf_jarnik_target_met_is_exact(capsys, spec, met):
    rows = jarnik_rows(capsys, spec)
    assert len(rows) >= 5
    # every row but the last has its m_{k+1} printed on the next row
    for row, nxt in zip(rows, rows[1:]):
        assert met(int(row[1]), int(nxt[1]))
        assert row[4] == "True"


def test_cf_distances_stop_at_the_bit_budget(capsys, monkeypatch):
    # jarnik:pow:3:7's m_k have 1, 1, 2, 4, 10, 29, 86 and 257 bits
    def dist_rows():
        code, out, _ = run(capsys, "cf", "--construct", "jarnik:pow:3:7")
        assert code == 0
        lines = out.splitlines()
        start = lines.index("k,a_k,n_k,m_k,dist_mk_theta") + 1
        end = lines.index("k,m_k,log2_m_next,log2_psi_mk,target_met")
        return [line.split(",") for line in lines[start:end]]
    full = dist_rows()
    monkeypatch.setattr(cli, "_DIST_BITS", 20)
    cut = dist_rows()
    # m_7 is past what the construction's own enclosure resolves
    assert "unresolved" not in [row[4] for row in full[:7]]
    assert [row[4] for row in cut[5:]] == ["unresolved"] * 3
    assert cut[:5] == full[:5]
    assert [row[:4] for row in cut] == [row[:4] for row in full]


def test_cf_jarnik_log2_psi_above_2_53(capsys):
    row = jarnik_rows(capsys, "jarnik:pow:3:7")[4]
    m = int(row[1])
    assert row[0] == "6" and m > 2**53
    # floor(log2 m) would print 255
    assert float(row[3]) == pytest.approx(3 * math.log2(m), abs=1e-9)
    assert abs(float(row[3]) - 256.87) < 0.01


def test_cf_deep_tau_beta(capsys):
    # log2_err is about -4.46e12: no radius 2^err may be built
    code, out, _ = run(capsys, "cf", "--theta", "taubeta:3/2:3", "--terms", "5")
    assert code == 0
    assert out.endswith("determinant,True\nalternation,True\nsandwich,True\n"
                        "fibonacci,True\n")


@pytest.mark.parametrize("argv", [
    ("cf", "--theta", "taubeta:2/1:5", "--terms", "20"),
    ("cf", "--construct", "jarnik:pow:3:11"),
])
def test_cf_tables_print_huge_integers_in_hex(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    big = 0
    for line in out.splitlines():
        for cell in line.split(","):
            if cell.startswith("0x"):
                assert int(cell, 0) >= 10**4300
                big += 1
            elif cell.isdigit():
                assert len(cell) <= 4300
    assert big > 0


def test_cf_construct_rejects_plain_theta(capsys):
    code, _, err = run(capsys, "cf", "--construct", "surd:2")
    assert code == 2
    assert "unknown constructor" in err


def test_cf_parse_error_position(capsys):
    code, _, err = run(capsys, "cf", "--theta", "surd:x")
    assert code == 2
    assert "position" in err


def test_correlate_csv_and_fit(capsys):
    code, out, _ = run(capsys, "correlate", "--theta", "rat:2/1",
                       "--xmin", "100", "--xmax", "2000", "--points", "4",
                       "--fit")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "theta_spec,X,I,I_over_X32,method,breakpoints_used"
    assert len([l for l in lines if l.startswith("rat:2/1,")]) == 4
    assert any(l.startswith("fit_slope,") for l in lines)


def correlate_rows(capsys, spec, xmax, points):
    """The split data rows of `correlate --theta spec` from 1e3 to xmax."""
    code, out, _ = run(capsys, "--threads", "1", "correlate", "--theta", spec,
                       "--xmin", "1e3", "--xmax", xmax, "--points", points)
    assert code == 0
    return [line.split(",") for line in out.splitlines()[2:]]


def test_correlate_coarse_decimal_literal(capsys):
    # dec:2 is trusted only to +-1, yet its double is its written value, so
    # its rows are those of dec:2.0 but for the theta_spec column
    coarse = correlate_rows(capsys, "dec:2", "1e4", "3")
    assert [r[0] for r in coarse] == ["dec:2"] * 3
    assert ([r[1:] for r in coarse]
            == [r[1:] for r in correlate_rows(capsys, "dec:2.0", "1e4", "3")])


def test_correlate_tau_beta_depth_names_one_theta(capsys):
    # depth sizes only the cf --construct table: taubeta:2/1:1 integrates
    # the series, as :4 does, not its one-term sum 0.5
    shallow = correlate_rows(capsys, "taubeta:2/1:1", "1e5", "6")
    deep = correlate_rows(capsys, "taubeta:2/1:4", "1e5", "6")
    assert [r[0] for r in shallow] == ["taubeta:2/1:1"] * 6
    assert [r[1:] for r in shallow] == [r[1:] for r in deep]


def test_correlate_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "correlate", "--theta",
                       "surd:2", "--xmin", "100", "--xmax", "1000",
                       "--points", "3")
    assert code == 0
    body = out.partition("\n")[2]
    doc = json.loads(body)
    assert len(doc["results"]) == 3


def test_correlate_deterministic_across_threads(capsys):
    argv = ["correlate", "--theta", "surd:2", "--xmin", "500",
            "--xmax", "5000", "--points", "5"]
    _, out1, _ = run(capsys, "--threads", "1", *argv)
    _, out4, _ = run(capsys, "--threads", "4", *argv)
    strip = lambda s: re.sub(r"threads=\d+", "threads=N", s)
    assert strip(out1) == strip(out4)
    # data rows themselves are identical bytes
    assert out1.splitlines()[1:] == out4.splitlines()[1:]


def test_compare_runs(capsys):
    code, out, _ = run(capsys, "compare", "--theta", "surd:2", "--x", "100")
    assert code == 0
    assert "disc_over_X118" in out


def compare_row(capsys, *flags):
    code, out, _ = run(capsys, "compare", "--theta", "surd:2", "--x", "1e4",
                       *flags)
    assert code == 0
    return out.splitlines()[2].split(",")


def test_compare_overrides_n_and_t(capsys):
    row = compare_row(capsys, "--n", "100", "--t", "30")
    assert row[1:3] == ["100", "30"]
    rep = spectral_j(theta_parse("surd:2"), SpectralParams(1e4, 100, 30.0),
                     sieve_tau(100))
    assert row[4:7] == [_fmt(rep.J_total), _fmt(rep.D_lower),
                        _fmt(rep.D_upper)]
    # --t alone keeps the default N = X^{3/4}
    assert compare_row(capsys, "--t", "30")[1:3] == ["1000", "30"]


@pytest.mark.parametrize("argv", [
    ("correlate", "--theta", "surd:2", "--psi", "exp:3", "--xmin", "10",
     "--xmax", "1e4", "--points", "4"),
    ("compare", "--theta", "surd:2", "--psi", "exp:3", "--x", "10"),
    ("--format", "json", "correlate", "--theta", "surd:2", "--psi", "exp:3",
     "--xmin", "10", "--xmax", "1e4", "--points", "4"),
], ids=["correlate", "compare", "correlate-json"])
def test_psi_below_its_domain_prints_nothing(capsys, argv):
    # psi^{-1}(X^{1/4}) needs X >= psi(1)^4 = 3^4: the command stops before
    # the sweep and the header, and names the least admissible X
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "--psi exp:3 needs X >= psi(1)^4 = 81, got X = 10" in err


@pytest.mark.parametrize("argv, msg", [
    (("cf", "--theta", "rat:22/7"),
     "cf_expand requires an irrational theta, got rat:22/7"),
    (("cf", "--theta", "surd:2", "--terms", "0"), "--terms must be >= 1"),
    (("cf", "--construct", "surd:2"), "unknown constructor 'surd:2'"),
    (("compare", "--theta", "bogus", "--x", "10"),
     "unknown theta spec 'bogus'"),
    (("cf",), "cf needs --theta or --construct"),
    (("cf", "--construct", "jarnik:pow:1:5"), "construction infeasible: "),
], ids=["cf-rational", "cf-terms", "cf-construct", "compare-theta",
        "cf-no-theta", "cf-infeasible"])
def test_usage_error_prints_nothing(capsys, argv, msg):
    # theta is parsed and checked (for cf, expanded) before the header, so
    # a usage error leaves stdout empty rather than a lone header
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert msg in err


@pytest.mark.parametrize("argv, msg", [
    (("--threads", "0", "delta", "--x", "2"), "threads >= 1"),
    (("--precision-bits", "52", "delta", "--x", "2"), "must be >= 53"),
    (("--format", "json", "delta", "--x", "2"),
     "--format json applies to correlate only"),
    (("--format", "json", "compare", "--theta", "surd:2", "--x", "100"),
     "--format json applies to correlate only"),
], ids=["threads", "precision-bits", "json-delta", "json-compare"])
def test_global_flag_errors_exit_2_before_any_output(capsys, argv, msg):
    with pytest.raises(SystemExit) as ei:
        main(list(argv))
    out = capsys.readouterr()
    assert (ei.value.code, out.out) == (2, "")
    assert msg in out.err


def test_cf_with_no_certified_quotient_prints_only_the_note(capsys):
    # dec:1 is trusted only to +-1: not even a0 is certified
    code, out, _ = run(capsys, "cf", "--theta", "dec:1")
    lines = out.splitlines()
    assert code == 4 and len(lines) == 2
    assert lines[0].startswith("# divcorr v")
    assert lines[1].startswith("# note: ")


def test_verify_lambda(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lambda")
    assert code == 0
    assert "suite lambda: PASS" in out


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as ei:
        run(capsys, "verify", "--suite", "nope")
    assert ei.value.code == 2


def test_resource_cap_exit_code(capsys):
    code, _, err = run(capsys, "correlate", "--theta", "rat:2/1",
                       "--xmin", "100", "--xmax", "5e8", "--points", "3")
    assert code == 3
    assert "cap" in err


def test_header_records_config(capsys):
    _, out, _ = run(capsys, "--precision-bits", "128", "--seed", "9",
                    "delta", "--x", "2")
    head = out.splitlines()[0]
    assert "precision_bits=128" in head and "seed=9" in head


def test_precision_exhausted_exit_code(capsys):
    code, _, err = run(capsys, "cf", "--construct", "taubeta:2/1:9")
    assert code == 4
    assert "max safe depth" in err
