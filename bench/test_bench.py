"""Tests of the benchmark itself: span arithmetic, the wrappers, the output
gate, the speed probe and the seeded inputs.  They run no workload pass."""

import dataclasses
import math
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import divcorr
from divcorr import correlation, diophantine, divisor, voronoi
from divcorr.correlation import CorrelationResult, ExponentFit

import gate
import run
import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent


def _span(sid, parent, t0, t1, name="x"):
    return spans.Span(sid, parent, name, 0, t0, t1)


def test_self_time_subtracts_the_union_of_children():
    # children overlap (two pool threads) and one pokes out of its parent;
    # the grandchild counts only against its own parent
    s = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 3.0),
         _span(2, 0, 2.0, 5.0), _span(3, 0, 7.0, 8.0), _span(4, 0, 9.5, 12.0),
         _span(5, 2, 2.5, 4.5)]
    selfs = spans.self_times(s)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert selfs[2] == pytest.approx(3.0 - 2.0)
    assert selfs[5] == pytest.approx(2.0)


def test_covered_handles_nested_and_disjoint_intervals():
    assert spans.covered(0, 10, []) == 0
    assert spans.covered(0, 10, [(1, 9), (2, 3)]) == pytest.approx(8)
    assert spans.covered(0, 10, [(-5, -1), (11, 12)]) == 0


@pytest.fixture
def recorder():
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        yield rec
    finally:
        spans.uninstall(undo)


def test_install_patches_every_binding_and_uninstall_restores():
    original = divisor.sieve_tau
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        assert divisor.sieve_tau is not original
        assert correlation.sieve_tau is divisor.sieve_tau
        assert divcorr.sieve_tau is divisor.sieve_tau
        assert divcorr.PsiFunction.__call__ is divcorr.PsiFunction.eval
    finally:
        spans.uninstall(undo)
    assert divisor.sieve_tau is original
    assert correlation.sieve_tau is original
    assert divcorr.PsiFunction.__call__ is divcorr.PsiFunction.eval


def test_untraced_calls_record_nothing(recorder):
    divisor.sieve_tau(100)
    assert recorder.spans == []


def test_spans_nest_through_module_globals(recorder):
    recorder.begin(run=3)
    divisor.mean_square(50.5)  # sieves through the divisor module global
    recorder.end()
    by_name = {s.name: s for s in recorder.spans}
    ms, sv = by_name["divisor.mean_square"], by_name["divisor.sieve_tau"]
    cu = by_name["divisor.DivisorTable.cumulative"]
    assert sv.parent == cu.parent == ms.sid and ms.parent is None
    assert {s.run for s in recorder.spans} == {3}
    assert sv.attrs == {"entries": 50}
    m = spans.layer_metrics(recorder.spans)
    assert m["divisor.sieve_entries"] == 50
    assert m["divisor.mean_square_s"] == pytest.approx(
        (ms.t1 - ms.t0) - (sv.t1 - sv.t0) - (cu.t1 - cu.t0), abs=1e-12)


def test_pool_thread_spans_belong_to_the_caller(recorder):
    theta = diophantine.theta_parse("surd:2")
    table = divisor.sieve_tau(100)
    params = voronoi.SpectralParams(X=100.0, N=40, T=math.inf)
    recorder.begin(run=0)
    voronoi.spectral_j(theta, params, table, threads=2)
    recorder.end()
    (sj,) = [s for s in recorder.spans if s.name == "voronoi.spectral_j"]
    lam = [s for s in recorder.spans if s.name == "voronoi.lambda_kernel"]
    assert len(lam) == 40 and all(s.parent == sj.sid for s in lam)
    m = spans.layer_metrics(recorder.spans)
    assert m["voronoi.terms"] == 1600 and m["voronoi.lambda_calls"] == 40


def test_alloc_peak_is_taken_per_span():
    rec = spans.Recorder(alloc=True)
    undo = spans.install(rec)
    tracemalloc.start()
    try:
        rec.begin(run=0)
        divisor.mean_square(200_000.0)
        rec.end()
    finally:
        tracemalloc.stop()
        spans.uninstall(undo)
    by_name = {s.name: s for s in rec.spans}
    sieve = by_name["divisor.sieve_tau"].peak_bytes
    assert sieve >= 200_000 * np.dtype(np.int32).itemsize
    assert by_name["divisor.mean_square"].peak_bytes >= sieve
    peaks = spans.alloc_metrics(rec.spans)
    assert peaks["divisor.peak_alloc_mb"] >= sieve / 2 ** 20
    assert peaks["correlation.peak_alloc_mb"] == 0


def _grid_outputs(I=1234.5):
    theta = diophantine.theta_parse("rat:2/1")
    grid = [CorrelationResult(theta, 1e4, I, "exact", 29996),
            CorrelationResult(theta, 1e6, 2 * I, "exact", 3000007)]
    fit = ExponentFit(1.5, -0.25, 0.01, 2, 0)
    return {"grids": [grid], "fits": [fit]}


def test_gate_fails_a_perturbed_row():
    wl = dataclasses.replace(workloads.WORKLOADS["decorrelation_grid"],
                             invariants=lambda inp, out: [])
    pins = {wl.name: gate.pin(wl, _grid_outputs())}
    assert all(ok for _, ok in gate.check(wl, 0, {}, _grid_outputs(), pins))
    one_ulp = _grid_outputs(I=math.nextafter(1234.5, math.inf))
    failed = [n for n, ok in gate.check(wl, 0, {}, one_ulp, pins) if not ok]
    assert failed == ["rows match the pinned seed-0 checksum"]
    # other seeds are held to the invariants only
    assert gate.check(wl, 1, {}, one_ulp, pins) == []


def test_gate_fails_changed_exact_outputs():
    wl = dataclasses.replace(workloads.WORKLOADS["decorrelation_grid"],
                             invariants=lambda inp, out: [])
    pins = {wl.name: gate.pin(wl, _grid_outputs())}
    out = _grid_outputs()
    out["grids"][0][0] = dataclasses.replace(out["grids"][0][0],
                                             breakpoints_used=29997)
    failed = [n for n, ok in gate.check(wl, 0, {}, out, pins) if not ok]
    assert "exact outputs match the pinned seed-0 values" in failed


def test_every_workload_is_pinned():
    assert set(gate.load_pins()) == set(workloads.WORKLOADS) == set(run.WORKLOADS)


def test_seed_zero_is_the_acceptance_shape_and_seeds_repeat():
    W = workloads.WORKLOADS
    assert W["decorrelation_grid"].make_inputs(0)["thetas"] == [
        "rat:2/1", "surd:2", "taubeta:2/1:4"]
    assert W["liouville_scan"].make_inputs(0)["scan_bounds"][0] == 2 ** 16
    assert W["liouville_scan"].make_inputs(0)["legendre"] == ["surd:2", "golden"]
    for name, wl in W.items():
        for seed in range(20):
            assert wl.make_inputs(seed) == wl.make_inputs(seed), name
    for seed in range(1, 50):
        M, mirror = W["liouville_scan"].make_inputs(seed)["scan_bounds"]
        assert 2 ** 16 <= M < 2 ** 17 and 2 ** 16 <= mirror < 2 ** 17
        xs = W["mean_square_tong"].make_inputs(seed)["xs"]
        assert all(1e11 <= x <= 1e12 for x in xs)


def test_surd_draws_keep_the_legendre_invariant():
    # every d drawn has all partial quotients >= 2 after a0
    for seed in range(50):
        spec = workloads.WORKLOADS["liouville_scan"].make_inputs(seed)["legendre"][0]
        cf = diophantine.theta_parse(spec).continued_fraction(30)
        assert min(cf.quotients[1:]) >= 2, spec


def test_reference_factor_weights_each_sample_by_its_interval():
    # 1 s at the reference speed, then 3 s at half of it
    samples = [(1.0, speed.REF_S), (3.0, 2 * speed.REF_S)]
    assert speed.reference_factor(samples) == pytest.approx(2.5 / 4)
    assert run.scaled([2.0, 4.0], [0.5, 0.25]) == [1.0, 1.0]


def test_probe_samples_while_started_and_restores_the_signal():
    probe = speed.Probe()
    probe.start(interval=0.005)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.1:
        sum(range(1000))
    wall, cpu, factor = probe.stop(extra=3)
    t1 = time.perf_counter()
    inside = probe.samples[:-3]
    assert len(inside) >= 5
    # the tail samples are not handler time inside the span
    assert cpu == pytest.approx(sum(k for _, k in inside))
    assert 0 < cpu <= wall < 0.1
    # the intervals and the handler's time make up the span
    ran = sum(d for d, _ in probe.samples)
    assert 0.1 - wall <= ran <= t1 - t0 - wall
    assert factor == speed.reference_factor(probe.samples) > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_run_refuses_a_directory_without_the_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "liouville_scan",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
