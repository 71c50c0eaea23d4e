"""The divcorr benchmark, one workload per call, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it measures the end-to-end metrics with no wrappers
installed: set-up time in fresh processes, then timed passes in one more
process.  Times are reported in reference seconds: the speed probe
(speed.py) samples how fast the measuring thread runs while it is timed,
which keeps the slowdowns of a shared host out of the numbers.  With
``--trace 1`` it runs an untraced process, a traced one and a tracemalloc
pass, and reports the per-layer metrics.  Every pass's
outputs are checked (gate.py).  The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``; a full record with the
samples and the environment goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
#: the keys of workloads.WORKLOADS, named here so that this process never
#: imports the program (test_bench.py keeps the two in step)
WORKLOADS = ("decorrelation_grid", "spectral_compare", "liouville_scan",
             "mean_square_tong")

#: fresh processes that only set up, besides the one that measures
SETUP_PROBES = 6
#: every child must end within this many seconds of our start
DEADLINE_S = 170.0
#: one BLAS thread per process: with --threads 2 the total stays at nproc
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(deadline: float, **spec) -> dict:
    spec["t_spawn_ns"] = time.time_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{spec['mode']} process timed out") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{spec['mode']} process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled(times: list[float], factors: list[float]) -> list[float]:
    """Measured seconds -> reference seconds, each by its own factor."""
    return [t * f for t, f in zip(times, factors)]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    def probe():
        return run_child(deadline, workload=workload, seed=seed, mode="setup",
                         seconds=0)
    # probes on both sides of the timed passes, so that one slow stretch of
    # a shared machine does not set the median
    before = [probe() for _ in range(SETUP_PROBES // 2)]
    m = run_child(deadline, workload=workload, seed=seed, mode="measure",
                  seconds=seconds)
    after = [probe() for _ in range(SETUP_PROBES - len(before))]
    children = before + [m] + after
    setups = [c["setup_s"] for c in children]
    setup_factors = [c["setup_factor"] for c in children]
    metrics = {
        "wall_s": (statistics.median(scaled(m["walls"], m["factors"])), "s"),
        "cpu_s": (statistics.median(scaled(m["cpus"], m["factors"])), "s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(scaled(setups, setup_factors)), "s"),
    }
    samples = {"wall_s": m["walls"], "cpu_s": m["cpus"],
               "speed_factor": m["factors"], "setup_s": setups,
               "setup_speed_factor": setup_factors}
    return metrics, samples, [m], m["env"]


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    plain = run_child(deadline, workload=workload, seed=seed, mode="measure",
                      seconds=seconds / 2)
    traced = run_child(deadline, workload=workload, seed=seed, mode="trace",
                       seconds=seconds / 2)
    alloc = run_child(deadline, workload=workload, seed=seed, mode="alloc",
                      seconds=0)
    layers = traced["layers"]
    metrics = {}
    for name, unit in spans.UNITS.items():
        if name in spans.ALLOC:
            metrics[name] = (alloc["layers"][0][name], unit)
        elif name in spans.EXACT:
            metrics[name] = (layers[0][name], unit)
        else:
            metrics[name] = (statistics.median(p[name] for p in layers), unit)
    overhead = statistics.median(traced["walls"]) - statistics.median(plain["walls"])
    metrics["trace_overhead_s"] = (overhead, "s")
    # a count that moves between passes is not exact: a failed check
    moved = [n for n in spans.EXACT if len({p[n] for p in layers}) > 1]
    repeat = {"attempted": 1, "failed": int(bool(moved)),
              "failures": [f"{n} moved between traced passes" for n in moved]}
    samples = {"wall_s": plain["walls"], "traced_wall_s": traced["walls"],
               "alloc_wall_s": alloc["walls"], "layers": layers}
    return metrics, samples, [plain, traced, alloc, repeat], plain["env"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "divcorr" / "__init__.py").is_file():
        print(f"error: no src/divcorr under {ROOT}; run from the root of a "
              "divcorr checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, samples, parts, env = measure(args.workload, args.seed,
                                               args.seconds, deadline)
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    failures = sorted({f for p in parts for f in p["failures"]})

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(f"  {'samples':34s} {len(samples['wall_s']):>16d} passes")
    if not args.trace:
        # the same medians as measured, before the speed probe's scaling
        for name in ("wall_s", "cpu_s", "setup_s"):
            print(f"  {name + ' as measured':34s} "
                  f"{statistics.median(samples[name]):>16.6g} s")
        print(f"  {'speed factor (median)':34s} "
              f"{statistics.median(samples['speed_factor']):>16.6g}")
    print(f"  {'fail_ratio':34s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} checks failed)")
    for f in failures:
        print(f"  FAILED: {f}")
    blas = ", ".join(f"{k}={v}" for k, v in env["blas_threads"].items())
    print(f"env: nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} mpmath={env['mpmath']} "
          f"blas={env['blas']!r} ({blas}, pinned by the benchmark) "
          f"commit={env['git_commit']}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": u}
                          for n, (v, u) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  fail_ratio=failed / attempted, failures=failures,
                  samples=samples, env=env)
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
