"""One benchmark process, started by run.py with the source tree on its path:

    python3 bench/worker.py '{"workload": ..., "seed": ..., "mode": ...,
                              "seconds": ..., "t_spawn_ns": ...}'

Modes: ``setup`` stops once the first pass is ready; ``measure`` runs timed
passes untraced, under the speed probe (speed.py); ``trace`` runs them with
spans; ``alloc`` runs one pass with spans and tracemalloc.  Every pass's
outputs go through the gate.  Set-up is always probed.  Prints one JSON
line.
"""

from __future__ import annotations

import copy
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

# the probe starts before the program is imported, so that it samples the
# speed of the whole set-up
import speed

SETUP_PROBE = speed.Probe()
SETUP_PROBE.start(interval=0.005)

# set-up: importing the program runs its module constants
# (gamma_const(256), leggauss)
import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version() -> str:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import mpmath
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "blas": _blas_version(),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "git_commit": git_commit(root)}


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def passes(wl, seed, inputs, prepared, pins, seconds, rec=None,
           probe=None) -> dict:
    """Timed passes until `seconds` are used up (at least one).

    Each pass starts from a fresh copy of the prepared inputs, so caches
    that the program keeps on its objects never carry over between passes.
    With a `probe`, each pass's times exclude the probe's handler and come
    with the factor that turns them into reference seconds.
    """
    walls, cpus, factors, layers = [], [], [], []
    attempted, failures, first = 0, [], None
    start = time.perf_counter()
    while True:
        state = copy.deepcopy(prepared)
        if rec is not None:
            rec.spans.clear()
            rec.begin(len(walls))
            if rec.alloc:
                tracemalloc.start()
        if probe is not None:
            probe.start()
        c0, t0 = _cpu_seconds(), time.perf_counter()
        out = wl.run(state)
        t1, c1 = time.perf_counter(), _cpu_seconds()
        hw, hc, factor = (probe.stop() if probe is not None
                          else (0.0, 0.0, None))
        if rec is not None:
            rec.end()
            if rec.alloc:
                tracemalloc.stop()
                layers.append(spans.alloc_metrics(rec.spans))
            else:
                layers.append(spans.layer_metrics(rec.spans))
        walls.append(t1 - t0 - hw)
        cpus.append(c1 - c0 - hc)
        factors.append(factor)
        if len(walls) == 1:
            # what one CLI call would reach; later passes only add what the
            # allocator keeps from earlier ones, which varies run to run
            first_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        rows = gate.digest(wl.rows(out))
        first = first or rows
        checks = gate.check(wl, seed, inputs, out, pins)
        checks.append(("rows identical to the first pass", rows == first))
        attempted += len(checks)
        failures += [name for name, ok in checks if not ok]
        del out, state
        if time.perf_counter() - start + statistics.fmean(walls) > seconds:
            break
    return {"walls": walls, "cpus": cpus, "factors": factors, "layers": layers,
            "peak_rss_mb": first_rss_mb, "attempted": attempted,
            "failed": len(failures), "failures": sorted(set(failures))}


def main() -> int:
    spec = json.loads(sys.argv[1])
    wl = workloads.WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    inputs = wl.make_inputs(seed)
    prepared = wl.prepare(inputs)
    pins = gate.load_pins()
    setup_wall = (time.time_ns() - spec["t_spawn_ns"]) / 1e9
    # set-up is short: a few more samples right after it steady the factor
    hw, _, factor = SETUP_PROBE.stop(extra=20)

    mode = spec["mode"]
    result = {"setup_s": setup_wall - hw, "setup_factor": factor}
    if mode == "measure":
        result |= passes(wl, seed, inputs, prepared, pins, spec["seconds"],
                         probe=speed.Probe())
        result["env"] = environment(Path.cwd())
    elif mode in ("trace", "alloc"):
        rec = spans.Recorder(alloc=mode == "alloc")
        undo = spans.install(rec)
        try:
            result |= passes(wl, seed, inputs, prepared, pins,
                             spec["seconds"], rec)
        finally:
            spans.uninstall(undo)
    elif mode != "setup":
        raise ValueError(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
