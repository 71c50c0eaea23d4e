import json
import os
import subprocess
import sys
from pathlib import Path

import divcorr

_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# import divcorr first, then run one gemv; report the variables and, where
# /proc lists them, the process's threads (OpenBLAS starts its pool at load)
_CHILD = """
import json, os
import divcorr
import numpy as np
a = np.ones((300, 300))
a @ a
tasks = "/proc/self/task"
print(json.dumps({
    "env": {v: os.environ.get(v) for v in %r},
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}))
""" % (_VARS,)


def run_child(**env_vars):
    env = {k: v for k, v in os.environ.items() if k not in _VARS}
    env.update(env_vars)
    src = str(Path(divcorr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", _CHILD], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout)


def test_import_caps_blas_threads_when_unset():
    got = run_child()
    assert got["env"] == {v: "1" for v in _VARS}
    assert got["threads"] in (1, None)


def test_user_set_blas_threads_win():
    got = run_child(OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="3")
    assert got["env"] == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
                          "MKL_NUM_THREADS": "3"}
