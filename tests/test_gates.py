import subprocess
import sys
import time

import pytest

from gates import TESTS, run

# exec starts a child's peak RSS at that of the process that spawns it, so
# the readings are taken in a fresh interpreter, as gates.py runs, and not
# in the pytest process
PEAKS = """
import sys
sys.path.insert(0, sys.argv[1])
from gates import run
print(run([sys.executable, "-c", "b = b'x' * (150 << 20)"])[2])
print(run([sys.executable, "-c", "pass"])[2])
"""


def test_run_reads_each_childs_own_peak_rss():
    # getrusage(RUSAGE_CHILDREN) would report the first child's peak twice
    out = subprocess.run(
        [sys.executable, "-c", PEAKS, TESTS],
        check=True, capture_output=True, text=True, timeout=60).stdout
    big, small = map(float, out.split())
    assert big >= 140
    assert small < 64


def test_run_returns_stdout_and_raises_on_a_nonzero_exit():
    assert run([sys.executable, "-c", "print('out')"])[0] == "out\n"
    with pytest.raises(subprocess.CalledProcessError) as e:
        run([sys.executable, "-c", "raise SystemExit(3)"])
    assert e.value.returncode == 3


def test_run_takes_the_expected_exit_status():
    cmd = [sys.executable, "-c", "print('out'); raise SystemExit(3)"]
    assert run(cmd, status=3)[0] == "out\n"
    with pytest.raises(subprocess.CalledProcessError) as e:
        run([sys.executable, "-c", "pass"], status=3)
    assert e.value.returncode == 0


def test_run_kills_a_child_past_its_timeout():
    t = time.perf_counter()
    with pytest.raises(subprocess.TimeoutExpired):
        run([sys.executable, "-c", "import time; time.sleep(60)"], 0.5)
    assert time.perf_counter() - t < 30
