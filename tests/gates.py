"""Timing and memory gates.  Each gate runs divcorr in child processes,
checks their output, wall time and peak RSS against the limits below, and
prints one line; the script exits 1 if any gate fails.  Linux only (it
waits on a pidfd).  From the repository root:
PYTHONPATH=src python3 tests/gates.py
"""

import os
import select
import signal
import subprocess
import sys
import tempfile
import time

TESTS = os.path.dirname(os.path.abspath(__file__))
CLI = [sys.executable, "-m", "divcorr.cli"]
# RuntimeWarning as an error: the spectral kernel's direct formula divides by
# zero below its Taylor switch, in the pool threads too
STRICT_CLI = [sys.executable, "-W", "error::RuntimeWarning", *CLI[1:]]


def run(cmd, timeout=None):
    """(stdout, wall seconds, peak RSS in MB) of one child process.

    The peak is the child's own, from os.wait4: getrusage(RUSAGE_CHILDREN)
    reports the largest child reaped so far, whichever it was.  Exec starts
    the child's peak at that of the process that spawns it, so this process
    must stay smaller than its children: it imports only the standard
    library.  Raises CalledProcessError on a non-zero exit, and
    TimeoutExpired after killing a child that runs past `timeout` seconds.
    """
    with tempfile.TemporaryFile("w+") as out:
        t = time.perf_counter()
        pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1)])
        fd = os.pidfd_open(pid)
        try:
            timed_out = not select.select([fd], [], [], timeout)[0]
            if timed_out:
                signal.pidfd_send_signal(fd, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(fd)
        wall = time.perf_counter() - t
        if timed_out:
            raise subprocess.TimeoutExpired(cmd, timeout)
        code = os.waitstatus_to_exitcode(status)
        if code:
            raise subprocess.CalledProcessError(code, cmd)
        out.seek(0)
        return out.read(), wall, usage.ru_maxrss / 1024


def at_most(readings, limit, unit):
    text = "/".join(f"{r:.2f}" for r in readings)
    return f"{text} {unit} (limit {limit})", max(readings) <= limit


def seconds(runs, limit):
    return at_most([s for _, s, _ in runs], limit, "s")


def megabytes(runs, limit):
    return at_most([mb for *_, mb in runs], limit, "MB")


def rows_equal(runs):
    # the header above the data rows names --threads
    rows = [out.splitlines()[1:] for out, *_ in runs]
    same = all(r == rows[0] for r in rows)
    return f"data rows equal: {same}", same


def sweep():
    # The sweep streams its pieces: a child holds the tau table, its
    # cumulative D summed in place in one uint32 array, and the chunks in
    # flight, each integrating one Gauss block at a time in one reused kernel
    # workspace (about 6-8 MB a chunk).  The thread count is pinned rather
    # than left to the host: the 37 chunks run inline at 1 thread and through
    # the pool at 2 and 4.
    runs = [run(CLI + ["--threads", t, "correlate", "--theta", "surd:2",
                       "--xmin", "1e4", "--xmax", "4e6", "--points", "4"])
            for t in ("1", "2", "4")]
    return [megabytes(runs, 140), rows_equal(runs)]


def tong():
    # tong_ratio_oracle and mean_square stream their 2e6 and 1e6 terms
    # through one exact sum, 2^16 terms or 2^16 pieces (16 Gauss blocks,
    # which the sum copies into one buffer) at a time; the whole series
    # built at once would pass the limit
    return [megabytes([run(CLI + ["verify", "--suite", "tong"])], 64)]


def compare():
    # Each spectral worker evaluates its rows in blocks of 4 (at N = 5623) in
    # one reused buffer of about 1.1 MB, and the exact sweep at X = 1e5 is one
    # chunk, run inline one Gauss block at a time; glibc's per-thread malloc
    # arenas of the spectral pool can add about 12 MB.  At 1 thread the
    # blocks run inline, also for taubeta:2/1:4 with --psi exp:3, whose
    # finite cutoff T splits each block's row sums by a mask.
    cases = [[run(STRICT_CLI + ["--threads", t, "compare", *case,
                                "--x", "1e5"]) for t in ("2", "1")]
             for case in (["--theta", "surd:2"],
                          ["--theta", "taubeta:2/1:4", "--psi", "exp:3"])]
    # rat:1/1's rows hit u == 0 exactly and send the most entries (about
    # 0.4%) to the kernel's np.power fallback
    run(STRICT_CLI + ["--threads", "2", "compare", "--theta", "rat:1/1",
                      "--x", "1e4"])
    return [megabytes(cases[0] + cases[1], 100), *map(rows_equal, cases)]


LEGENDRE_2_32 = """
from divcorr.diophantine import legendre_hits, theta_parse
def denominators(a, M):
    q = [1, 2]
    while a * q[-1] + q[-2] <= M:
        q.append(a * q[-1] + q[-2])
    return q
assert legendre_hits(theta_parse("golden"), 2**32) == denominators(1, 2**32)
assert legendre_hits(theta_parse("surd:2"), 2**32) == denominators(2, 2**32)
"""


def legendre():
    # golden gives the Fibonacci numbers and surd:2 its convergent
    # denominators: the hits come from the convergents, where the O(M) loop
    # they replaced would take hours
    return [seconds([run([sys.executable, "-c", LEGENDRE_2_32], 60)], 10)]


DEEP_LEGENDRE = """
from divcorr.diophantine import legendre_hits, theta_parse
from divcorr.errors import PrecisionExhausted
try:
    legendre_hits(theta_parse("taubeta:3/2:3"), 10**13)
except PrecisionExhausted as e:
    assert e.last_certified == 6678264758913, e.last_certified
else:
    raise AssertionError("expected PrecisionExhausted")
"""


def deep_tau_beta():
    # taubeta:3/2:3 has an enclosure radius of about 2^(-4.46e12): the
    # invariant signs and the Legendre bound must not build it as a number.
    # Huge table integers print as hex instead of failing Python's 4300-digit
    # str limit.  taubeta:6/5:3 builds the largest tower table of the pinned
    # specs (t_4 = 6^46656, 120605 bits) when it is parsed.
    slow = [run(cmd, 60) for cmd in (
        CLI + ["cf", "--theta", "taubeta:3/2:3", "--terms", "5"],
        [sys.executable, "-c", DEEP_LEGENDRE],
        CLI + ["cf", "--theta", "taubeta:2/1:5", "--terms", "20"],
        CLI + ["cf", "--construct", "jarnik:pow:3:11"],
        CLI + ["cf", "--construct", "taubeta:6/5:3"])]
    # taubeta:99991/99990:1's depth-2 term has 1.66-million-bit powers.
    # correlate reads float(theta) in about 1 s, and in 7 s if the terms run
    # a gcd on the coprime powers; cf folds each m * anchor to its distance
    # in integers in about 0.9 s, and in about 20 s in Fraction arithmetic.
    fast = [run(CLI + args, 60) for args in (
        ["correlate", "--theta", "taubeta:99991/99990:1", "--xmin", "10",
         "--xmax", "100", "--points", "2"],
        ["cf", "--theta", "taubeta:99991/99990:1", "--terms", "3"])]
    return [seconds(slow, 10), seconds(fast, 3), megabytes(slow + fast, 100)]


# a scan of theta x psi up to M, given as arguments; it prints its own time,
# which the scan gates limit, and the code appended to it checks its result
SCAN = """
import sys, time
from divcorr.diophantine import approximability_scan, theta_parse
from divcorr.realfield import psi_parse
theta, psi, M = sys.argv[1], sys.argv[2], int(sys.argv[3])
t = time.perf_counter()
res = approximability_scan(theta_parse(theta), psi_parse(psi), M)
print(time.perf_counter() - t)
"""


def scan_exp_1_1():
    # 1/psi(m) = 1.1^-m lies far below most distances, and the log2 screen
    # decides those events without building (11^m, 10^m); sending them to
    # the exact test takes about 6 s
    check = """
sys.path.insert(0, sys.argv[4])
from test_diophantine import SCAN_DIGESTS, _scan_digest
assert (theta, psi, M, _scan_digest(res)) in SCAN_DIGESTS
"""
    out, *_ = run([sys.executable, "-c", SCAN + check, "golden", "exp:1.1",
                   str(10**5), TESTS], 120)
    return [at_most([float(out)], 3, "s")]


def scan_2_28():
    # 39634 events, nearly all multiples g q_k of a convergent denominator in
    # the fast region, each decided on the integer pair of its anchor distance
    check = """
assert res.hits == [1, 2, 5, 16, 65536], res.hits
assert res.certified_to == M, res.certified_to
"""
    out, *_ = run([sys.executable, "-c", SCAN + check, "taubeta:2/1:4",
                   "exp:1.5", str(2**28)], 120)
    return [at_most([float(out)], 10, "s")]


def jarnik_depth():
    # The construction stops at K = 24 (m_24 of about 5 million bits) after
    # about 2 s: it takes no gcd of a convergent pair and pow:a's quotient
    # is m^(a - 1) with no division (about 30 s with both).  The table
    # resolves distances only up to cli._DIST_BITS bits: the rows past it,
    # whose time doubles each row, would add about 80 s.  10.0-10.6 s in
    # all on a 2-vCPU x86-64 host.
    jarnik = CLI + ["cf", "--construct", "jarnik:pow:2:99999"]
    return [seconds([run(jarnik, 300)], 30)]


GATES = [sweep, tong, compare, legendre, deep_tau_beta, scan_exp_1_1,
         scan_2_28, jarnik_depth]


def main():
    failed = False
    for gate in GATES:
        try:
            checks = gate()
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as e:
            checks = [(str(e), False)]
        ok = all(ok for _, ok in checks)
        failed |= not ok
        print(f"{'ok' if ok else 'FAIL'} {gate.__name__}: "
              + ", ".join(text for text, _ in checks), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
