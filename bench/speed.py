"""Speed probe: converts measured seconds into seconds at a reference speed.

The benchmark runs on a few vCPUs of a shared host.  How fast a vCPU runs
depends on what the host runs beside it, and that changes from second to
second and from minute to minute: the same pass of a workload can take 1.2
to 1.8 times as long as its fastest.  Timing the same code twice, minutes
apart, can differ by more than any useful regression bound.

The probe measures that speed in the measuring thread itself, while the
timed code runs.  A timer signal interrupts the thread every ``interval``
seconds, and the handler times ``micro()``, a short big-integer product and
remainder: pure arithmetic on data that fits in the core's L1 cache, so its
time follows how much of the core the host gives the thread and little
else.  A sample of ``k`` seconds of thread CPU says that during the ``d``
seconds before it the thread ran at ``REF_S / k`` of the reference speed.
So a span of ``T = sum(d_i)`` seconds did ``sum(d_i * REF_S / k_i)``
seconds of work at the reference speed.  The handler's own time is not
part of ``T``.

A sample is the thread's CPU time, not wall time: when the program runs a
thread pool, ``micro()`` waits for the GIL and for a free vCPU, and that
wait is the program's own doing, not the host's, so it must not count.

``REF_S`` is a fixed constant close to ``micro()``'s time on an unloaded
vCPU of the 2-vCPU Xeon machine the benchmark was written on.  Reference
seconds compare between runs and commits, not with a wall clock.  The
handler runs only between bytecodes of the main thread; a long C call
delays the next sample, and the sample after it speaks for the whole wait.
"""

from __future__ import annotations

import signal
import time

#: micro()'s time on an unloaded vCPU of the reference machine (s)
REF_S = 2.5e-5
#: sampling interval while a pass runs (s): the handler costs well under 1%
INTERVAL_S = 0.02

_A, _B, _M = 3 ** 2000, 7 ** 1500, 1_000_003


def micro() -> int:
    """A fixed unit of work; its time is one speed sample."""
    return (_A * _B) % _M


class Probe:
    """Samples micro() on a timer while started; one Probe at a time.

    `samples` holds (d, k) pairs: `d` seconds of the timed code ran, then
    micro() took `k` seconds of CPU.  A C call that outlasts the interval
    defers the signal, so intervals differ, and each sample speaks for the
    `d` seconds before it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.wall = self.cpu = 0.0
        self._last = 0.0
        self._busy = False

    def _time_micro(self) -> tuple[float, float]:
        w0, c0 = time.perf_counter(), time.thread_time()
        micro()
        c1, w1 = time.thread_time(), time.perf_counter()
        return w1 - w0, c1 - c0

    def _sample(self, signum, frame) -> None:
        if self._busy:
            # the signal came while micro() ran late: drop it
            return
        self._busy = True
        ran = time.perf_counter() - self._last
        wall, cpu = self._time_micro()
        self.samples.append((ran, cpu))
        self.wall += wall
        self.cpu += cpu
        self._last = time.perf_counter()
        self._busy = False

    def start(self, interval: float = INTERVAL_S) -> None:
        self.samples.clear()
        self.wall = self.cpu = 0.0
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self, extra: int = 1) -> tuple[float, float, float]:
        """Stop sampling; returns (wall, cpu, factor).

        `wall` and `cpu` are the seconds the handler took, to be taken off
        the measured wall and CPU times.  `factor` turns the measured time
        into reference seconds.  The stretch after the last sample is
        priced by `extra` samples taken once the timer has stopped; they
        are not handler time inside the span.
        """
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        ran = time.perf_counter() - self._last
        tail = [self._time_micro()[1] for _ in range(max(extra, 1))]
        self.samples += [(ran / len(tail), k) for k in tail]
        return self.wall, self.cpu, reference_factor(self.samples)


def reference_factor(samples: list[tuple[float, float]]) -> float:
    """Reference seconds per measured second: REF_S / k averaged over the
    samples, each weighted by the seconds `d` it speaks for."""
    return (sum(d * REF_S / k for d, k in samples)
            / sum(d for d, _ in samples))
