"""The host's speed, sampled while a command runs, to divide host drift out.

On a shared host the same command can take 1.4 s and, within the same
30 s, 2.5 s, and a fixed kernel timed between commands does not follow
these swings. So the kernel runs during the command instead: an interval
timer interrupts the program every INTERVAL_S of host time and the signal
handler runs `kernel`, a fixed slice of interpreter work that never touches
the program. The mean time of these slices over their reference time is how
many times slower than the reference host this host ran during the command.

`Sampler.normalize(elapsed)` takes the slices' own time out of `elapsed` and
divides the rest by that factor: the time the command would have taken on
the reference host. Handlers run between bytecodes, in the main thread, and
share no state with the program, so they change its timing, never its results.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02  # about 2% of the host time goes to samples
# about the kernel's time, in the signal handler, on the reference host: 2
# vCPUs of a shared "Intel Xeon Processor" VM at 2.1 GHz, Python 3.11.7. It
# only sets the unit of the normalized times.
KERNEL_REF_S = 0.00035
CALIBRATION_SLICES = 1000


class _Point:
    __slots__ = ("x", "v")

    def __init__(self, x):
        self.x = x
        self.v = 0


def kernel():
    """Object creation, attribute access, dict stores, integer arithmetic and
    calls, as the engine does. It keeps no state from one call to the next."""
    points = [_Point(i) for i in range(64)]
    table, acc = {}, 0
    for i in range(1200):
        p = points[i & 63]
        p.v += i
        table[i & 127] = acc
        acc += abs(p.x - (i * 7) % 13)


class Sampler:
    """Times `kernel` on every timer signal between `start` and `stop`."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._previous = None

    def _on_timer(self, signum, frame):
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)

    def start(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def own_s(self) -> float:
        """Host time the samples themselves took."""
        return sum(self.samples)

    def slowdown(self) -> float:
        """How many times slower than the reference host the samples ran."""
        if not self.samples:
            raise ValueError("no host speed sample was taken")
        return statistics.fmean(self.samples) / KERNEL_REF_S

    def normalize(self, elapsed_s: float) -> float:
        """`elapsed_s` without the samples' own time, in reference-host seconds."""
        return (elapsed_s - self.own_s()) / self.slowdown()


def calibration_s() -> float:
    """Host time of CALIBRATION_SLICES kernel slices in a row (context only)."""
    t0 = perf_counter()
    for _ in range(CALIBRATION_SLICES):
        kernel()
    return perf_counter() - t0
