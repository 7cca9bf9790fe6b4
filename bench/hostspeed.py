"""Reference kernel that measures how fast this host runs Python right now.

On a shared machine the speed of one vCPU swings by a factor of two over
seconds to minutes, with the neighbours' load. The benchmark runs this fixed
kernel before and after each group of simulator runs, a quarter pass of it
four times a second within each group (from a timer signal, in the same
thread), and a pass around each set-up probe. It converts their wall time
into reference seconds: wall time scaled by how long the kernel took against
its nominal time. Simulator code does not run in the kernel, so a change to
the simulator moves its time in reference seconds exactly as it moves it in
wall seconds, while a change of host speed cancels out.

The kernel makes no container objects, so garbage collection never runs in
it. Keep it, ITERATIONS and NOMINAL_S unchanged: they define the unit.
"""

from __future__ import annotations

import signal
import statistics
import time

ITERATIONS = 300_000
# median kernel time on the machine the baseline was measured on (Intel Xeon,
# 2 shared vCPUs, Python 3.11.7); one reference second is one wall second
# there at that speed
NOMINAL_S = 0.060
# a sample taken while simulator code runs is a quarter pass, so that
# sampling often costs little
SAMPLE_ITERATIONS = ITERATIONS // 4


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = value

    def scaled(self, factor: float) -> float:
        return self.value * factor


_KEYS = [(i % 97, i // 97) for i in range(4096)]
_TABLE = {key: _Cell(float(i)) for i, key in enumerate(_KEYS)}


def kernel_seconds(iterations: int = ITERATIONS) -> float:
    """Wall time of one pass of the kernel (dict lookups, calls, float math),
    scaled to a full pass when `iterations` is fewer."""
    get, keys = _TABLE.get, _KEYS
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(iterations):
        cell = get(keys[i & 4095])
        if i & 1:
            acc += cell.scaled(0.5)
        else:
            acc -= cell.value
    return (time.perf_counter() - t0) * ITERATIONS / iterations


def reference_seconds(wall_s: float, kernel_s: list[float]) -> float:
    """Wall time in reference seconds, given the kernel passes taken across it."""
    return wall_s * statistics.fmean(NOMINAL_S / k for k in kernel_s)


class Sampler:
    """Inside a with block, runs a quarter kernel pass every `interval_s` wall seconds.

    The passes run from SIGALRM in the main thread, between the measured
    code's bytecodes. `kernel_s` holds their times and `spent_s` the wall
    time they took, which the caller takes out of the time it measured. An
    interval of 0 takes no samples.
    """

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.kernel_s: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel_s.append(kernel_seconds(SAMPLE_ITERATIONS))
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        if self.interval_s > 0:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval_s > 0:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
