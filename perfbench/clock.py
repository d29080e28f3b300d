"""Wall-clock timing scaled to a reference CPU speed.

The shared 2-core machine this benchmark was built on switches between a
fast and a slow regime every 1-20 seconds: a pure-Python loop, a small BLAS
matmul and a paper-size encode all slow down by 1.3-1.5x together, whatever
the garbage collector, the allocator, the BLAS thread count or the core the
process is pinned to. Thread CPU time shows the same slowdown, so the
process is not descheduled; the core itself runs slower. A median over a
run of tens of seconds can land in either regime, and raw medians of the
same work differ by up to 40% between runs.

Every timed stage is therefore bracketed by a short calibration kernel
with the same mix of work as the library (Python bytecode, small matmuls,
memory-bound array updates). Its time measures the machine's current speed,
and the stage's wall time is scaled by REF_KERNEL_S / kernel time: the
time the stage would take on a machine where the kernel takes exactly
REF_KERNEL_S. Raw wall times are kept next to the scaled ones.
"""

from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Kernel time of the uncontended regime on the machine the benchmark was
# built on (2-core x86-64, Python 3.11, OpenBLAS 0.3.31, one BLAS thread).
REF_KERNEL_S = 0.5e-3

_KERNEL_REPEATS = 3


@dataclass(frozen=True)
class Timing:
    wall_s: float
    kernel_s: float

    @property
    def factor(self):
        """Multiplier from this machine's current speed to the reference."""
        return REF_KERNEL_S / self.kernel_s

    @property
    def scaled_s(self):
        return self.wall_s * self.factor


class Clock:
    """Times calls and the calibration kernel around them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mat = rng.random((48, 48))
        self._buf = np.zeros(1 << 17)

    def _kernel_once(self):
        t0 = perf_counter()
        acc = 0
        for i in range(7000):
            acc += i
        for _ in range(20):
            self._mat @ self._mat
        for _ in range(2):
            self._buf += 1.0
        return perf_counter() - t0

    def kernel_s(self):
        """Median of a few kernel runs, so one interrupt does not skew it."""
        return sorted(self._kernel_once() for _ in range(_KERNEL_REPEATS))[
            _KERNEL_REPEATS // 2]

    def time(self, fn, *args):
        """Run fn(*args); return (result, Timing) with kernels before and after."""
        before = self.kernel_s()
        t0 = perf_counter()
        out = fn(*args)
        wall = perf_counter() - t0
        after = self.kernel_s()
        return out, Timing(wall, 0.5 * (before + after))
