"""The CPU speed a run gets, measured next to the work it times.

On a shared machine the CPU the benchmark gets runs at about its full speed
or, for anything from a fraction of a second to minutes, in a slow state,
with no steal time recorded.  The slow state slows the execution of
instructions, not the caches: interpreted scalar complex arithmetic runs
about 1.8 times slower, copies within the cache not slower at all, and
maassl, which does both kinds of work, about 1.35 to 1.6 times slower.  A
run therefore times, next to its work, a fixed calibration kernel of about
five parts interpreted arithmetic to three parts in-cache copying (about
1.5 times slower in the slow state), and scales every measured time by
REFERENCE_S over the kernel's time around it.  A scaled time is in
reference seconds: the time the work would take on a CPU on which the
kernel takes REFERENCE_S.  The kernel uses only the standard library and
its own 128 KB of buffers, so it also runs in a fresh interpreter before
numpy is imported, hardly depends on what ran before it, and no change to
maassl can change it.
"""

from __future__ import annotations

import cmath
import math
import time

# About the kernel's median time in the fast state of the machine the
# baseline in README.md was recorded on (2 vCPUs of an Intel Xeon at 2.0 GHz).
REFERENCE_S = 1.0e-3
# sample the kernel before an item once this much time has passed
EVERY_S = 0.02
WARMUP = 5

# 64 KB copied within the cache
_SOURCE = bytes(range(256)) * 256
_TARGET = bytearray(len(_SOURCE))


def kernel() -> complex:
    """Interpreted complex arithmetic, then in-cache copies."""
    acc = 0j
    for k in range(1, 1300):
        z = complex(k * 0.01, 0.3)
        acc += cmath.exp(-z) * z ** (-0.5 + 0.25j) / (1.0 + math.sqrt(k))
    for _ in range(90):
        _TARGET[:] = _SOURCE
    return acc


def time_kernel() -> float:
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def warm_up() -> None:
    for _ in range(WARMUP):
        kernel()


def median_time(n: int) -> float:
    """Median of n timed kernel calls, after a warm-up."""
    warm_up()
    times = sorted(time_kernel() for _ in range(n))
    return 0.5 * (times[(n - 1) // 2] + times[n // 2])


class Speedometer:
    """Kernel samples taken between items; scales each item's time.

    An item is scaled by the mean of the sample taken last before it
    started and the first sample taken after it ended.  ``sample`` must be
    called before the first item and once more after the last.
    """

    def __init__(self):
        warm_up()
        self.samples: list[float] = []
        self.at = -math.inf

    def sample(self) -> None:
        self.samples.append(time_kernel())
        self.at = time.perf_counter()

    def before_item(self) -> int:
        """Sample if EVERY_S has passed; return the index of the last sample."""
        if time.perf_counter() - self.at >= EVERY_S:
            self.sample()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor for an item that ran after sample ``index``, before the next."""
        return REFERENCE_S / (0.5 * (self.samples[index] + self.samples[index + 1]))
