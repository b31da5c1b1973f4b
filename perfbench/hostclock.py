"""Item timing corrected for the host's speed.

The machines this benchmark runs on share their cores with other tenants, and
their speed drifts: on a 2-core Xeon VM running Python 3.11, the same pure
Python loop took 6.6 to 21 ms depending on the minute, with regimes lasting
from seconds to minutes, so whole 20-second runs land in fast or slow
regimes.  Process CPU time drifts the same way, so the cause is the host, not
scheduling.

A fixed kernel of ``Fraction`` arithmetic, dictionary updates and small
allocations, the same kind of work the engine does, is timed after every
item.  A run's times are multiplied by ``(REFERENCE_MS / k) ** ELASTICITY``,
where k is the median kernel time of the run.  Item times follow the kernel
only in part: regressing log item time on log kernel time gave slopes from
0.45 to 0.85 depending on the regime, so the full ratio over-corrects when
the kernel alone speeds up.  Over six sets of ten 20- to 25-second runs, the
largest spread (interquartile range over median) of p50, p90 or items per
second within a set was 0.38 unscaled, 0.26 with the full ratio and 0.19
with its 0.7th power.  Raw times are printed as well.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from typing import Callable, TypeVar

T = TypeVar("T")

# The kernel's time, in ms, on the machine above in its fast regime.
REFERENCE_MS = 1.25
ELASTICITY = 0.7


def kernel() -> Fraction:
    """Fixed reference work, independent of the package under test."""
    acc = Fraction(0)
    seen: dict[int, Fraction] = {}
    for i in range(1, 200):
        f = Fraction(i, i + 7) - Fraction(3, i)
        acc += f * f
        seen[i % 17] = acc
    return acc


def kernel_ms() -> float:
    """The faster of two kernel runs, in ms."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best * 1000


class HostClock:
    """Times calls and samples the kernel after each one."""

    def __init__(self) -> None:
        self.kernel_samples: list[float] = [kernel_ms()]

    def call(self, fn: Callable[[], T]) -> tuple[T, float]:
        """(result, seconds) of one call."""
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        self.kernel_samples.append(kernel_ms())
        return result, seconds

    def factor(self) -> float:
        """Multiplier from this run's times to the reference host speed."""
        return (REFERENCE_MS / statistics.median(self.kernel_samples)) ** ELASTICITY


class RawClock:
    """Times calls without the kernel, for traced runs."""

    def call(self, fn: Callable[[], T]) -> tuple[T, float]:
        t0 = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - t0
