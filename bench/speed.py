"""Put wall times measured on a machine of varying speed on one scale.

The benchmark runs on shared machines whose speed changes by up to a factor
of three, for spells from a fraction of a second to minutes, and most code
slows by about the same factor.  A :class:`Speedometer` runs a small fixed
pure-Python kernel every ``period_s`` of wall time, from a ``SIGALRM``
handler, so it samples the machine's speed *during* each timed operation.
The operation's wall time is then scaled by ``REFERENCE_KERNEL_S / kernel
time`` around it: the time it would have taken at the speed at which the
kernel takes ``REFERENCE_KERNEL_S``.  The kernel is part of the benchmark
and never changes, so two commits are put on the same scale.

On a 2-vCPU Xeon VM, over ten runs of each workload, the spread
(interquartile range over median) of a timing metric was 1.7-9.8% scaled
where it was 14-43% raw; see bench/README.md.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Tuple

#: The kernel's time at the fast speed of the 2-vCPU Xeon VM the bench was
#: calibrated on; it only sets the unit of scaled times.
REFERENCE_KERNEL_S = 36e-6

#: Kernel samples behind the speed of one operation, at least.
MIN_SAMPLES = 9


def kernel() -> int:
    """Fixed interpreter work: integer arithmetic and dict stores."""
    total = 0
    table = {}
    for i in range(300):
        total += i * i % 7
        table[i & 63] = total
    return total


class Speedometer:
    """Samples the kernel's time while active (``with`` block); scales wall times.

    The handler runs in the main thread between bytecodes, so only one
    Speedometer may be active per process, and none while a profiler runs.
    """

    def __init__(self, period_s: float = 0.01) -> None:
        self.period_s = period_s
        self._ends: List[float] = []  # perf_counter when each kernel sample ended
        self._kernel_s: List[float] = []
        self._previous = signal.SIG_DFL

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self._ends.append(end)
        self._kernel_s.append(end - start)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time over the samples in [start, end], widened to MIN_SAMPLES."""
        if not self._ends:
            raise RuntimeError("the speedometer took no samples")
        low = bisect.bisect_left(self._ends, start)
        high = bisect.bisect_right(self._ends, end)
        while high - low < MIN_SAMPLES and (low > 0 or high < len(self._ends)):
            low, high = max(0, low - 1), min(len(self._ends), high + 1)
        return statistics.median(self._kernel_s[low:high])

    def scaled(self, span: Tuple[float, float]) -> float:
        """The wall time of ``span`` (start, end) at the reference speed; seconds."""
        start, end = span
        return (end - start) * REFERENCE_KERNEL_S / self.kernel_s(start, end)

    def slowdown(self) -> float:
        """Median kernel time over all samples, as a multiple of the reference."""
        return statistics.median(self._kernel_s) / REFERENCE_KERNEL_S
