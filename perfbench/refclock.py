"""A reference kernel that measures how fast the machine runs Python right now.

On a shared host the same pass can take twice as long in one minute as in the
next, because of load the process cannot see.  The benchmark runs this fixed
kernel between operations and expresses each operation's time in units of the
kernel's time measured around it: an operation that costs 40 ``ref`` takes as
long as 40 runs of the kernel would at that moment.  The kernel uses only the
standard library and never touches the package, so no change to the package
can move it; it mixes the work the package spends its time in: ``Fraction``
arithmetic, integer arithmetic, tuple hashing and sorting.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REPEATS = 3  # kernel runs per probe; the probe reports their median
PROBE_EVERY_S = 0.1  # operation time between two probes of one pass


def kernel() -> int:
    total = Fraction(0)
    counts: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(1, 400):
        total += Fraction(i % 13 + 1, i % 97 + 2)
        acc += (i * 2654435761) % 1000003
        key = (i % 50, i % 7)
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(range(2000, 0, -3))
    return total.denominator % 7 + acc + len(counts) + ordered[0]


def probe() -> float:
    """Seconds of one kernel run, the median of REPEATS runs."""
    times = []
    clock = time.perf_counter
    for _ in range(REPEATS):
        start = clock()
        kernel()
        times.append(clock() - start)
    return statistics.median(times)


class Probes:
    """The probes of one pass, taken between its operations.

    The first probe is taken on creation, before the first operation.  After
    each operation, ``after`` takes another once PROBE_EVERY_S of operation
    time has passed since the last, and ``finish`` takes the last one after
    the last operation.  An operation's cost is its time over the mean of the
    probes taken just before and just after it."""

    def __init__(self) -> None:
        self.at = [0]  # index of the operation each probe preceded
        self.seconds = [probe()]
        self._since = 0.0

    def after(self, index: int, latency: float) -> None:
        self._since += latency
        if self._since >= PROBE_EVERY_S:
            self._take(index + 1)

    def finish(self, count: int) -> None:
        if self.at[-1] != count:
            self._take(count)

    def costs(self, latencies: list[float]) -> list[float]:
        """Each operation's time in ``ref``."""
        result = []
        for index, latency in enumerate(latencies):
            before = bisect.bisect_right(self.at, index) - 1
            result.append(latency / ((self.seconds[before] + self.seconds[before + 1]) / 2))
        return result

    def _take(self, index: int) -> None:
        self.at.append(index)
        self.seconds.append(probe())
        self._since = 0.0

