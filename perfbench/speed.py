"""Machine-speed calibration for the benchmark's end-to-end timings.

On the shared 2-core virtual machine this benchmark was written on, the
speed of the CPU drifts while a run goes on: a fixed pure-Python loop
took 132-223 ms from one second to the next, and 20-second averages of
it still varied with a coefficient of variation of 7.6%.  Process CPU
time drifts the same way, so it is no remedy.  The drift is shared by
everything running at the time, so a tiny fixed kernel timed next to
each op measures it: dividing an op's time by the local kernel time cut
the variation of 20-op averages of one DP solve from 12% to 2.6%.

End-to-end times are therefore reported at a fixed reference speed:
raw seconds x REFERENCE_KERNEL_S / (median kernel time around the op).
The raw times are printed alongside.  The kernel does not use seqalloc,
so no change to the package can move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Median kernel time on the development box (2 vCPUs, Python 3.11).
REFERENCE_KERNEL_S = 0.00245
WINDOW_S = 0.5  # kernel samples this close to an op describe its speed
MIN_SAMPLES = 3


def kernel() -> int:
    """Dict and list work of the kind the state-graph build does."""
    table: dict[int, int] = {}
    values: list[int] = []
    for i in range(20_000):
        table[(i * 7919) & 4095] = i
        values.append(i & 255)
    return len(table) + sum(values)


class SpeedLog:
    """Timestamped kernel timings, taken between ops."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.cost: list[float] = []

    def sample(self) -> None:
        began = time.monotonic()
        kernel()
        done = time.monotonic()
        self.at.append((began + done) / 2)
        self.cost.append(done - began)

    def factor(self, began: float, done: float) -> float:
        """Reference speed over local speed for [began, done], in time.monotonic() seconds."""
        lo = bisect.bisect_left(self.at, began - WINDOW_S)
        hi = bisect.bisect_right(self.at, done + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            if lo > 0:
                lo -= 1
            if hi < len(self.at):
                hi += 1
        return REFERENCE_KERNEL_S / statistics.median(self.cost[lo:hi])
