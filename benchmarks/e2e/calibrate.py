"""Keeping host timings off a slow CPU: a fixed interpreter kernel, timed.

The sizing box is a 2-vCPU VM on a shared host.  Each vCPU, independently
of the other, drops to about half speed for seconds to minutes at a time
(the kernel below reads 3.5 ms or ~7 ms, rarely anything between; the
workloads slow by 1.3-1.5x).  A run that lands on the slow vCPU is not
comparable with one that did not, whatever statistic is taken afterwards.

So before every timed interval the benchmark times this kernel on each CPU
it may use and pins itself to the fastest (still one process, one thread);
it times the kernel again afterwards, and the two readings are kept with
the wall time so that a reader can tell a clean interval from one that was
disturbed midway.  On a quiet machine all of this is a no-op costing ~25 ms
per interval.
"""

from __future__ import annotations

import os
import time

_CAN_PIN = hasattr(os, "sched_setaffinity")
# The CPUs this process started with: the candidates, and what unpin restores.
_ALLOWED = sorted(os.sched_getaffinity(0)) if _CAN_PIN else []


class _Cell:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def bump(self, value: int) -> int:
        self.total += value
        return self.total


def kernel_s() -> float:
    """One pass of the kernel: dict, list, tuple, attribute and call work,
    the mix the simulator's own per-message path is made of."""
    start = time.perf_counter()
    counts: dict = {}
    pending: list = []
    cell = _Cell()
    for i in range(20_000):
        key = i & 255
        counts[key] = counts.get(key, 0) + 1
        pending.append((key, cell.bump(i)))
        if len(pending) >= 64:
            pending.clear()
    return time.perf_counter() - start


def sample(passes: int = 3) -> float:
    """Kernel seconds on the current CPU: the fastest of a few passes."""
    return min(kernel_s() for _ in range(passes))


def pin_fastest_cpu() -> float:
    """Pin this process to whichever allowed CPU runs the kernel fastest;
    returns that CPU's kernel seconds.  Child processes inherit the pin."""
    if len(_ALLOWED) < 2:
        return sample()
    readings = []
    for cpu in _ALLOWED:
        os.sched_setaffinity(0, {cpu})
        readings.append((sample(), cpu))
    best, cpu = min(readings)
    os.sched_setaffinity(0, {cpu})
    return best


def unpin() -> None:
    """Back to the CPUs this process started with."""
    if _ALLOWED:
        os.sched_setaffinity(0, _ALLOWED)
