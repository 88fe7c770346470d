"""Host-speed reference: a fixed kernel timed in between the measured work.

On a shared host the same work can take twice as long from one second to the
next, because other tenants load the physical core. A fixed kernel timed in
between the work slows down by about the same factor, so

    reference seconds = host seconds * KERNEL_REF_S / mean kernel time

removes most of the host's drift. The kernel has the same mix as a
co-simulator step (interpreter work and numpy calls on 2x2 arrays) and
belongs to the benchmark, so a change to the program does not change it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Nominal kernel time, which defines a reference second: the typical kernel
# time on the 2-vCPU Xeon VM the benchmark was defined on, where it ranged
# from 4.2 ms with the core to itself to 9 ms with the core shared.
KERNEL_REF_S = 0.0065
# Host time of measured work between two kernel calls (kernels add about 12%).
KERNEL_EVERY_NS = 40_000_000


def speed_kernel() -> float:
    a = np.array([[1.0, 0.1], [0.1, 1.0]])
    acc = 0.0
    for i in range(3000):
        b = a @ a.T
        acc += float(b[0, 0]) + math.sqrt(i)
    return acc


class HostSpeed:
    """Runs the kernel after every ``KERNEL_EVERY_NS`` of reported work and keeps its times."""

    def __init__(self, kernel=speed_kernel, clock=time.perf_counter_ns) -> None:
        self.kernel = kernel
        self.clock = clock
        self.kernel_ns = 0
        self.kernels = 0
        self._owed = 0

    def add_work(self, ns: int) -> None:
        self._owed += ns
        if self._owed >= KERNEL_EVERY_NS:
            self._owed = 0
            self.run_kernel()

    def run_kernel(self) -> None:
        start = self.clock()
        self.kernel()
        self.kernel_ns += self.clock() - start
        self.kernels += 1

    def mark(self) -> tuple[int, int]:
        return self.kernels, self.kernel_ns

    def kernel_s(self, since: tuple[int, int] = (0, 0)) -> float:
        """Host seconds spent in kernels since ``since``; subtract them from wall time that spans them."""
        return (self.kernel_ns - since[1]) / 1e9

    def scale(self, since: tuple[int, int] = (0, 0)) -> float:
        """Reference seconds per host second, from the kernels run since ``since`` (at least one)."""
        if self.kernels == since[0]:
            self.run_kernel()
        return KERNEL_REF_S * 1e9 * (self.kernels - since[0]) / (self.kernel_ns - since[1])
