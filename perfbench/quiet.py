"""Keeps the measured process on the least contended CPU it may use.

On a small virtual machine a vCPU can share its physical core with other
tenants; on a 2-vCPU Xeon VM each vCPU's speed swung by about 40%
between two levels every second or so, largely independently of the
other vCPU.  Before a call, at most every INTERVAL_S, the process runs a
~1 ms probe on each CPU of its original affinity set and moves to the
fastest.  Child processes inherit the choice.  This changes where the
program runs, not what it does.
"""

from __future__ import annotations

import os
from time import perf_counter

INTERVAL_S = 0.05


def _spin() -> float:
    t = perf_counter()
    x = 0
    for i in range(20000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return perf_counter() - t


class QuietCpu:
    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self._next = 0.0

    def settle(self) -> None:
        if len(self.cpus) < 2 or perf_counter() < self._next:
            return
        os.sched_setaffinity(0, {min(self.cpus, key=self._probe)})
        self._next = perf_counter() + INTERVAL_S

    def release(self) -> None:
        """Back to every CPU, for work that is not measured."""
        os.sched_setaffinity(0, self.cpus)

    @staticmethod
    def _probe(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return min(_spin(), _spin())
