"""Host-speed reference kernel, the scaling it feeds, and a GC meter.

The benchmark runs on shared virtual CPUs whose speed drifts with other
tenants' load. Between measured chunks (never while a request is in
flight) it times a fixed pure-Python kernel; a chunk's times can then be
expressed as if the host ran that kernel in exactly
:data:`NOMINAL_REF_US` microseconds::

    scaled = raw * NOMINAL_REF_US / ref_us

where ``ref_us`` is the mean of the reference times measured just
before and just after the chunk. A metric is reported in scaled form
only where that measurably narrows its run-to-run spread (see
``perfbench/README.md``).
"""

from __future__ import annotations

import gc
import os
import random
import time
from typing import List

#: Integer-loop iterations of one reference-kernel timing.
KERNEL_ITERATIONS = 20_000
#: Random reads from the kernel's table in one timing.
KERNEL_READS = 10_000
#: Entries (distinct heap ints) in the kernel's table, ~10 MB in all.
KERNEL_TABLE = 1 << 18
#: Timings per measurement; the minimum is kept.
KERNEL_REPEATS = 3
#: The kernel time (µs) that scaled metrics are normalized to.
NOMINAL_REF_US = 7_000.0


def _kernel(table: List[int], order: List[int]) -> int:
    """Fixed work in two parts: an integer loop (interpreter speed) and
    reads scattered over a ~10 MB table (cache and memory contention).
    Allocates no GC-tracked objects."""
    x = 1
    for _ in range(KERNEL_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    for index in order:
        x = (x + table[index]) & 0x7FFFFFFF
    return x


def scale_factor(ref_before_us: float, ref_after_us: float) -> float:
    """Multiplier taking a chunk's raw times to nominal-host times."""
    return NOMINAL_REF_US / ((ref_before_us + ref_after_us) / 2.0)


class HostReference:
    """Times the reference kernel; keeps every measurement."""

    def __init__(self) -> None:
        rng = random.Random(0x5EED)
        # Ints above 2**40 are distinct heap objects, so the reads
        # below chase pointers across the whole table.
        self._table = [rng.getrandbits(40) | 1 << 40 for _ in range(KERNEL_TABLE)]
        self._order = [rng.randrange(KERNEL_TABLE) for _ in range(KERNEL_READS)]
        self.samples_us: List[float] = []
        self._run()  # warm-up, not recorded

    def _run(self) -> int:
        return _kernel(self._table, self._order)

    def _time(self) -> float:
        """Minimum of :data:`KERNEL_REPEATS` kernel timings, in µs."""
        best = float("inf")
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter_ns()
            self._run()
            best = min(best, (time.perf_counter_ns() - start) / 1000.0)
        return best

    def measure(self) -> float:
        """One reference measurement, in µs (also recorded)."""
        self.samples_us.append(self._time())
        return self.samples_us[-1]


class CoresReference(HostReference):
    """The reference kernel timed on each of ``cores`` in turn, averaged.

    For a workload whose processes are pinned to several cores: the
    calling process moves itself to each core for its timing and ends on
    the first one.
    """

    def __init__(self, cores: List[int]):
        super().__init__()
        self.cores = cores

    def measure(self) -> float:
        times = []
        for core in reversed(self.cores):
            os.sched_setaffinity(0, {core})
            times.append(self._time())
        self.samples_us.append(sum(times) / len(times))
        return self.samples_us[-1]


class GCMeter:
    """Accumulates time spent in garbage collection while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.ns = 0
        self._started = 0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter_ns()
        elif self.active and self._started:
            self.ns += time.perf_counter_ns() - self._started

    def __enter__(self) -> "GCMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)
