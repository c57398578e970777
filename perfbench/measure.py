"""Shared measurement plumbing: the chunk clock, set-up timing, results."""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from perfbench.host import HostReference, scale_factor
from perfbench.stats import Series

ROOT = Path(__file__).resolve().parent.parent
#: Seconds one set-up process may take before it is killed.
SETUP_TIMEOUT = 120.0


@dataclass(frozen=True)
class Config:
    """The command-line arguments a workload runs under."""

    seed: int
    seconds: float
    trace: bool


class ChunkClock:
    """Times measured chunks and brackets each with the reference kernel.

    With ``trace`` set, chunks alternate untraced (even) and traced
    (odd); :attr:`plain` and :attr:`traced` keep separate totals.
    """

    def __init__(self, ref: HostReference, seconds: float, trace: bool):
        self.ref = ref
        self.trace = trace
        self.deadline = time.perf_counter() + seconds
        self.chunks = 0
        self.plain = Totals()
        self.traced = Totals()
        self._before = ref.measure()

    def more(self) -> bool:
        """Whether another chunk starts before the deadline (and, when
        tracing, the traced/untraced chunk counts are balanced)."""
        if self.trace and self.chunks % 2 == 1:
            return True
        return self.chunks < 2 or time.perf_counter() < self.deadline

    @property
    def tracing(self) -> bool:
        """Whether the next chunk is a traced one."""
        return self.trace and self.chunks % 2 == 1

    def finish_chunk(self, elapsed_ns: int, ops: int) -> float:
        """Book one chunk; returns its host-scaling factor."""
        after = self.ref.measure()
        factor = scale_factor(self._before, after)
        self._before = after
        totals = self.traced if self.tracing else self.plain
        totals.ops += ops
        totals.raw_ns += elapsed_ns
        totals.scaled_ns += elapsed_ns * factor
        totals.chunk_rates.append(ops / (elapsed_ns * factor / 1e9))
        self.chunks += 1
        return factor


@dataclass
class Totals:
    """Ops and measured time over a set of chunks."""

    ops: int = 0
    raw_ns: int = 0
    scaled_ns: float = 0.0
    #: Host-scaled ops per second of each chunk.
    chunk_rates: List[float] = field(default_factory=list)

    def rate(self, scaled: bool) -> float:
        """Ops per second of measured time."""
        ns = self.scaled_ns if scaled else self.raw_ns
        return self.ops / (ns / 1e9) if ns else 0.0


class SetupTimer:
    """Times set-up in steps, each bracketed by reference measurements:
    the chunk clock's scaling, applied to set-up. A step should take
    about as long as a measured chunk. Without a reference the steps
    just run, untimed."""

    def __init__(self, ref: Optional[HostReference] = None):
        self.ref = ref
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._before = ref.measure() if ref is not None else 0.0

    @contextmanager
    def step(self) -> Iterator[None]:
        """Time the body of a ``with`` block as one set-up step."""
        if self.ref is None:
            yield
            return
        start = time.perf_counter()
        yield
        seconds = time.perf_counter() - start
        after = self.ref.measure()
        self.raw_s += seconds
        self.scaled_s += seconds * scale_factor(self._before, after)
        self._before = after


def cold_setups(command: List[str], repeats: int) -> Tuple[List[float], List[float]]:
    """Run ``command`` (a ``--setup-only`` run) ``repeats`` times, one
    fresh process after another. Each child times its set-up with a
    :class:`SetupTimer` and reports it as the last line of its output.
    Returns the children's raw and host-scaled set-up times in seconds."""
    raw: List[float] = []
    scaled: List[float] = []
    for _ in range(repeats):
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, check=True,
            timeout=SETUP_TIMEOUT,
        )
        report = json.loads(done.stdout.splitlines()[-1])
        raw.append(report["raw_s"])
        scaled.append(report["scaled_s"])
    return raw, scaled


@dataclass
class Result:
    """What a workload hands back to ``run.py``."""

    #: Names of op kinds a and b (e.g. ``get``/``put``).
    kind_names: Tuple[str, str]
    clock: ChunkClock
    a: Series
    b: Series
    peak_rss_mb: float
    attempted: int
    failed: int
    #: Raw and host-scaled times of the fresh set-up processes.
    setup_raw_s: List[float] = field(default_factory=list)
    setup_scaled_s: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: Extra human-readable figures (trial rates, checks).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    gc_ns: int = 0
    #: Measured op time in traced chunks, and the part of it the
    #: top-level spans cover (traced runs only).
    traced_op_ns: int = 0
    covered_ns: int = 0
    #: The span tracer to write out at exit (traced runs only).
    tracer: object = None

    def setup_seconds(self, scaled: bool) -> float:
        """Median set-up time of the fresh set-up processes."""
        return statistics.median(self.setup_scaled_s if scaled else self.setup_raw_s)


def own_peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
