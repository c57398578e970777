"""Disjoint arcs on the cycle ``Z_m``, and uniform placement among them.

``Cluster*`` places exponentially growing runs on the cycle, each at a
start drawn uniformly among those where it overlaps none of the
instance's previous runs. :class:`CircularIntervalSet` keeps the placed
arcs sorted by start, with a running count of covered positions. A
single position on a cycle under half covered is drawn by rejection,
one bisect per draw; any other run counts the free starts between
consecutive arcs in one pass and takes the j-th, because rejection
stalls as the cycle fills up.

Arcs are half-open ``[start, start + length) mod m`` with
``1 <= length <= m``, and placed arcs never overlap, so sorted by start
only the last one can wrap past ``m``.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Tuple

from repro.errors import ConfigurationError

LinearInterval = Tuple[int, int]  # half-open [lo, hi) with 0 <= lo < hi <= m


class CircularIntervalSet:
    """A growing set of disjoint arcs on ``Z_m`` with uniform placement.

    Used by ``Cluster*``: arcs are the runs an instance has already
    placed; :meth:`place` draws a uniformly random start for a new run
    of a given length among those that touch no placed arc, and places
    the run there.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ConfigurationError(f"cycle size m must be >= 1, got {m}")
        self.m = m
        self._arcs: List[Tuple[int, int]] = []  # (start, length) as inserted
        # The same arcs sorted by start; an end may exceed m (the wrap).
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._covered = 0

    @property
    def arcs(self) -> List[Tuple[int, int]]:
        """The inserted arcs, in insertion order."""
        return list(self._arcs)

    def covered(self) -> int:
        """Total number of positions covered by the arcs."""
        return self._covered

    def add(self, start: int, length: int) -> None:
        """Insert the arc ``[start, start+length)``.

        Raises :class:`ConfigurationError` if ``length`` is outside
        ``[1, m]`` or the arc overlaps a placed one.
        """
        m = self.m
        if not 1 <= length <= m:
            raise ConfigurationError(
                f"arc length must be in [1, {m}], got {length}"
            )
        start %= m
        if self.overlaps(start, length):
            raise ConfigurationError(
                f"arc [{start}, {start + length}) overlaps a placed arc "
                f"on Z_{m}"
            )
        self._insert(bisect.bisect_right(self._starts, start), start, length)

    def _insert(self, index: int, start: int, length: int) -> None:
        self._starts.insert(index, start)
        self._ends.insert(index, start + length)
        self._arcs.append((start, length))
        self._covered += length

    def overlaps(self, start: int, length: int) -> bool:
        """Would the arc ``[start, start+length)`` touch a placed arc?"""
        starts = self._starts
        if not starts:
            return False
        m = self.m
        start %= m
        # The placed arcs on either side of ``start``, one lap back or
        # ahead where ``start`` lies before the first or after the last.
        index = bisect.bisect_right(starts, start)
        before_end = self._ends[index - 1] if index else self._ends[-1] - m
        after_start = starts[index] if index < len(starts) else starts[0] + m
        return start < before_end or start + length > after_start

    def free_starts(self, run_length: int) -> List[LinearInterval]:
        """Linear intervals of valid starts for a new arc of ``run_length``,
        in increasing position.

        Between an arc ending at ``e`` and the next starting at ``s``,
        the valid starts are ``[e, s - run_length + 1)``. A run longer
        than the cycle has none.
        """
        if run_length < 1:
            raise ConfigurationError(
                f"run length must be >= 1, got {run_length}"
            )
        m = self.m
        starts, ends = self._starts, self._ends
        if not starts:
            return [(0, m)] if run_length <= m else []
        reach = run_length - 1
        # The gap before the first arc opens where the last arc ends, one
        # lap back; the part of it below 0 belongs at the top.
        lo, hi = ends[-1] - m, starts[0] - reach
        pieces = [(max(lo, 0), hi)] if max(lo, 0) < hi else []
        pieces += [
            (end, start - reach)
            for end, start in zip(ends, starts[1:])
            if end < start - reach
        ]
        if lo < min(hi, 0):
            pieces.append((lo + m, min(hi, 0) + m))
        return pieces

    def count_free_starts(self, run_length: int) -> int:
        """Number of valid starting points for a run of ``run_length``."""
        return sum(hi - lo for lo, hi in self.free_starts(run_length))

    def place(self, run_length: int, rng: random.Random) -> int:
        """Place a run of ``run_length`` at a uniformly random start among
        those that touch no placed arc, and return the start.

        A single position on a cycle under half covered is drawn by
        rejection: ``rng.randrange(m)`` until a free one. Any other run
        takes one ``rng.randrange`` over the free starts and picks that
        many-th one in increasing position. Raises ``ValueError`` if
        the run fits nowhere.
        """
        m = self.m
        starts, ends = self._starts, self._ends
        if run_length == 1 and 2 * self._covered < m:
            while True:
                start = rng.randrange(m)
                # Only the arc that starts last at or before ``start``
                # (the last arc, one lap back, if none does) can cover it.
                index = bisect.bisect_right(starts, start)
                if not starts or start >= (
                    ends[index - 1] if index else ends[-1] - m
                ):
                    break
        else:
            pieces = self.free_starts(run_length)
            total = sum(hi - lo for lo, hi in pieces)
            if total == 0:
                raise ValueError(
                    f"no room for a run of length {run_length} on Z_{m}"
                )
            target = rng.randrange(total)
            for lo, hi in pieces:
                if target < hi - lo:
                    break
                target -= hi - lo
            start = lo + target
            index = bisect.bisect_right(starts, start)
        self._insert(index, start, run_length)
        return start
