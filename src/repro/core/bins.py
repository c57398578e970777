"""``Bins(k)`` — the binned generalization of ``Random``.

Partition ``[m]`` into ``⌊m/k⌋`` bins of ``k`` consecutive IDs plus
``m mod k`` leftover IDs; visit the bins in a uniformly random order,
emitting each bin's IDs in increasing order, then emit the leftovers in
increasing order (§3.1). ``Bins(1)`` is exactly ``Random`` as a
distribution over permutations (bin = single ID).

Theorem 2 gives

    p_Bins(k)(D) = Θ(min(1, (‖D‖₁² − ‖D‖₂²)/(k·m) + n‖D‖₁/m + n²k/m)),

interpolating between ``Random`` (k = 1, first term dominates) and
``Cluster``-like behaviour (large k). ``Bins(h)`` is *the* optimal
algorithm for the uniform demand profile ``(h, ..., h)`` (Lemma 16),
which is why it anchors the paper's lower bounds.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set

from repro.core.base import IDGenerator
from repro.errors import ConfigurationError


class BinsGenerator(IDGenerator):
    """Random bin order, ascending within each bin, leftovers last."""

    name = "bins"

    def __init__(self, m: int, k: int, rng: Optional[random.Random] = None):
        super().__init__(m, rng)
        if not 1 <= k <= m:
            raise ConfigurationError(f"bin size k must be in [1, m={m}], got {k}")
        self.k = k
        self._num_bins = m // k
        self._leftover_start = self._num_bins * k
        self._used_bins: Set[int] = set()
        self._bin_tail: Optional[List[int]] = None
        self._current_bin: Optional[int] = None
        self._offset = 0  # position within the current bin

    @property
    def num_bins(self) -> int:
        """Number of full bins, ``⌊m/k⌋``."""
        return self._num_bins

    def _pick_fresh_bin(self) -> int:
        """Choose an unused bin uniformly at random."""
        if self._bin_tail is not None:
            return self._bin_tail.pop()
        if 2 * len(self._used_bins) >= self._num_bins:
            remaining = [
                b for b in range(self._num_bins) if b not in self._used_bins
            ]
            self.rng.shuffle(remaining)
            self._bin_tail = remaining
            self._used_bins = set()
            return self._bin_tail.pop()
        while True:
            bin_index = self.rng.randrange(self._num_bins)
            if bin_index not in self._used_bins:
                self._used_bins.add(bin_index)
                return bin_index

    def _generate(self) -> int:
        binned_total = self._num_bins * self.k
        if self._count >= binned_total:
            # All bins exhausted: leftover IDs in increasing order.
            return self._leftover_start + (self._count - binned_total)
        if self._current_bin is None or self._offset == self.k:
            self._current_bin = self._pick_fresh_bin()
            self._offset = 0
        value = self._current_bin * self.k + self._offset
        self._offset += 1
        return value

    def generate_batch(self, count: int) -> List[int]:
        """Batched fast path: whole in-bin runs per iteration.

        Within a bin the IDs are consecutive, so each loop turn emits
        one ``range`` slice (the rest of the current bin, a leftover
        stretch, or a fresh bin). Randomness is consumed only by
        :meth:`_pick_fresh_bin`, in the same order as the serial path.
        """
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        k = self.k
        binned_total = self._num_bins * k
        out: List[int] = []
        while len(out) < count and self._count < self.m:
            if self._count >= binned_total:
                # Leftover IDs: one ascending slice to the requested end.
                start = self._leftover_start + (self._count - binned_total)
                take = min(count - len(out), self.m - self._count)
                out.extend(range(start, start + take))
                self._count += take
                continue
            if self._current_bin is None or self._offset == k:
                self._current_bin = self._pick_fresh_bin()
                self._offset = 0
            base = self._current_bin * k + self._offset
            take = min(count - len(out), k - self._offset)
            out.extend(range(base, base + take))
            self._offset += take
            self._count += take
        return out
