"""``Bins*`` — the competitively optimal algorithm (§3.4, §7.1).

The ID space is carved into ``C = ⌈log₂ m − log₂ log₂ m⌉`` chunks of
``2^(C−1)`` IDs each (this fits: ``C · 2^(C−1) ≤ m``). Chunk ``i``
(1-based) is split into ``2^(C−i)`` bins of ``2^(i−1)`` IDs. An instance
serves its requests by drawing one uniformly random bin from chunk 1
(size 1), then one from chunk 2 (size 2), then chunk 3 (size 4), ...,
always exhausting a bin in increasing ID order before moving on.

The effect is that instances with similar loads draw most of their IDs
from the *same chunk*, where the bins are sized for that load, while a
low-demand instance only ever exposes a few small bins to a high-demand
instance. That yields competitive ratio ``O(log m)`` against both
oblivious (Theorem 9) and adaptive (Corollary 12, via Theorem 11)
adversaries — optimal by Theorem 10.

After the single bin of the last chunk is exhausted (``2^C − 1`` IDs,
which is ``≥ m / log m``) the paper's schedule ends and Theorem 9 makes
no claim; we raise :class:`~repro.errors.IDSpaceExhaustedError` unless
``fallback_random=True``, in which case the instance continues with
uniform sampling (without replacement) over the never-assigned leftover
IDs and then over unused bins' IDs — a practical completion for users,
excluded from the analysis.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Set

from repro.core.base import IDGenerator
from repro.errors import ConfigurationError, IDSpaceExhaustedError


def chunk_count(m: int) -> int:
    """``C = ⌈log₂ m − log₂ log₂ m⌉``, the number of chunks for universe m.

    Requires ``m >= 4`` so that ``log log m > 0``.
    """
    if m < 4:
        raise ConfigurationError(f"bins_star requires m >= 4, got {m}")
    if m < (1 << 53):
        log_m = math.log2(m)
    else:
        # Avoid float overflow for astronomically large m; the ±1 error
        # of bit_length is absorbed by the ceil and the fit-check below.
        log_m = float(m.bit_length() - 1)
    c = math.ceil(log_m - math.log2(log_m))
    c = max(c, 1)
    # The paper needs C · 2^(C−1) ≤ m; guard against float rounding of
    # the ceil above (relevant for astronomically large m only).
    while c > 1 and c * (1 << (c - 1)) > m:
        c -= 1
    return c


class BinsStarGenerator(IDGenerator):
    """One random bin per chunk, chunk sizes doubling, ascending in-bin."""

    name = "bins_star"

    def __init__(
        self,
        m: int,
        rng: Optional[random.Random] = None,
        fallback_random: bool = False,
        num_chunks_override: Optional[int] = None,
    ):
        super().__init__(m, rng)
        if num_chunks_override is None:
            self.num_chunks = chunk_count(m)
        else:
            # Ablation A2 hook: fewer chunks = fewer size classes (the
            # competitive ratio should suffer), more = less ID space
            # per class. Must still fit: C · 2^(C−1) ≤ m.
            c = num_chunks_override
            if c < 1 or c * (1 << (c - 1)) > m:
                raise ConfigurationError(
                    f"num_chunks_override={c} does not fit m={m}"
                )
            self.num_chunks = c
        self.chunk_size = 1 << (self.num_chunks - 1)
        self.fallback_random = fallback_random
        self._chunk_index = 0  # 0-based chunk currently being served
        self._bin_start = 0
        self._bin_remaining = 0
        self._chosen_bins: List[int] = []  # bin index chosen in each chunk
        # Fallback state (only used when fallback_random=True).
        self._fallback_used: Set[int] = set()
        self._in_fallback = False

    @property
    def scheduled_capacity(self) -> int:
        """IDs producible under the paper's schedule: ``2^C − 1``."""
        return (1 << self.num_chunks) - 1

    def bins_in_chunk(self, chunk_index: int) -> int:
        """Number of bins in 0-based chunk ``chunk_index``: ``2^(C−1−i)``."""
        if not 0 <= chunk_index < self.num_chunks:
            raise ConfigurationError(
                f"chunk index must be in [0, {self.num_chunks}), got {chunk_index}"
            )
        return 1 << (self.num_chunks - 1 - chunk_index)

    def bin_size(self, chunk_index: int) -> int:
        """Size of each bin in 0-based chunk ``chunk_index``: ``2^i``."""
        if not 0 <= chunk_index < self.num_chunks:
            raise ConfigurationError(
                f"chunk index must be in [0, {self.num_chunks}), got {chunk_index}"
            )
        return 1 << chunk_index

    def _open_next_bin(self) -> None:
        chunk = self._chunk_index
        if chunk >= self.num_chunks:
            if self.fallback_random:
                self._in_fallback = True
                return
            raise IDSpaceExhaustedError(
                f"bins_star: schedule of {self.scheduled_capacity} IDs "
                f"exhausted (m={self.m}); construct with "
                f"fallback_random=True to keep generating",
                produced=self._count,
            )
        bins = self.bins_in_chunk(chunk)
        size = self.bin_size(chunk)
        bin_index = self.rng.randrange(bins)
        self._chosen_bins.append(bin_index)
        self._bin_start = chunk * self.chunk_size + bin_index * size
        self._bin_remaining = size
        self._chunk_index += 1

    def _scheduled_ids(self) -> Set[int]:
        """All IDs this instance has emitted or reserved via its bins."""
        ids: Set[int] = set()
        for chunk, bin_index in enumerate(self._chosen_bins):
            size = self.bin_size(chunk)
            start = chunk * self.chunk_size + bin_index * size
            ids.update(range(start, start + size))
        return ids

    def _fallback_generate(self) -> int:
        reserved = self._scheduled_ids()
        available = self.m - len(reserved) - len(self._fallback_used)
        if available <= 0:
            raise IDSpaceExhaustedError(
                f"bins_star: universe of {self.m} IDs fully consumed",
                produced=self._count,
            )
        if 2 * (len(reserved) + len(self._fallback_used)) >= self.m:
            candidates = [
                i
                for i in range(self.m)
                if i not in reserved and i not in self._fallback_used
            ]
            value = candidates[self.rng.randrange(len(candidates))]
            self._fallback_used.add(value)
            return value
        while True:
            value = self.rng.randrange(self.m)
            if value not in reserved and value not in self._fallback_used:
                self._fallback_used.add(value)
                return value

    def _generate(self) -> int:
        if self._in_fallback:
            return self._fallback_generate()
        if self._bin_remaining == 0:
            self._open_next_bin()
            if self._in_fallback:
                return self._fallback_generate()
        size = self.bin_size(self._chunk_index - 1)
        offset = size - self._bin_remaining
        self._bin_remaining -= 1
        return self._bin_start + offset
