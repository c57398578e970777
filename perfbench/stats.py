"""Percentiles, the tail-percentile rule, and per-kind sample series."""

from __future__ import annotations

from typing import Dict, List, Sequence

#: Candidate tail percentiles in parts per million, highest first.
TAIL_LADDER_PPM = (999_000, 990_000, 900_000, 500_000)
#: A tail percentile needs at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def rank_of(count: int, ppm: int) -> int:
    """1-based nearest rank of the ``ppm``-th quantile of ``count`` samples."""
    return max(1, -(-count * ppm // 1_000_000))


def samples_beyond(count: int, ppm: int) -> int:
    """Samples ranked strictly above the quantile's own sample."""
    return count - rank_of(count, ppm)


def percentile(sorted_values: Sequence[float], ppm: int) -> float:
    """Nearest-rank quantile of already-sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[rank_of(len(sorted_values), ppm) - 1]


def tail_ppm(count: int, cap_ppm: int) -> int:
    """Highest ladder percentile at or below ``cap_ppm`` with at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it; the median when too
    few samples leave none."""
    for ppm in TAIL_LADDER_PPM:
        if ppm <= cap_ppm and samples_beyond(count, ppm) >= MIN_SAMPLES_BEYOND:
            return ppm
    return TAIL_LADDER_PPM[-1]


def ppm_label(ppm: int) -> str:
    """``999000`` -> ``"p99.9"``."""
    text = f"{ppm / 10_000:.4f}".rstrip("0").rstrip(".")
    return f"p{text}"


class Series:
    """Latency samples (µs) of one op kind, raw and host-scaled."""

    def __init__(self, tail_cap_ppm: int):
        self.tail_cap_ppm = tail_cap_ppm
        self.raw: List[float] = []
        self.scaled: List[float] = []

    def extend(self, raw_us: Sequence[float], factor: float) -> None:
        """Add one chunk's samples, scaled by that chunk's factor."""
        self.raw.extend(raw_us)
        self.scaled.extend(value * factor for value in raw_us)

    def summary(self, scaled: bool) -> Dict[str, float]:
        """``{"p50": .., "tail": .., "tail_ppm": .., "count": ..}``."""
        values = sorted(self.scaled if scaled else self.raw)
        count = len(values)
        if count == 0:
            raise ValueError("no samples recorded")
        tail = tail_ppm(count, self.tail_cap_ppm)
        return {
            "p50": percentile(values, 500_000),
            "tail": percentile(values, tail),
            "tail_ppm": tail,
            "count": count,
        }
