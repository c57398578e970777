"""Demand profiles and profile families (§2, §5, §7.2).

A *demand profile* ``D = (d_1, ..., d_n)`` says instance ``i`` receives
``d_i`` requests. The paper analyzes families of profiles:

* ``D1(n, d)``  — exactly ``n`` instances, L1-norm (total demand) ``d``;
* ``Dinf(n, h)`` — up to ``n`` instances, every entry ``≤ h``;

plus two derived notions used by the competitive analysis of ``Bins*``:

* the *rounded* profile ``D⁻`` (entries rounded down to powers of two,
  then a unique maximum reduced to the second maximum — Lemma 19), and
* the *rank distribution* ``(s_1, ..., s_k)`` of ``D⁻``, where ``s_i``
  counts entries equal to ``2^(i−1)`` (Lemma 20/22).

Theorem 6 partitions ``D1(n, d)`` into ε-good profiles (at least ``εn``
entries exceed ``εd/n``) and the exponentially rare ε-bad remainder;
:func:`is_epsilon_good` implements the test and
:func:`sample_profile_d1` samples uniformly from ``D1(n, d)`` so the
rarity claim can be measured.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.errors import ProfileError


@dataclass(frozen=True)
class DemandProfile:
    """An immutable demand profile with the norms the paper uses."""

    demands: Tuple[int, ...]

    def __post_init__(self) -> None:
        if any(d < 1 for d in self.demands):
            raise ProfileError(
                f"demand entries must be >= 1, got {self.demands}"
            )

    @staticmethod
    def of(*demands: int) -> "DemandProfile":
        """Build a profile from positional demands: ``DemandProfile.of(3, 5)``."""
        return DemandProfile(tuple(demands))

    @staticmethod
    def uniform(n: int, h: int) -> "DemandProfile":
        """The uniform profile ``(h, ..., h)`` with ``n`` entries."""
        if n < 1:
            raise ProfileError(f"n must be >= 1, got {n}")
        return DemandProfile((h,) * n)

    @property
    def n(self) -> int:
        """Number of instances."""
        return len(self.demands)

    @property
    def total(self) -> int:
        """L1 norm ``‖D‖₁`` — total number of requests."""
        return sum(self.demands)

    @property
    def l2_squared(self) -> int:
        """``‖D‖₂²`` — sum of squared demands."""
        return sum(d * d for d in self.demands)

    @property
    def max_demand(self) -> int:
        """L∞ norm — the largest per-instance demand."""
        return max(self.demands)

    @property
    def is_trivial(self) -> bool:
        """Trivial profiles (n < 2) have collision probability zero."""
        return self.n < 2

    def rounded(self) -> "DemandProfile":
        """The rounded profile ``D⁻`` of Lemma 19.

        Each entry is rounded down to a power of two; then, if a unique
        largest entry exists (the *heavy* instance), it is reduced to the
        second-largest entry.
        """
        if self.n == 0:
            raise ProfileError("cannot round an empty profile")
        powers = [1 << (d.bit_length() - 1) for d in self.demands]
        if len(powers) >= 2:
            ordered = sorted(powers, reverse=True)
            if ordered[0] > ordered[1]:
                heavy = powers.index(ordered[0])
                powers[heavy] = ordered[1]
        return DemandProfile(tuple(powers))

    def rank_distribution(self) -> Tuple[int, ...]:
        """``(s_1, ..., s_k)`` for the *rounded* profile (§7.2).

        ``s_i`` is the number of entries equal to ``2^(i−1)``; ``k`` is
        the rank of the largest entry. Raises if called on a profile
        with non-power-of-two entries (round first).
        """
        for d in self.demands:
            if d & (d - 1):
                raise ProfileError(
                    f"rank distribution needs power-of-two entries; got {d}. "
                    "Call .rounded() first."
                )
        k = max(d.bit_length() for d in self.demands)
        counts = [0] * k
        for d in self.demands:
            counts[d.bit_length() - 1] += 1
        return tuple(counts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.demands)

    def __len__(self) -> int:
        return len(self.demands)

    def __getitem__(self, index: int) -> int:
        return self.demands[index]


def is_epsilon_good(profile: DemandProfile, epsilon: float) -> bool:
    """Theorem 6's goodness test: ≥ ``εn`` entries exceed ``εd/n``."""
    if not 0 < epsilon <= 0.5:
        raise ProfileError(f"epsilon must be in (0, 1/2], got {epsilon}")
    n, d = profile.n, profile.total
    threshold = epsilon * d / n
    big_entries = sum(1 for x in profile.demands if x > threshold)
    return big_entries >= epsilon * n


def sample_profile_d1(
    n: int, d: int, rng: random.Random
) -> DemandProfile:
    """Uniform sample from ``D1(n, d)`` (compositions of d into n parts ≥ 1).

    Uses the stars-and-bars bijection: choose ``n−1`` distinct cut
    points among ``d−1`` gaps.
    """
    if not 1 <= n <= d:
        raise ProfileError(f"need 1 <= n <= d, got n={n}, d={d}")
    cuts = sorted(rng.sample(range(1, d), n - 1))
    bounds = [0] + cuts + [d]
    return DemandProfile(
        tuple(bounds[i + 1] - bounds[i] for i in range(n))
    )


def count_profiles_d1(n: int, d: int) -> int:
    """``|D1(n, d)| = C(d−1, n−1)`` — exact, arbitrary precision."""
    if not 1 <= n <= d:
        raise ProfileError(f"need 1 <= n <= d, got n={n}, d={d}")
    return math.comb(d - 1, n - 1)


def zipf_profile(
    n: int, total: int, skew: float, rng: random.Random
) -> DemandProfile:
    """A profile with demands proportional to ``1/rank^skew``, summing ~total.

    Every entry is at least 1; the rounding remainder is assigned to the
    largest entry so the total is exact.
    """
    if n < 1 or total < n:
        raise ProfileError(f"need total >= n >= 1, got n={n}, total={total}")
    weights = [1.0 / (rank ** skew) for rank in range(1, n + 1)]
    weight_sum = sum(weights)
    demands = [max(1, int(total * w / weight_sum)) for w in weights]
    # Fix the total exactly: add/subtract the remainder on the largest
    # entries, never letting any entry drop below 1.
    delta = total - sum(demands)
    index = 0
    while delta != 0:
        if delta > 0:
            demands[index % n] += 1
            delta -= 1
        else:
            if demands[index % n] > 1:
                demands[index % n] -= 1
                delta += 1
        index += 1
    shuffled = demands[:]
    rng.shuffle(shuffled)
    return DemandProfile(tuple(shuffled))


def family_d1(n: int, d: int) -> "ProfileFamily":
    """The family ``D1(n, d)``: exactly n instances, total demand d."""
    return ProfileFamily(kind="d1", n=n, bound=d)


def family_dinf(n: int, h: int) -> "ProfileFamily":
    """The family ``D∞(n, h)``: at most n instances, each demand ≤ h."""
    return ProfileFamily(kind="dinf", n=n, bound=h)


@dataclass(frozen=True)
class ProfileFamily:
    """A constraint set of demand profiles, as used by ``Adv(D)``.

    ``kind="d1"`` requires exactly ``n`` entries summing to ``bound``;
    ``kind="dinf"`` requires between 2 and ``n`` entries, each ≤ ``bound``.
    """

    kind: str
    n: int
    bound: int

    def __post_init__(self) -> None:
        if self.kind not in ("d1", "dinf"):
            raise ProfileError(f"unknown family kind {self.kind!r}")
        if self.n < 2:
            raise ProfileError(f"families need n >= 2, got {self.n}")
        if self.bound < 1:
            raise ProfileError(f"bound must be >= 1, got {self.bound}")

    def contains(self, profile: DemandProfile) -> bool:
        """Is ``profile`` a member of this family?"""
        if self.kind == "d1":
            return profile.n == self.n and profile.total == self.bound
        return 2 <= profile.n <= self.n and profile.max_demand <= self.bound
