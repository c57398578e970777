"""``Cluster*`` — adaptive-adversary-resistant clustering (§3.3, §6.1).

The instance serves requests from *runs* of exponentially growing
lengths ``r = 1, 2, 4, 8, ...``. Each new run's starting point is drawn
uniformly among all positions where the run would not overlap any run
previously placed *by this same instance* (other instances are unknown,
by the rules of the game).

Why it resists adaptivity: an adversary can only predict a long stretch
of an instance's future IDs after having already extracted roughly that
many IDs from it — the next run's location is fresh randomness. Yet the
exponential growth keeps the number of runs per instance at
``⌈log(1+d_i)⌉``, so the algorithm stays Cluster-like:

    max_Z p_Cluster*(Z) = O(min(1, (nd/m)·log(1 + d/n)))   (Theorem 8)

against adaptive adversaries with total demand ``d``, only a log factor
above the Ω(nd/m) lower bound of Theorem 6.

The paper restricts analysis to at most ``m/(2 log m)`` requests per
instance; an instance then opens at most ``log m`` runs of size at most
``m/(2 log m)`` each, which fit under worst-case fragmentation. This
implementation keeps producing while any valid placement exists and
raises :class:`~repro.errors.IDSpaceExhaustedError` only when the next
run truly cannot be placed (we shrink the final run to the largest
placeable size first, a practical completion the paper leaves open).

The instance's runs live in one
:class:`~repro.core.intervals.CircularIntervalSet`, which places each
new run in one call and is the only record of where the runs lie.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.core.base import IDGenerator
from repro.core.intervals import CircularIntervalSet
from repro.errors import ConfigurationError, IDSpaceExhaustedError


class ClusterStarGenerator(IDGenerator):
    """Exponentially growing runs, each placed uniformly among free slots.

    ``growth`` is the run-length multiplier between consecutive runs —
    the paper's algorithm uses 2. It is exposed for the ablation
    experiment A1: ``growth=1`` degenerates into fresh single-ID runs
    (``Random`` up to placement constraints, losing all locality), and
    large growth approaches plain ``Cluster`` (one dominant run,
    regaining Cluster's adaptive vulnerability).
    """

    name = "cluster_star"

    def __init__(
        self,
        m: int,
        rng: Optional[random.Random] = None,
        growth: int = 2,
    ):
        super().__init__(m, rng)
        if growth < 1:
            raise ConfigurationError(
                f"run growth factor must be >= 1, got {growth}"
            )
        self.growth = growth
        self._placed = CircularIntervalSet(m)
        self._next_run_length = 1
        self._run_start = 0
        self._run_length = 0  # length of the currently open run
        self._run_remaining = 0  # IDs left in the currently open run

    @property
    def runs(self) -> List[Tuple[int, int]]:
        """The ``(start, length)`` runs opened so far, in order."""
        return self._placed.arcs

    def _open_run(self) -> None:
        """Place the next run; shrink it if the ideal length cannot fit."""
        length = self._next_run_length
        while length >= 1:
            try:
                start = self._placed.place(length, self.rng)
            except ValueError:
                length //= 2
                continue
            self._run_start = start
            self._run_length = length
            self._run_remaining = length
            # The schedule grows based on the *intended* length so a
            # one-off shrink does not reset the exponential growth.
            self._next_run_length *= self.growth
            return
        raise IDSpaceExhaustedError(
            f"cluster_star: no space left on Z_{self.m} "
            f"(covered={self._placed.covered()})",
            produced=self._count,
        )

    def _generate(self) -> int:
        if self._run_remaining == 0:
            self._open_run()
        offset = self._run_length - self._run_remaining
        value = (self._run_start + offset) % self.m
        self._run_remaining -= 1
        return value

    def generate_batch(self, count: int) -> List[int]:
        """Batched fast path: the rest of each run as one arc slice.

        Run placement (the only consumer of randomness) still goes
        through :meth:`_open_run`, so the emitted sequence is
        bit-identical to repeated ``next_id``. Exhaustion mid-batch
        returns the partial batch, as the base contract specifies.
        """
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        m = self.m
        out: List[int] = []
        while len(out) < count and self._count < m:
            if self._run_remaining == 0:
                try:
                    self._open_run()
                except IDSpaceExhaustedError:
                    break
            offset = self._run_length - self._run_remaining
            start = (self._run_start + offset) % m
            take = min(count - len(out), self._run_remaining)
            head = min(take, m - start)
            out.extend(range(start, start + head))
            if take > head:  # the run wraps past m
                out.extend(range(take - head))
            self._run_remaining -= take
            self._count += take
        return out
