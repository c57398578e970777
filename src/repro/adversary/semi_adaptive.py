"""Demand sequences and the semi-adaptive follower ``fol(S)`` (§9).

Theorem 11 reduces adaptive to oblivious adversaries for ``Bins(k)`` and
``Bins*`` through *semi-adaptive* adversaries: follow a predetermined
demand sequence ``S = (D_0, D_1, ..., D_k)`` — each ``D_{i+1}`` extends
``D_i`` by one request — and, the moment a collision occurs, stop as
early as the family allows (at a reachable profile minimizing ``p*``).

Because the only adaptive decision is "has a collision happened yet",
these adversaries bound the power of fully adaptive ones against
symmetric algorithms, at a cost of a factor of at most 4 in competitive
ratio. Experiment E10 measures this factor.

:meth:`DemandSequence.from_profile` takes its steps from
:func:`~repro.adversary.base.request_order`, so a follower of a
profile's sequence makes the requests an
:class:`~repro.adversary.base.ObliviousAdversary` in the same order
would, until a collision.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.adversary.base import (
    NEW_INSTANCE,
    Adversary,
    GameView,
    request_order,
)
from repro.adversary.profiles import DemandProfile
from repro.errors import GameError


class DemandSequence:
    """A ``D``-demand sequence encoded as the order of instance probes.

    ``steps[t]`` is the (0-based) logical instance receiving the
    ``t``-th request. Validity requires that an instance's first request
    appears only after all lower-numbered instances have been activated
    (activation order is the numbering, as in the paper's model).
    """

    def __init__(self, steps: Sequence[int]):
        active = 0
        for t, instance in enumerate(steps):
            if instance > active:
                raise GameError(
                    f"step {t} requests instance {instance} before "
                    f"instance {active} was activated"
                )
            if instance == active:
                active += 1
        if active == 0:
            raise GameError("a demand sequence must contain >= 1 request")
        self.steps: List[int] = list(steps)
        self.num_instances = active

    @staticmethod
    def from_profile(
        profile: DemandProfile, order: str = "round_robin"
    ) -> "DemandSequence":
        """Encode an oblivious profile as a demand sequence, in
        :func:`~repro.adversary.base.request_order`'s ``"sequential"``
        or ``"round_robin"`` order (``"random"`` needs an RNG this
        encoding does not take)."""
        if order == "random":
            raise GameError(f"unknown order {order!r}")
        return DemandSequence(request_order(profile, order))

    def final_profile(self) -> DemandProfile:
        """The profile reached when the sequence completes unharmed."""
        counts = [0] * self.num_instances
        for instance in self.steps:
            counts[instance] += 1
        return DemandProfile(tuple(counts))

    def __len__(self) -> int:
        return len(self.steps)


class FollowerAdversary(Adversary):
    """``fol(S)``: follow ``S`` until a collision, then stop early.

    ``min_instances_to_stop`` models the "reach a profile in D"
    constraint: with ``stop_immediately_on_collision=False``, after a
    collision the follower keeps following ``S`` until that many
    instances are active (e.g. for ``D1(n, d)`` it must first activate
    all ``n`` instances), then halts. With a downward-closed family it
    stops at the collision (the default).
    """

    def __init__(
        self,
        sequence: DemandSequence,
        stop_immediately_on_collision: bool = True,
        min_instances_to_stop: int = 1,
    ):
        self.sequence = sequence
        self.stop_immediately = stop_immediately_on_collision
        self.min_instances_to_stop = min_instances_to_stop
        self._cursor = 0

    def next_request(self, view: GameView) -> Optional[int]:
        """Next step of the fixed sequence; may stop early on a collision."""
        if self._cursor >= len(self.sequence.steps):
            return None
        if view.collided:
            if self.stop_immediately:
                return None
            if view.num_instances >= self.min_instances_to_stop:
                return None
        logical = self.sequence.steps[self._cursor]
        self._cursor += 1
        if logical >= view.num_instances:
            return NEW_INSTANCE
        return logical
