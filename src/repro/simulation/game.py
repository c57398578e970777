"""The UUIDP game engine (§2).

A :class:`Game` wires together ``n`` lazily created, *independent*
instances of an ID-generation algorithm and an adversary. The engine:

* activates instances on demand (the adversary never learns generator
  internals, only the produced IDs, via the shared ``GameView``);
* maintains the global ledger of produced IDs and flags the first
  cross-instance collision;
* plays each request the adversary makes through
  :meth:`~repro.adversary.base.Adversary.next_run`: a run of one ID
  takes ``next_id``, a longer run one ``generate_batch`` call whose IDs
  are checked against the ledger in bulk (bit-identical to ``count``
  single steps, by ``generate_batch``'s contract);
* optionally enforces that the final demand profile lands in a declared
  :class:`~repro.adversary.profiles.ProfileFamily` (the paper's
  ``Adv(D)`` requirement);
* returns a :class:`GameResult` with everything experiments need.

Within-instance duplicates are a *generator bug*, not a collision; the
engine raises :class:`~repro.errors.GameError` if one ever appears.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.adversary.base import NEW_INSTANCE, Adversary, GameView
from repro.adversary.profiles import DemandProfile, ProfileFamily
from repro.core.base import IDGenerator
from repro.errors import GameError, IDSpaceExhaustedError
from repro.simulation.seeds import rng_for

#: A factory building one generator instance given (m, rng).
InstanceFactory = Callable[[int, random.Random], IDGenerator]


@dataclass(frozen=True)
class GameResult:
    """Outcome of one play of the UUIDP game."""

    collided: bool
    collision_step: Optional[int]
    profile: DemandProfile
    steps: int
    #: (instance, id) transcript; empty unless the game kept it.
    transcript: Tuple[Tuple[int, int], ...]
    #: True if some instance raised IDSpaceExhaustedError mid-game.
    exhausted: bool = False


class Game:
    """One play of the game between an algorithm and an adversary.

    Parameters
    ----------
    factory:
        Builds a fresh instance: ``factory(m, rng) -> IDGenerator``.
    m:
        Universe size.
    adversary:
        The request strategy.
    seed:
        Root seed; instance ``i`` of trial gets an independent RNG
        derived from it (see :mod:`repro.simulation.seeds`).
    stop_on_collision:
        End the game at the first collision (the usual setting: the
        adversary has already won).
    family:
        If given, validate that the final profile is in the family
        (raises ``GameError`` otherwise) — this is ``Adv(D)``.
    keep_transcript:
        Retain the full (instance, id) event list in the result.
    """

    def __init__(
        self,
        factory: InstanceFactory,
        m: int,
        adversary: Adversary,
        seed: int = 0,
        stop_on_collision: bool = True,
        family: Optional[ProfileFamily] = None,
        keep_transcript: bool = False,
    ):
        self.factory = factory
        self.m = m
        self.adversary = adversary
        self.seed = seed
        self.stop_on_collision = stop_on_collision
        self.family = family
        self.keep_transcript = keep_transcript
        self._instances: List[IDGenerator] = []
        self._owner_of_id: Dict[int, int] = {}
        self._duplicate_guard: List[Set[int]] = []

    def _activate_instance(self) -> int:
        index = len(self._instances)
        instance_rng = rng_for(self.seed, index)
        self._instances.append(self.factory(self.m, instance_rng))
        self._duplicate_guard.append(set())
        return index

    def _record(self, view: GameView, target: int, value: int) -> bool:
        """Enter one ID of ``target`` into the ledger and the view;
        True if it collides with another instance's ID."""
        guard = self._duplicate_guard[target]
        if value in guard:
            raise GameError(
                f"generator bug: instance {target} repeated ID {value}"
            )
        guard.add(value)
        collided = self._owner_of_id.setdefault(value, target) != target
        view._record(target, value, collided)
        return collided

    def _record_run(self, view: GameView, target: int, ids: List[int]) -> bool:
        """Record ``ids`` of ``target`` as that many single steps would;
        True if a collision ends the game among them.

        In a run that repeats no ID, the IDs before the first one already
        in the ledger (all of them, if none is) can neither collide nor
        repeat, so they enter the ledger and the view in bulk; the rest
        go step by step.
        """
        owner = self._owner_of_id
        fresh = dict.fromkeys(ids, target)
        if len(fresh) < len(ids):
            clean = 0  # a generator bug, found step by step below
        else:
            seen = owner.keys() & fresh.keys()
            clean = len(ids)
            if seen:
                clean = next(i for i, value in enumerate(ids) if value in seen)
                fresh = dict.fromkeys(ids[:clean], target)
        if clean:
            owner.update(fresh)
            self._duplicate_guard[target].update(fresh)
            view._record_run(target, ids[:clean])
        for value in ids[clean:]:
            if self._record(view, target, value) and self.stop_on_collision:
                return True
        return False

    def run(self, max_steps: Optional[int] = None) -> GameResult:
        """Play until the adversary stops, a collision ends the game
        (if ``stop_on_collision``), or ``max_steps`` is reached.
        """
        view = GameView(self.m)
        self.adversary.begin(view)
        next_run = self.adversary.next_run
        instances = self._instances
        stop_on_collision = self.stop_on_collision
        exhausted = False
        while max_steps is None or view.steps < max_steps:
            request = next_run(view)
            if request is None:
                break
            target, count = request
            if target == NEW_INSTANCE:
                target = self._activate_instance()
            elif not 0 <= target < len(instances):
                raise GameError(
                    f"adversary requested unknown instance {target} "
                    f"(active: {len(instances)})"
                )
            if count == 1:
                try:
                    value = instances[target].next_id()
                except IDSpaceExhaustedError:
                    exhausted = True
                    break
                if self._record(view, target, value) and stop_on_collision:
                    break
            elif count > 1:
                if max_steps is not None:
                    count = min(count, max_steps - view.steps)
                ids = instances[target].generate_batch(count)
                if self._record_run(view, target, ids):
                    break
                if len(ids) < count:
                    exhausted = True
                    break
            else:
                raise GameError(f"adversary requested a run of {count} IDs")
        profile = (
            view.current_profile()
            if view.num_instances > 0
            else DemandProfile((1,))  # degenerate: adversary never played
        )
        if view.num_instances == 0:
            raise GameError("adversary stopped without making any request")
        if self.family is not None and not view.collided:
            if not self.family.contains(profile):
                raise GameError(
                    f"final profile {profile.demands} outside the declared "
                    f"family {self.family}"
                )
        return GameResult(
            collided=view.collided,
            collision_step=view.collision_step,
            profile=profile,
            steps=view.steps,
            transcript=tuple(view.events()) if self.keep_transcript else (),
            exhausted=exhausted,
        )


def play_profile(
    factory: InstanceFactory,
    m: int,
    profile: DemandProfile,
    seed: int = 0,
    order: str = "sequential",
) -> GameResult:
    """Convenience: play one oblivious game on ``profile``."""
    from repro.adversary.base import ObliviousAdversary

    adversary = ObliviousAdversary(
        profile, order=order, rng=rng_for(seed, 0xAD)
    )
    game = Game(factory, m, adversary, seed=seed, stop_on_collision=False)
    return game.run()
