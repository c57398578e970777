"""Adversary protocol and the oblivious adversary (§2).

The game: at each step the adversary either *activates* a new instance
(requesting its first ID), requests another ID from an existing
instance, or stops. An **oblivious** adversary commits to its whole
request sequence before the game; an **adaptive** one sees every ID as
it is produced and decides on the fly. :func:`request_order` lists an
oblivious sequence for a demand profile; :class:`ObliviousAdversary`
replays it, and :meth:`DemandSequence.from_profile
<repro.adversary.semi_adaptive.DemandSequence.from_profile>` encodes
it for the semi-adaptive followers of §9.

An adversary that has already decided its next several requests may
ask for them as one *run* ``(instance, count)`` through
:meth:`Adversary.next_run`; the engine then draws the run in one
``generate_batch`` call. A run is a promise, not a new move: the game
must come out exactly as if the adversary had returned ``instance``
from ``next_request`` ``count`` times.

The engine (:mod:`repro.simulation.game`) exposes the game state to the
adversary through a read-only :class:`GameView`; adaptive adversaries
base decisions on it, oblivious ones ignore it.
"""

from __future__ import annotations

import abc
import random
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adversary.profiles import DemandProfile
from repro.errors import GameError


class GameView:
    """Read-only snapshot of a running game, as visible to the adversary.

    The adversary legitimately sees everything the instances have output
    (the model grants adaptive adversaries full observation); it does
    *not* see generator internals.
    """

    def __init__(self, m: int):
        self.m = m
        self._ids_by_instance: List[List[int]] = []
        self._events: List[Tuple[int, int]] = []  # (instance, id) in order
        self._collided = False
        self._collision_step: Optional[int] = None

    # -- engine-side mutation (package-internal) -------------------------

    def _record(self, instance: int, value: int, collided_now: bool) -> None:
        while instance >= len(self._ids_by_instance):
            self._ids_by_instance.append([])
        self._ids_by_instance[instance].append(value)
        self._events.append((instance, value))
        if collided_now and not self._collided:
            self._collided = True
            self._collision_step = len(self._events)

    def _record_run(self, instance: int, values: List[int]) -> None:
        """Append IDs of ``instance`` that collide with nothing."""
        while instance >= len(self._ids_by_instance):
            self._ids_by_instance.append([])
        self._ids_by_instance[instance].extend(values)
        self._events.extend(zip(repeat(instance), values))

    # -- adversary-side observation ---------------------------------------

    @property
    def num_instances(self) -> int:
        """Number of instances activated so far."""
        return len(self._ids_by_instance)

    @property
    def steps(self) -> int:
        """Total IDs produced so far."""
        return len(self._events)

    @property
    def collided(self) -> bool:
        """Has a cross-instance collision occurred?"""
        return self._collided

    @property
    def collision_step(self) -> Optional[int]:
        """1-based step index of the first collision, if any."""
        return self._collision_step

    def ids_of(self, instance: int) -> Sequence[int]:
        """All IDs produced by ``instance`` so far, in order."""
        return tuple(self._ids_by_instance[instance])

    def last_id_of(self, instance: int) -> int:
        """The most recent ID produced by ``instance``."""
        ids = self._ids_by_instance[instance]
        if not ids:
            raise GameError(f"instance {instance} has produced no IDs")
        return ids[-1]

    def counts(self) -> Tuple[int, ...]:
        """Current per-instance request counts (the partial profile)."""
        return tuple(len(ids) for ids in self._ids_by_instance)

    def current_profile(self) -> DemandProfile:
        """The partial demand profile accumulated so far."""
        return DemandProfile(self.counts())

    def events(self) -> Sequence[Tuple[int, int]]:
        """The full ``(instance, id)`` transcript."""
        return tuple(self._events)

    def events_since(self, index: int) -> Sequence[Tuple[int, int]]:
        """Transcript suffix from ``index`` on — O(new events), for
        adversaries that maintain incremental state."""
        return self._events[index:]


#: Sentinel request meaning "activate a new instance".
NEW_INSTANCE = -1


class Adversary(abc.ABC):
    """Decides, step by step, which instance is asked for the next ID."""

    def begin(self, view: GameView) -> None:
        """Hook called once before the first request."""

    @abc.abstractmethod
    def next_request(self, view: GameView) -> Optional[int]:
        """Return the instance to probe next.

        * an existing 0-based instance index,
        * :data:`NEW_INSTANCE` to activate a fresh instance, or
        * ``None`` to stop the game.
        """

    def next_run(self, view: GameView) -> Optional[Tuple[int, int]]:
        """Return ``(instance, count)`` to request ``count`` IDs from one
        instance in a row, or ``None`` to stop.

        ``instance`` is what :meth:`next_request` would return; a run on
        :data:`NEW_INSTANCE` activates one instance and draws all
        ``count`` IDs from it. The game must come out as if
        :meth:`next_request` had been asked ``count`` times, so override
        this only where those requests are already decided. The default
        is a run of one.
        """
        choice = self.next_request(view)
        return None if choice is None else (choice, 1)


def request_order(
    profile: DemandProfile,
    order: str = "sequential",
    rng: Optional[random.Random] = None,
) -> List[int]:
    """The instance each request of ``profile`` goes to, in ``order``.

    Instances are numbered by their first request, as the engine
    numbers them. ``"sequential"`` drains each instance in turn,
    ``"round_robin"`` cycles through the instances with requests left,
    and ``"random"`` shuffles the sequential order with ``rng`` (a
    fresh unseeded one if ``None``).
    """
    if order not in ("sequential", "round_robin", "random"):
        raise GameError(f"unknown interleaving order {order!r}")
    demands = profile.demands
    if order == "round_robin":
        steps: List[int] = []
        live = list(range(len(demands)))
        for served in range(max(demands, default=0)):
            # Each pass keeps the instances with a request left, so the
            # whole order costs O(total demand).
            live = [i for i in live if demands[i] > served]
            steps.extend(live)
        return steps
    steps = [i for i, d in enumerate(demands) for _ in range(d)]
    if order == "random":
        (rng or random.Random()).shuffle(steps)
        first: Dict[int, int] = {}
        steps = [first.setdefault(i, len(first)) for i in steps]
    return steps


class ObliviousAdversary(Adversary):
    """Replays a fixed demand profile, ignoring all observed IDs.

    The request *interleaving* is irrelevant to the collision probability
    for an oblivious adversary (instances are independent), but it is
    configurable to exercise the engine: any order of
    :func:`request_order` (``rng`` seeds ``"random"``).
    """

    def __init__(
        self,
        profile: DemandProfile,
        order: str = "sequential",
        rng: Optional[random.Random] = None,
    ):
        self.profile = profile
        self._schedule = request_order(profile, order, rng)
        self._cursor = 0

    def next_request(self, view: GameView) -> Optional[int]:
        """Next scheduled instance; ``None`` once the schedule is spent."""
        if self._cursor >= len(self._schedule):
            return None
        instance = self._schedule[self._cursor]
        self._cursor += 1
        return NEW_INSTANCE if instance >= view.num_instances else instance
