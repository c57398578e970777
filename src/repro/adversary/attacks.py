"""Concrete adaptive attacks (§6, Lemma 7 and generalizations).

:class:`ClosestPairAttack`
    The paper's Lemma 7 adversary, implemented literally: request one ID
    from each of ``n`` instances, find the two whose first IDs are the
    closest on the cycle, then dump the entire remaining budget on the
    *trailing* instance of that pair, as one run request, so its
    sequential arc runs into the leader's first ID. Against ``Cluster``
    this forces collision probability ``Ω(min(1, n²d/m))`` — a factor
    ``n`` worse than the oblivious worst case.

:class:`GreedyGapAttack`
    A stronger heuristic: after probing, every remaining request goes to
    the instance whose *predicted next ID* (last ID + 1 — exact for
    ``Cluster``, correct within a run for ``Cluster*``) is currently
    closest, in forward circular distance, to any ID owned by a
    different instance. Re-evaluated every step, so it tracks
    ``Cluster*``'s run jumps as they are revealed.

:class:`RunSaturationAttack`
    Tailored to ``Cluster*``: spreads requests to *equalize* per-instance
    demand first (maximizing the number of open runs, the quantity λ in
    Theorem 8's proof), then switches to greedy-gap pressure. This is
    the natural attempt to defeat the run structure; Theorem 8 says it
    still cannot beat ``O((nd/m) log(1+d/n))``.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.adversary.adaptive import AdaptiveAdversary, circular_gap
from repro.adversary.base import NEW_INSTANCE, GameView


def closest_trailing_pair(view: GameView) -> Tuple[int, int, int]:
    """Find the ordered pair with the minimal forward gap of first IDs.

    Returns ``(trailing, leading, gap)`` where ``trailing``'s first ID
    reaches ``leading``'s first ID after ``gap`` forward steps, with the
    minimum positive ``gap`` over all ordered pairs.
    """
    m = view.m
    firsts = [view.ids_of(i)[0] for i in range(view.num_instances)]
    best: Optional[Tuple[int, int, int]] = None
    for i, x_i in enumerate(firsts):
        for j, x_j in enumerate(firsts):
            if i == j:
                continue
            gap = circular_gap(x_i, x_j, m)
            if gap == 0:
                # Identical first IDs: a collision already happened.
                return (i, j, 0)
            if best is None or gap < best[2]:
                best = (i, j, gap)
    assert best is not None
    return best


class ClosestPairAttack(AdaptiveAdversary):
    """Lemma 7's adversary: press the trailing instance of the closest pair.

    The target is locked once the probes are in, so everything after
    them is one run: :meth:`next_run` asks for the whole remaining
    budget at once.
    """

    def __init__(self, n: int, d: int, rng=None):
        super().__init__(n, d, rng=rng)
        self._target: Optional[int] = None

    def next_run(self, view: GameView) -> Optional[Tuple[int, int]]:
        """A probe, or the locked target for the rest of the budget."""
        choice = self.next_request(view)
        if choice is None:
            return None
        if choice == NEW_INSTANCE:
            return (choice, 1)
        return (choice, self.d - view.steps)

    def exploit(self, view: GameView) -> Optional[int]:
        """Replay the trailing end of the closest pair every remaining step."""
        if self._target is None:
            trailing, _leading, _gap = closest_trailing_pair(view)
            self._target = trailing
        return self._target


class GreedyGapAttack(AdaptiveAdversary):
    """Every step: press the instance predicted to hit foreign IDs soonest.

    Keeps an incrementally maintained sorted index of every observed ID
    (with its owner), so each decision costs ``O(n log d)`` instead of
    rescanning the full transcript.
    """

    def __init__(self, n: int, d: int, rng=None):
        super().__init__(n, d, rng=rng)
        self._sorted_ids: List[int] = []
        self._owner_of: Dict[int, int] = {}
        self._events_seen = 0

    def _ingest_new_events(self, view: GameView) -> None:
        for instance, value in view.events_since(self._events_seen):
            if value not in self._owner_of:
                bisect.insort(self._sorted_ids, value)
            self._owner_of[value] = instance
        self._events_seen = view.steps

    def _forward_gap_to_foreign(self, predicted: int, me: int, m: int) -> int:
        """Circular forward distance from ``predicted`` to the nearest
        ID owned by another instance (scanning past own IDs)."""
        ids = self._sorted_ids
        count = len(ids)
        start = bisect.bisect_left(ids, predicted)
        for step in range(count):
            candidate = ids[(start + step) % count]
            if self._owner_of[candidate] != me:
                return circular_gap(predicted, candidate, m)
        return m  # no foreign IDs at all

    def exploit(self, view: GameView) -> Optional[int]:
        """Drive the instance whose predicted next ID has the smallest gap."""
        self._ingest_new_events(view)
        m = view.m
        best_instance = 0
        best_gap = m + 1
        for i in range(view.num_instances):
            predicted = (view.last_id_of(i) + 1) % m
            gap = self._forward_gap_to_foreign(predicted, i, m)
            if gap < best_gap:
                best_gap = gap
                best_instance = i
        return best_instance


class RunSaturationAttack(AdaptiveAdversary):
    """Maximize open runs of ``Cluster*`` first, then apply gap pressure.

    ``equalize_fraction`` of the post-probe budget is spent keeping all
    instances at (near-)equal demand — each doubling of an instance's
    demand forces it to reveal a fresh run, maximizing λ, the number of
    runs an adaptive adversary can aim at. The rest of the budget runs
    the greedy-gap policy.
    """

    def __init__(
        self, n: int, d: int, equalize_fraction: float = 0.5, rng=None
    ):
        super().__init__(n, d, rng=rng)
        if not 0.0 <= equalize_fraction <= 1.0:
            raise ValueError(
                f"equalize_fraction must be in [0,1], got {equalize_fraction}"
            )
        self._equalize_budget = int((d - n) * equalize_fraction)
        self._greedy = GreedyGapAttack(n, d)

    def exploit(self, view: GameView) -> Optional[int]:
        """Equalize per-instance counts for a budgeted prefix, then go greedy."""
        spent_after_probe = view.steps - self.n
        if spent_after_probe < self._equalize_budget:
            counts = view.counts()
            return min(range(len(counts)), key=counts.__getitem__)
        return self._greedy.exploit(view)
