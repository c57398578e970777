"""Golden values of the python engine's RNG universe.

The values were recorded with a game loop that drew one ID per step
and a Cluster* that mirrored every placed ID in a set. The engine now
draws runs with ``generate_batch`` and Cluster* places every run
through one sorted list of its arcs; neither may move a seeded
estimate, a game transcript or an instance's ID sequence by a single
bit.
"""

import hashlib
import random

import pytest

from repro.adversary.attacks import ClosestPairAttack, GreedyGapAttack
from repro.adversary.profiles import DemandProfile
from repro.core.cluster_star import ClusterStarGenerator
from repro.errors import IDSpaceExhaustedError
from repro.simulation.batch import AttackFactory, ObliviousFactory, SpecFactory
from repro.simulation.game import Game
from repro.simulation.montecarlo import estimate_collision_probability
from repro.simulation.plan import SimulationPlan

PYTHON = SimulationPlan(engine="python")


def digest(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "spec, m, adversary, trials, successes",
    [
        ("cluster", 1 << 20, AttackFactory(ClosestPairAttack, n=8, d=1024), 400, 23),
        ("cluster*", 1 << 20, AttackFactory(ClosestPairAttack, n=8, d=1024), 400, 2),
        ("cluster*", 1 << 16, AttackFactory(GreedyGapAttack, n=8, d=256), 200, 25),
        (
            "cluster*", 1 << 16,
            ObliviousFactory(DemandProfile((300, 100, 37, 5, 1, 600))), 300, 95,
        ),
    ],
    ids=["closest-pair-cluster", "closest-pair-cluster*", "greedy-gap-cluster*",
         "oblivious-cluster*"],
)
def test_seeded_estimates_are_golden(spec, m, adversary, trials, successes):
    estimate = estimate_collision_probability(
        SpecFactory(spec), m, adversary, trials=trials, seed=2207, plan=PYTHON
    )
    assert (estimate.trials, estimate.successes) == (trials, successes)


@pytest.mark.parametrize(
    "spec, expected",
    [("cluster", "b6ac59af42c36700"), ("cluster*", "69b423af48e6141d")],
)
def test_closest_pair_transcripts_are_golden(spec, expected):
    # Six whole games (no stop at the collision): every emitted ID.
    outcomes = []
    for seed in range(6):
        result = Game(
            SpecFactory(spec), 1 << 20, ClosestPairAttack(8, 1024), seed=seed,
            stop_on_collision=False, keep_transcript=True,
        ).run()
        outcomes.append((
            result.collided, result.collision_step, result.steps,
            result.profile.demands, result.exhausted, result.transcript,
        ))
    assert digest(tuple(outcomes)) == expected


def drain(generator):
    ids = []
    while True:
        try:
            ids.append(generator.next_id())
        except IDSpaceExhaustedError:
            return ids


@pytest.mark.parametrize(
    "m, growth, seed, expected",
    [
        (1024, 1, 11, "58a1ce10da4b2f53"),  # single-ID runs only (A1's growth=1)
        (100, 2, 12, "d7e9358698781280"),  # shrinks to length 1 near exhaustion
        (257, 3, 13, "e783495ef6a1c774"),  # length 1 twice, a 2 between
    ],
)
def test_cluster_star_id_sequences_are_golden(m, growth, seed, expected):
    ids = drain(ClusterStarGenerator(m, random.Random(seed), growth=growth))
    assert len(ids) == m
    assert digest(ids) == expected
    batched = ClusterStarGenerator(m, random.Random(seed), growth=growth)
    assert batched.generate_batch(m + 5) == ids
