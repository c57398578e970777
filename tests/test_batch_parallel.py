"""The parallel batched Monte-Carlo engine (repro.simulation.batch).

Three guarantees are under test:

* **Determinism** — ``estimate_collision_probability`` under a
  ``SimulationPlan(workers=N)`` returns a bit-identical
  :class:`Estimate` for every ``N``, and the ``generate_batch`` fast
  path matches the game loop, because trial outcomes depend only on
  the root seed and trial index. The game loop is reached through
  ``functools.partial(ObliviousAdversary, profile, "sequential")``,
  an adversary factory the fast path does not admit.
* **Batch equivalence** — ``generate_batch`` emits exactly the IDs
  repeated ``next_id`` calls would, for every registered algorithm,
  under any chunking.
* **Exhaustion mid-batch** — a batch that outlives the instance's
  capacity returns the partial prefix, and the generator stays in the
  exhausted state afterwards.
"""

import functools
import pickle
import random

import pytest

from repro.adversary.attacks import ClosestPairAttack
from repro.adversary.base import ObliviousAdversary
from repro.adversary.profiles import DemandProfile
from repro.core.bins_star import BinsStarGenerator
from repro.core.registry import make_generator
from repro.errors import ConfigurationError, IDSpaceExhaustedError
from repro.simulation.batch import (
    AttackFactory,
    ObliviousFactory,
    SpecFactory,
    play_trial,
    resolve_workers,
)
from repro.simulation.montecarlo import (
    estimate_collision_probability,
    estimate_profile_collision,
)
from repro.simulation.plan import SimulationPlan

#: One spec per registered algorithm family (parameterized ones get
#: concrete arguments).
ALL_SPECS = ["random", "cluster", "bins:7", "cluster_star", "bins_star", "skew:4:9"]


def game_loop_adversary(profile):
    """An oblivious sequential adversary factory that the
    ``generate_batch`` fast path does not admit, so trials built from
    it play the game loop."""
    return functools.partial(ObliviousAdversary, profile, "sequential")


class TestGenerateBatchEquivalence:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    @pytest.mark.parametrize("m", [16, 64, 257])
    def test_matches_repeated_next_id(self, spec, m):
        serial = make_generator(spec, m, random.Random(99))
        reference = []
        try:
            while True:
                reference.append(serial.next_id())
        except IDSpaceExhaustedError:
            pass

        batched = make_generator(spec, m, random.Random(99))
        produced = []
        for chunk in (1, 3, 5, 100, 7, 4 * m):
            produced.extend(batched.generate_batch(chunk))
        assert produced == reference

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_single_full_batch(self, spec):
        m = 128
        serial = make_generator(spec, m, random.Random(5))
        reference = []
        try:
            while True:
                reference.append(serial.next_id())
        except IDSpaceExhaustedError:
            pass
        batched = make_generator(spec, m, random.Random(5))
        assert batched.generate_batch(m + 50) == reference

    def test_negative_count_rejected(self):
        generator = make_generator("cluster", 64, random.Random(0))
        with pytest.raises(ConfigurationError):
            generator.generate_batch(-1)

    def test_zero_count_is_empty(self):
        generator = make_generator("random", 64, random.Random(0))
        assert generator.generate_batch(0) == []
        assert generator.count == 0


class TestExhaustionMidBatch:
    def test_partial_batch_then_empty(self):
        # Bins* without fallback exhausts at its scheduled capacity,
        # well before m — the classic mid-batch exhaustion case.
        generator = BinsStarGenerator(64, random.Random(3))
        capacity = generator.scheduled_capacity
        ids = generator.generate_batch(capacity + 10)
        assert len(ids) == capacity
        assert generator.generate_batch(4) == []
        with pytest.raises(IDSpaceExhaustedError):
            generator.next_id()

    def test_exhaustion_preserves_serial_prefix(self):
        serial = BinsStarGenerator(64, random.Random(3))
        reference = []
        try:
            while True:
                reference.append(serial.next_id())
        except IDSpaceExhaustedError:
            pass
        batched = BinsStarGenerator(64, random.Random(3))
        assert batched.generate_batch(10_000) == reference

    def test_trial_stops_at_exhaustion_like_the_game(self):
        # For every algorithm, fast-path and game-loop trials must agree
        # on the collision outcome trial by trial, whether the demand
        # exhausts m = 64 mid-batch or fits.
        for spec in ALL_SPECS:
            factory = SpecFactory(spec)
            for demands in ((60, 60, 60), (12, 9, 6)):
                profile = DemandProfile(demands)
                for trial in range(40):
                    loop = play_trial(
                        factory, 64, game_loop_adversary(profile), 11, trial
                    )
                    fast = play_trial(
                        factory, 64, ObliviousFactory(profile), 11, trial
                    )
                    assert loop == fast, (spec, demands, trial)


class TestParallelDeterminism:
    @pytest.mark.parametrize("spec", ["cluster", "cluster_star"])
    def test_profile_estimate_identical_across_workers(self, spec):
        profile = DemandProfile.of(48, 24, 12, 6)
        m = 1 << 14
        estimates = [
            estimate_collision_probability(
                SpecFactory(spec), m, adversary, trials=120, seed=17,
                plan=SimulationPlan(workers=workers),
            )
            for workers in (1, 2, 8)
            for adversary in (
                game_loop_adversary(profile), ObliviousFactory(profile)
            )
        ]
        assert all(e == estimates[0] for e in estimates)
        # and sanity: some collisions at this density, deterministically
        assert estimates[0].trials == 120

    def test_adaptive_estimate_identical_across_workers(self):
        kwargs = dict(trials=60, seed=23)
        results = [
            estimate_collision_probability(
                SpecFactory("cluster"), 1 << 14,
                AttackFactory(ClosestPairAttack, n=6, d=96),
                plan=SimulationPlan(workers=workers), **kwargs,
            )
            for workers in (1, 2, 8)
        ]
        assert results[0] == results[1] == results[2]

    def test_matches_legacy_lambda_path(self):
        # The picklable shims must not change what gets estimated.
        profile = DemandProfile.of(32, 16)
        m = 1 << 12
        legacy = estimate_collision_probability(
            lambda mm, rr: make_generator("cluster", mm, rr),
            m, game_loop_adversary(profile), trials=150, seed=9,
        )
        shimmed = estimate_profile_collision(
            SpecFactory("cluster"), m, profile,
            trials=150, seed=9, plan=SimulationPlan(workers=4),
        )
        assert legacy == shimmed

    def test_unpicklable_factory_falls_back_with_warning(self):
        profile = DemandProfile.of(8, 8)
        with pytest.warns(RuntimeWarning, match="picklable") as caught:
            estimate_profile_collision(
                lambda mm, rr: make_generator("cluster", mm, rr),
                1 << 12, profile, trials=10, seed=1,
                plan=SimulationPlan(workers=2),
            )
        # the warning points at the line that called estimate_*
        assert [w.filename for w in caught] == [__file__]

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(5) == 5
        assert resolve_workers(0) >= 1  # one per CPU
        with pytest.raises(ConfigurationError):
            resolve_workers(-2)


class TestFactoryShims:
    def test_shims_are_picklable(self):
        for shim in (
            SpecFactory("bins:16"),
            ObliviousFactory(DemandProfile.of(4, 4)),
            AttackFactory(ClosestPairAttack, n=4, d=32),
        ):
            clone = pickle.loads(pickle.dumps(shim))
            assert clone == shim

    def test_spec_factory_builds_the_spec(self):
        generator = SpecFactory("bins:16")(1 << 10, random.Random(1))
        assert generator.name == "bins"
        assert generator.k == 16

    def test_attack_factory_builds_fresh_instances(self):
        factory = AttackFactory(ClosestPairAttack, n=4, d=32)
        a = factory(random.Random(1))
        b = factory(random.Random(2))
        assert a is not b
        assert isinstance(a, ClosestPairAttack)
