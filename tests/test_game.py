"""Unit tests for the game engine and adversary protocol."""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.attacks import ClosestPairAttack
from repro.adversary.base import (
    NEW_INSTANCE,
    Adversary,
    GameView,
    ObliviousAdversary,
)
from repro.adversary.profiles import DemandProfile, family_d1
from repro.adversary.semi_adaptive import DemandSequence
from repro.core.cluster import ClusterGenerator
from repro.core.random_gen import RandomGenerator
from repro.core.registry import make_generator
from repro.errors import GameError
from repro.simulation.game import Game, play_profile


def cluster_factory(m, rng):
    return ClusterGenerator(m, rng)


class ScriptedAdversary(Adversary):
    """Plays a fixed script of requests."""

    def __init__(self, script):
        self.script = list(script)
        self.cursor = 0

    def next_request(self, view):
        if self.cursor >= len(self.script):
            return None
        choice = self.script[self.cursor]
        self.cursor += 1
        return choice


class TestGameBasics:
    def test_profile_accumulates(self):
        adversary = ScriptedAdversary(
            [NEW_INSTANCE, NEW_INSTANCE, 0, 0, 1]
        )
        game = Game(cluster_factory, 1 << 20, adversary, seed=1)
        result = game.run()
        assert result.profile.demands == (3, 2)
        assert result.steps == 5
        assert not result.collided

    def test_unknown_instance_rejected(self):
        adversary = ScriptedAdversary([NEW_INSTANCE, 5])
        game = Game(cluster_factory, 100, adversary, seed=1)
        with pytest.raises(GameError):
            game.run()

    def test_empty_game_rejected(self):
        game = Game(cluster_factory, 100, ScriptedAdversary([]), seed=1)
        with pytest.raises(GameError):
            game.run()

    def test_max_steps_caps_the_game(self):
        adversary = ScriptedAdversary([NEW_INSTANCE] + [0] * 100)
        game = Game(cluster_factory, 1 << 16, adversary, seed=1)
        result = game.run(max_steps=10)
        assert result.steps == 10

    def test_transcript_kept_on_request(self):
        adversary = ScriptedAdversary([NEW_INSTANCE, 0, 0])
        game = Game(
            cluster_factory, 1 << 10, adversary, seed=3, keep_transcript=True
        )
        result = game.run()
        assert len(result.transcript) == 3
        assert all(instance == 0 for instance, _ in result.transcript)

    def test_collision_detection_forced(self):
        """m=1: every second request collides."""
        adversary = ScriptedAdversary([NEW_INSTANCE, NEW_INSTANCE])
        game = Game(cluster_factory, 1, adversary, seed=1)
        result = game.run()
        assert result.collided
        assert result.collision_step == 2

    def test_stop_on_collision(self):
        adversary = ScriptedAdversary(
            [NEW_INSTANCE, NEW_INSTANCE, NEW_INSTANCE, NEW_INSTANCE]
        )
        game = Game(cluster_factory, 2, adversary, seed=1, stop_on_collision=True)
        result = game.run()
        assert result.collided
        # At m=2, a collision must happen by the 3rd activation at latest;
        # the game stops at the first one.
        assert result.steps <= 3

    def test_exhaustion_reported(self):
        adversary = ScriptedAdversary([NEW_INSTANCE] + [0] * 10)
        game = Game(
            cluster_factory, 4, adversary, seed=1, stop_on_collision=False
        )
        result = game.run()
        assert result.exhausted
        assert result.steps == 4

    def test_family_enforced(self):
        adversary = ScriptedAdversary([NEW_INSTANCE, NEW_INSTANCE, 0])
        game = Game(
            cluster_factory,
            1 << 20,
            adversary,
            seed=1,
            family=family_d1(3, 10),  # needs exactly 3 instances
        )
        with pytest.raises(GameError):
            game.run()

    def test_instances_get_independent_rngs(self):
        adversary = ScriptedAdversary([NEW_INSTANCE, NEW_INSTANCE])
        game = Game(
            cluster_factory, 1 << 30, adversary, seed=7, keep_transcript=True
        )
        result = game.run()
        first_ids = [value for _, value in result.transcript]
        assert first_ids[0] != first_ids[1]


class TestGameView:
    def test_view_records(self):
        view = GameView(100)
        view._record(0, 42, False)
        view._record(1, 42, True)
        assert view.num_instances == 2
        assert view.steps == 2
        assert view.collided
        assert view.collision_step == 2
        assert view.ids_of(0) == (42,)
        assert view.last_id_of(1) == 42
        assert view.counts() == (1, 1)

    def test_last_id_of_empty_instance(self):
        view = GameView(10)
        view._record(0, 1, False)
        with pytest.raises(IndexError):
            view.ids_of(3)

    def test_events_since(self):
        view = GameView(10)
        view._record(0, 1, False)
        view._record(0, 2, False)
        assert list(view.events_since(1)) == [(0, 2)]


class TestObliviousAdversary:
    @pytest.mark.parametrize("order", ["sequential", "round_robin", "random"])
    def test_realizes_profile(self, order):
        profile = DemandProfile.of(3, 1, 2)
        adversary = ObliviousAdversary(
            profile, order=order, rng=random.Random(5)
        )
        game = Game(
            cluster_factory, 1 << 20, adversary, seed=2,
            stop_on_collision=False,
        )
        result = game.run()
        assert sorted(result.profile.demands) == sorted(profile.demands)
        assert result.steps == profile.total

    def test_unknown_order(self):
        with pytest.raises(GameError):
            ObliviousAdversary(DemandProfile.of(1, 1), order="zigzag")

    def test_round_robin_interleaves(self):
        profile = DemandProfile.of(2, 2)
        adversary = ObliviousAdversary(profile, order="round_robin")
        game = Game(
            cluster_factory, 1 << 16, adversary, seed=2,
            stop_on_collision=False, keep_transcript=True,
        )
        result = game.run()
        instances = [instance for instance, _ in result.transcript]
        assert instances == [0, 1, 0, 1]


#: Fixed profiles of 1-7 instances with demands 1-11, built without an RNG.
GOLDEN_PROFILES = [
    DemandProfile(tuple(1 + (7 * k + 13 * i) % 11 for i in range(1 + k % 7)))
    for k in range(40)
]


def request_stream(adversary):
    """Every request ``adversary`` makes in a game that grants them all."""
    view = GameView(1 << 30)
    stream = []
    request = adversary.next_request(view)
    while request is not None:
        stream.append(request)
        instance = view.num_instances if request == NEW_INSTANCE else request
        view._record(instance, len(stream), False)
        request = adversary.next_request(view)
    return stream


def crc32_of(streams):
    return zlib.crc32(repr(streams).encode())


class TestRequestStreamGolden:
    """CRC32 digests of the request streams themselves: a schedule
    change that keeps every profile but reorders requests fails here."""

    @pytest.mark.parametrize(
        "order, seeds, digest",
        [
            ("sequential", [0], 0xC045C472),
            ("round_robin", [0], 0xC356B8B6),
            ("random", [0, 1, 2, 3, 4], 0xBC7412E5),
        ],
    )
    def test_oblivious_adversary_streams(self, order, seeds, digest):
        streams = [
            request_stream(
                ObliviousAdversary(profile, order=order, rng=random.Random(seed))
            )
            for profile in GOLDEN_PROFILES
            for seed in seeds
        ]
        assert crc32_of(streams) == digest

    @pytest.mark.parametrize(
        "order, digest",
        [("sequential", 0xC2C511A5), ("round_robin", 0xB36FEA9D)],
    )
    def test_demand_sequence_steps(self, order, digest):
        steps = [
            DemandSequence.from_profile(profile, order=order).steps
            for profile in GOLDEN_PROFILES
        ]
        assert crc32_of(steps) == digest


class TestPlayProfile:
    def test_returns_full_profile(self):
        result = play_profile(
            cluster_factory, 1 << 16, DemandProfile.of(4, 4), seed=3
        )
        assert result.profile.demands == (4, 4)

    def test_reproducible(self):
        a = play_profile(
            lambda m, rng: RandomGenerator(m, rng),
            1 << 10,
            DemandProfile.of(8, 8),
            seed=11,
        )
        b = play_profile(
            lambda m, rng: RandomGenerator(m, rng),
            1 << 10,
            DemandProfile.of(8, 8),
            seed=11,
        )
        assert a.collided == b.collided


class ScriptedRuns(Adversary):
    """Plays ``(logical instance, count)`` runs; the first run on a
    logical instance activates it. Offers the runs through
    :meth:`next_run` and the same requests one at a time through
    :meth:`next_request`."""

    def __init__(self, script):
        self.script = list(script)
        self.cursor = 0
        self.engine_index = {}
        self.current = None
        self.left = 0  # single requests left in the current run

    def _take_run(self, view):
        if self.cursor >= len(self.script):
            return None
        logical, count = self.script[self.cursor]
        self.cursor += 1
        if logical in self.engine_index:
            self.current = self.engine_index[logical]
            return self.current, count
        self.current = self.engine_index[logical] = view.num_instances
        return NEW_INSTANCE, count

    def next_run(self, view):
        return self._take_run(view)

    def next_request(self, view):
        if self.left == 0:
            run = self._take_run(view)
            if run is None:
                return None
            choice, self.left = run
        else:
            choice = self.current
        self.left -= 1
        return choice


class StepOnly(Adversary):
    """``inner`` offering only ``next_request``: every request is a run
    of one, the engine's per-step path."""

    def __init__(self, inner):
        self.inner = inner

    def begin(self, view):
        self.inner.begin(view)

    def next_request(self, view):
        return self.inner.next_request(view)


def outcome(spec, m, adversary, seed, stop_on_collision, max_steps):
    result = Game(
        lambda m, rng: make_generator(spec, m, rng), m, adversary, seed=seed,
        stop_on_collision=stop_on_collision, keep_transcript=True,
    ).run(max_steps=max_steps)
    return (
        result.collided, result.collision_step, result.steps,
        result.profile, result.transcript, result.exhausted,
    )


def assert_runs_match_steps(spec, m, make_adversary, seed, stop, max_steps):
    ran = outcome(spec, m, make_adversary(), seed, stop, max_steps)
    stepped = outcome(spec, m, StepOnly(make_adversary()), seed, stop, max_steps)
    assert ran == stepped
    return ran


class TestRunRequests:
    """A run request plays exactly like its single requests."""

    @given(
        spec=st.sampled_from(["cluster", "cluster*", "random", "bins:4"]),
        m=st.integers(4, 48),
        script=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 40)),
            min_size=1, max_size=10,
        ),
        seed=st.integers(0, 2**32),
        stop=st.booleans(),
        max_steps=st.none() | st.integers(1, 120),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_scripted_runs_match_single_requests(
        self, spec, m, script, seed, stop, max_steps
    ):
        assert_runs_match_steps(
            spec, m, lambda: ScriptedRuns(script), seed, stop, max_steps
        )

    @given(
        spec=st.sampled_from(["cluster", "cluster*"]),
        m=st.integers(8, 256),
        n=st.integers(2, 5),
        extra=st.integers(0, 300),
        seed=st.integers(0, 2**32),
        stop=st.booleans(),
        max_steps=st.none() | st.integers(1, 200),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_closest_pair_runs_match_single_requests(
        self, spec, m, n, extra, seed, stop, max_steps
    ):
        assert_runs_match_steps(
            spec, m, lambda: ClosestPairAttack(n, n + extra), seed, stop,
            max_steps,
        )

    # Cluster at m=16, seed 1: instance 1's run of 30 wraps into
    # instance 0's only ID, then runs out of IDs at the 16th.
    CRASH = [(0, 1), (1, 1), (1, 30)]

    def test_run_cut_by_max_steps(self):
        collided, _, steps, profile, _, exhausted = assert_runs_match_steps(
            "cluster", 1 << 20, lambda: ScriptedRuns([(0, 1), (1, 50)]), 1,
            True, 20,
        )
        assert (steps, profile.demands, collided, exhausted) == (
            20, (1, 19), False, False,
        )

    def test_exhaustion_inside_a_run(self):
        collided, _, steps, _, _, exhausted = assert_runs_match_steps(
            "cluster", 16, lambda: ScriptedRuns([(0, 30)]), 1, True, None,
        )
        assert (steps, collided, exhausted) == (16, False, True)

    def test_collision_then_exhaustion_with_stop(self):
        # The game ends at the collision, before the instance runs out.
        collided, step, steps, _, _, exhausted = assert_runs_match_steps(
            "cluster", 16, lambda: ScriptedRuns(self.CRASH), 1, True, None,
        )
        assert collided and not exhausted
        assert step == steps < 17

    def test_collision_then_exhaustion_without_stop(self):
        collided, step, steps, _, _, exhausted = assert_runs_match_steps(
            "cluster", 16, lambda: ScriptedRuns(self.CRASH), 1, False, None,
        )
        assert collided and exhausted
        assert step < steps == 17

    def test_run_of_zero_rejected(self):
        game = Game(cluster_factory, 64, ScriptedRuns([(0, 0)]), seed=1)
        with pytest.raises(GameError, match="run of 0"):
            game.run()
