"""The SimulationPlan seam (repro.simulation.plan) and adaptive stopping.

Four guarantees are under test:

* **Split invariance** — for a fixed plan the estimate (including the
  adaptive stopping point) is bit-identical across ``workers=``
  counts and against the game loop, on both RNG universes (python and
  numpy).
* **Adaptive precision** — with ``target_halfwidth`` set, sampling
  stops at the first Wilson checkpoint at or under the target
  (validated against analytically known probabilities from
  :mod:`repro.analysis.exact`), and an unreachable target runs the cap
  exactly while still returning a valid Wilson interval.
* **Closed engine set** — ``python`` and ``numpy`` are the only
  engine names (:data:`ENGINES`), and unknown names fail with both
  listed, in the plan and in :func:`count_range`.
* **No shims** — the pre-plan ``workers=``/``batch=``/``engine=``
  kwargs and ``ExperimentConfig(workers=, engine=)`` are gone, and the
  numpy-missing fallback warning fires once per process, pointing at
  the caller's line.

All tests here carry the ``plan`` marker (CI's dedicated fast lane).
"""

import functools
import warnings
from dataclasses import replace

import pytest

from repro.adversary.attacks import ClosestPairAttack
from repro.adversary.base import ObliviousAdversary
from repro.adversary.profiles import DemandProfile
from repro.analysis.exact import cluster_collision_probability
from repro.errors import ConfigurationError
from repro.experiments.framework import ExperimentConfig
from repro.simulation import batch as batch_module
from repro.simulation import engines as engines_module
from repro.simulation import vectorized
from repro.simulation.batch import AttackFactory, ObliviousFactory, SpecFactory
from repro.simulation.montecarlo import (
    estimate_collision_probability,
    estimate_profile_collision,
)
from repro.simulation.plan import ENGINES, SimulationPlan
from repro.simulation.stats import wilson_interval

pytestmark = pytest.mark.plan

M = 1 << 14
PROFILE = DemandProfile.of(48, 24, 12, 6)


def _estimate(plan, trials=2000, seed=17, spec="cluster"):
    return estimate_profile_collision(
        SpecFactory(spec), M, PROFILE, trials=trials, seed=seed, plan=plan
    )


# ---------------------------------------------------------------------------
# Split invariance: same plan => bit-identical estimate
# ---------------------------------------------------------------------------


class TestSplitInvariance:
    @pytest.mark.parametrize("engine", ["python", "numpy"])
    def test_adaptive_identical_across_workers_and_rounds(self, engine):
        if engine == "numpy" and not vectorized.numpy_available():
            pytest.skip("NumPy not installed")
        base = SimulationPlan(engine=engine, target_halfwidth=0.02)
        estimates = [
            _estimate(replace(base, workers=workers))
            for workers in (None, 2, 3)
        ]
        assert all(e == estimates[0] for e in estimates)
        # the plan stopped early, so the invariance covered >1 round
        assert estimates[0].trials < 2000

    def test_adaptive_identical_across_batch_modes(self):
        """The generate_batch fast path and the game loop agree; the
        game loop is reached through an adversary factory the fast path
        does not admit."""
        plan = SimulationPlan(target_halfwidth=0.02)
        game_loop = estimate_collision_probability(
            SpecFactory("cluster"), M,
            functools.partial(ObliviousAdversary, PROFILE, "sequential"),
            trials=2000, seed=17, plan=plan,
        )
        assert _estimate(plan) == game_loop

    def test_adaptive_attack_workload_identical_across_workers(self):
        plan = SimulationPlan(target_halfwidth=0.05)
        results = [
            estimate_collision_probability(
                SpecFactory("cluster"),
                M,
                AttackFactory(ClosestPairAttack, n=6, d=96),
                trials=400,
                seed=23,
                plan=replace(plan, workers=workers),
            )
            for workers in (None, 2, 4)
        ]
        assert results[0] == results[1] == results[2]

    def test_adaptive_result_is_a_fixed_mode_prefix(self):
        """Stopping early must not change what was sampled: the adaptive
        estimate equals the fixed-mode estimate at its own stop count."""
        adaptive = _estimate(SimulationPlan(target_halfwidth=0.02))
        fixed = _estimate(SimulationPlan(), trials=adaptive.trials)
        assert adaptive == fixed


# ---------------------------------------------------------------------------
# Adaptive precision: early stop and the cap path
# ---------------------------------------------------------------------------


class TestAdaptiveStopping:
    def test_early_stop_honors_target_on_known_probability(self):
        exact = float(cluster_collision_probability(M, PROFILE))
        target = 0.03
        estimate = _estimate(
            SimulationPlan(target_halfwidth=target), trials=50_000
        )
        assert estimate.halfwidth <= target
        assert estimate.trials < 50_000
        # the interval it stopped at still covers the analytic truth
        assert estimate.ci_low <= exact <= estimate.ci_high

    def test_tighter_target_needs_more_trials(self):
        loose = _estimate(
            SimulationPlan(target_halfwidth=0.05), trials=100_000
        )
        tight = _estimate(
            SimulationPlan(target_halfwidth=0.01), trials=100_000
        )
        assert tight.trials > loose.trials
        assert tight.halfwidth <= 0.01

    def test_unreachable_target_runs_the_cap_with_valid_wilson_ci(self):
        cap = 700
        estimate = _estimate(
            SimulationPlan(target_halfwidth=1e-6), trials=cap
        )
        assert estimate.trials == cap
        low, high = wilson_interval(
            estimate.successes, cap, estimate.confidence
        )
        assert (estimate.ci_low, estimate.ci_high) == (low, high)
        # and the cap path is bit-identical to plain fixed mode
        assert estimate == _estimate(SimulationPlan(), trials=cap)

    def test_checkpoint_schedule_is_pure_and_capped(self):
        plan = SimulationPlan(
            target_halfwidth=0.01, min_trials=100, growth=2.0
        )
        assert list(plan.checkpoints(1000)) == [100, 200, 400, 800, 1000]
        assert list(plan.checkpoints(64)) == [64]
        assert list(SimulationPlan().checkpoints(500)) == [500]

    def test_resolve_cap_precedence(self):
        assert SimulationPlan().resolve_cap(300) == 300
        assert SimulationPlan(max_trials=200).resolve_cap(300) == 200
        assert SimulationPlan(max_trials=200).resolve_cap(150) == 150
        assert SimulationPlan(max_trials=200).resolve_cap(None) == 200
        with pytest.raises(ConfigurationError):
            SimulationPlan().resolve_cap(None)
        with pytest.raises(ConfigurationError):
            SimulationPlan().resolve_cap(0)

    def test_plan_validation(self):
        for bad in (
            dict(engine=""),
            dict(workers=-1),
            dict(confidence=1.0),
            dict(target_halfwidth=0.0),
            dict(target_halfwidth=1.5),
            dict(min_trials=0),
            dict(growth=1.0),
            dict(max_trials=0),
        ):
            with pytest.raises(ConfigurationError):
                SimulationPlan(**bad)


# ---------------------------------------------------------------------------
# The two engines
# ---------------------------------------------------------------------------


class TestEngines:
    def test_exactly_two_engines(self):
        assert ENGINES == ("python", "numpy")
        for name in ENGINES:
            assert SimulationPlan(engine=name).engine == name

    def test_unknown_engine_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="python, numpy"):
            SimulationPlan(engine="turbo")

    def test_count_range_rejects_unknown_engine_kinds(self):
        with pytest.raises(ConfigurationError, match="python, numpy"):
            batch_module.count_range(
                SpecFactory("cluster"), M, ObliviousFactory(PROFILE),
                0, 0, 10, kind="numpyy",
            )


# ---------------------------------------------------------------------------
# The removed pre-plan shims and warning hygiene
# ---------------------------------------------------------------------------


class TestDeprecatedShims:
    def test_pre_plan_kwargs_are_gone(self):
        for legacy in (dict(workers=2), dict(batch=True), dict(engine="numpy")):
            with pytest.raises(TypeError):
                estimate_profile_collision(
                    SpecFactory("cluster"), M, PROFILE, trials=10, **legacy
                )
        with pytest.raises(TypeError):
            ExperimentConfig(workers=3)

    def test_plan_api_emits_no_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            _estimate(SimulationPlan(workers=2), trials=100)
            ExperimentConfig(plan=SimulationPlan())

    def test_numpy_fallback_warns_once_per_process(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_np", None)
        monkeypatch.setattr(engines_module, "_numpy_fallback_warned", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = _estimate(SimulationPlan(engine="numpy"), trials=50)
            second = _estimate(SimulationPlan(engine="numpy"), trials=50)
        runtime = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(runtime) == 1, runtime
        assert "NumPy is not installed" in str(runtime[0].message)
        # the warning points at the line that called estimate_*
        assert runtime[0].filename == __file__
        # the fallback really ran the python universe
        assert first == second == _estimate(SimulationPlan(), trials=50)
