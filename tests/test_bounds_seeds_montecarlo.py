"""Unit tests for bound formulas, seed derivation, and the MC estimator."""

import pytest

from repro.adversary.profiles import DemandProfile
from repro.analysis.bounds import (
    corollary3_random,
    corollary5_cluster_worst_case,
    corollary5_random_worst_case,
    lemma7_adaptive_cluster,
    lemma20_rank_lower_bound,
    lemma22_bins_star_upper,
    lemma24_pair_optimum,
    log_log_slope,
    theorem1_cluster,
    theorem2_bins,
    theorem6_lower_bound,
    theorem8_cluster_star,
    theorem9_competitive_target,
    theorem11_adaptive_factor,
)
from repro.core.cluster import ClusterGenerator
from repro.errors import ConfigurationError
from repro.simulation.montecarlo import estimate_profile_collision
from repro.simulation.seeds import derive_seed, rng_for, seed_stream
from repro.simulation.stats import wilson_interval


class TestBoundFormulas:
    def test_theorem1(self):
        profile = DemandProfile.of(10, 10)
        assert theorem1_cluster(1000, profile) == pytest.approx(0.04)
        assert theorem1_cluster(10, profile) == 1.0  # clamped

    def test_theorem2_terms(self):
        profile = DemandProfile.uniform(2, 10)
        m, k = 10_000, 5
        expected = (400 - 200) / (5 * m) + 2 * 20 / m + 4 * 5 / m
        assert theorem2_bins(m, k, profile) == pytest.approx(expected)

    def test_theorem2_validation(self):
        with pytest.raises(ConfigurationError):
            theorem2_bins(10, 11, DemandProfile.of(1, 1))

    def test_corollary3(self):
        profile = DemandProfile.of(3, 4)
        assert corollary3_random(1000, profile) == pytest.approx(
            (49 - 25) / 1000
        )

    def test_corollary5_pair(self):
        assert corollary5_cluster_worst_case(1000, 4, 100) == pytest.approx(
            0.4
        )
        assert corollary5_random_worst_case(1 << 20, 4, 512) == pytest.approx(
            512 * 512 / (1 << 20)
        )

    def test_theorem6_matches_cluster_worst_case(self):
        assert theorem6_lower_bound(
            1 << 20, 8, 100
        ) == corollary5_cluster_worst_case(1 << 20, 8, 100)

    def test_lemma7_factor_n_above_theorem1(self):
        m, n, d = 1 << 20, 16, 256
        assert lemma7_adaptive_cluster(m, n, d) == pytest.approx(
            n * corollary5_cluster_worst_case(m, n, d)
        )

    def test_theorem8_between_thm6_and_lemma7(self):
        m, n, d = 1 << 24, 16, 4096
        assert (
            theorem6_lower_bound(m, n, d)
            <= theorem8_cluster_star(m, n, d)
            <= lemma7_adaptive_cluster(m, n, d)
        )

    def test_theorem8_validation(self):
        with pytest.raises(ConfigurationError):
            theorem8_cluster_star(100, 4, 2)

    def test_lemma20_and_22_are_log_m_apart(self):
        m = 1 << 16
        ranks = (0, 3, 2)
        assert lemma22_bins_star_upper(m, ranks) == pytest.approx(
            min(1.0, 16 * lemma20_rank_lower_bound(m, ranks))
            if lemma20_rank_lower_bound(m, ranks) * 16 <= 1
            else lemma22_bins_star_upper(m, ranks)
        )

    def test_lemma24(self):
        assert lemma24_pair_optimum(1000, 10, 50) == pytest.approx(0.01)

    def test_targets(self):
        assert theorem9_competitive_target(1 << 16) == 16
        assert theorem11_adaptive_factor() == 4.0


class TestLogLogSlope:
    def test_perfect_power_law(self):
        xs = [1, 2, 4, 8, 16]
        ys = [x**2.5 for x in xs]
        assert log_log_slope(xs, ys) == pytest.approx(2.5)

    def test_skips_nonpositive(self):
        assert log_log_slope([1, 2, 0, 4], [1, 4, 9, 16]) == pytest.approx(
            2.0
        )

    def test_degenerate_rejected(self):
        with pytest.raises(ConfigurationError):
            log_log_slope([1], [1])
        with pytest.raises(ConfigurationError):
            log_log_slope([2, 2], [1, 4])


class TestSeeds:
    def test_deterministic(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)

    def test_path_sensitivity(self):
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
        assert derive_seed(42, 12) != derive_seed(42, 1, 2)

    def test_root_sensitivity(self):
        assert derive_seed(1, 5) != derive_seed(2, 5)

    def test_rng_for_reproducible(self):
        a = rng_for(7, 1).random()
        b = rng_for(7, 1).random()
        assert a == b

    def test_seed_stream_distinct(self):
        stream = seed_stream(3)
        values = [next(stream) for _ in range(100)]
        assert len(set(values)) == 100

    def test_avalanche(self):
        """Adjacent roots should differ in ~half their bits."""
        differing = bin(derive_seed(1000, 0) ^ derive_seed(1001, 0)).count(
            "1"
        )
        assert 10 <= differing <= 54


class TestWilson:
    def test_contains_true_proportion(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high

    def test_extreme_counts(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0 and high < 0.06
        low, high = wilson_interval(100, 100)
        assert low > 0.94 and high == 1.0

    def test_narrower_with_more_trials(self):
        narrow = wilson_interval(500, 1000)
        wide = wilson_interval(5, 10)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(1, 0)
        with pytest.raises(ConfigurationError):
            wilson_interval(1, 10, confidence=2.0)


class TestEstimator:
    @pytest.mark.slow
    def test_coverage_against_exact(self):
        """The CI should cover the exact value (seeded: deterministic)."""
        from repro.analysis.exact import cluster_collision_probability

        m = 1 << 10
        profile = DemandProfile.of(16, 16)
        exact = float(cluster_collision_probability(m, profile))
        estimate = estimate_profile_collision(
            lambda mm, rr: ClusterGenerator(mm, rr),
            m,
            profile,
            trials=3000,
            seed=21,
        )
        assert estimate.ci_low - 0.01 <= exact <= estimate.ci_high + 0.01

    def test_reproducibility(self):
        m = 1 << 10
        profile = DemandProfile.of(16, 16)
        kwargs = dict(trials=200, seed=5)
        a = estimate_profile_collision(
            lambda mm, rr: ClusterGenerator(mm, rr), m, profile, **kwargs
        )
        b = estimate_profile_collision(
            lambda mm, rr: ClusterGenerator(mm, rr), m, profile, **kwargs
        )
        assert a.probability == b.probability

    def test_trials_validation(self):
        with pytest.raises(ConfigurationError):
            estimate_profile_collision(
                lambda mm, rr: ClusterGenerator(mm, rr),
                100,
                DemandProfile.of(1, 1),
                trials=0,
            )

    def test_str_rendering(self):
        estimate = estimate_profile_collision(
            lambda mm, rr: ClusterGenerator(mm, rr),
            1 << 10,
            DemandProfile.of(4, 4),
            trials=50,
            seed=1,
        )
        text = str(estimate)
        assert "/" in text and "[" in text
