"""Unit tests for repro.analysis.exact beyond the brute-force oracle."""

from fractions import Fraction

import pytest

from repro.adversary.profiles import DemandProfile
from repro.analysis.exact import (
    bins_collision_probability,
    bins_star_collision_probability,
    cluster_collision_probability,
    cluster_pairwise_collision,
    exact_collision_probability,
    random_collision_probability,
    skew_aware_pair_collision,
)
from repro.errors import ConfigurationError


class TestValidation:
    def test_demand_beyond_universe(self):
        with pytest.raises(ConfigurationError):
            cluster_collision_probability(4, DemandProfile.of(5, 1))

    def test_bins_k_out_of_range(self):
        with pytest.raises(ConfigurationError):
            bins_collision_probability(8, 9, DemandProfile.of(1, 1))

    def test_bins_two_overflowing_instances_certain_collision(self):
        # m=7, k=2 -> 3 bins, capacity 6; two demands of 7 overflow.
        assert (
            bins_collision_probability(7, 2, DemandProfile.of(7, 7)) == 1
        )

    def test_bins_single_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            bins_collision_probability(7, 2, DemandProfile.of(7, 1))

    def test_bins_star_demand_beyond_schedule(self):
        with pytest.raises(ConfigurationError):
            bins_star_collision_probability(16, DemandProfile.of(100, 1))


class TestClusterPairwise:
    def test_formula(self):
        assert cluster_pairwise_collision(100, 3, 5) == Fraction(7, 100)

    def test_clamped_at_one(self):
        assert cluster_pairwise_collision(5, 4, 4) == 1

    def test_pair_profile_consistency(self):
        """For n=2 the pairwise event IS the collision event."""
        for m, a, b in [(50, 4, 9), (30, 1, 1), (64, 10, 3)]:
            assert cluster_collision_probability(
                m, DemandProfile.of(a, b)
            ) == cluster_pairwise_collision(m, a, b)


class TestDispatch:
    def test_known_specs(self):
        profile = DemandProfile.of(2, 3)
        m = 64
        assert exact_collision_probability(
            "random", m, profile
        ) == random_collision_probability(m, profile)
        assert exact_collision_probability(
            "cluster", m, profile
        ) == cluster_collision_probability(m, profile)
        assert exact_collision_probability(
            "bins:4", m, profile
        ) == bins_collision_probability(m, 4, profile)
        assert exact_collision_probability(
            "bins*", m, profile
        ) == bins_star_collision_probability(m, profile)

    def test_no_closed_form(self):
        with pytest.raises(ConfigurationError):
            exact_collision_probability(
                "cluster*", 64, DemandProfile.of(2, 3)
            )


class TestMonotonicity:
    """Structural sanity: more demand can only hurt."""

    def test_cluster_monotone_in_demand(self):
        m = 1 << 12
        previous = Fraction(0)
        for d in (1, 2, 8, 32, 128):
            current = cluster_collision_probability(
                m, DemandProfile.of(d, d)
            )
            assert current >= previous
            previous = current

    def test_random_monotone_in_instances(self):
        m = 1 << 12
        previous = Fraction(0)
        for n in (2, 3, 5, 9):
            current = random_collision_probability(
                m, DemandProfile.uniform(n, 8)
            )
            assert current >= previous
            previous = current

    def test_bins_star_rounding_invariance(self):
        """Lemma 19: Bins* only sees the rounded profile."""
        m = 1 << 14
        rough = DemandProfile.of(9, 70, 3)
        rounded = DemandProfile.of(8, 64, 2)  # powers of two below
        assert bins_star_collision_probability(
            m, rough
        ) == bins_star_collision_probability(m, rounded)


class TestSkewAwarePair:
    def test_theta_i_over_m(self):
        m = 1 << 16
        for i, j in [(1, 1), (4, 64), (16, 1024)]:
            p = skew_aware_pair_collision(m, i, j)
            assert Fraction(i, m) / 2 <= p <= Fraction(4 * i, m)

    def test_degenerate_full_space(self):
        assert skew_aware_pair_collision(4, 2, 4) == Fraction(1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            skew_aware_pair_collision(10, 5, 3)


class TestHugeUniverse:
    """The repro hint: arbitrary-precision m must just work."""

    def test_128_bit_cluster(self):
        m = 1 << 128
        p = cluster_collision_probability(
            m, DemandProfile.uniform(100, 1 << 40)
        )
        # ≈ n²·h/m = 10^4·2^40/2^128 ≈ 2^{-74.7}
        assert Fraction(1, 1 << 80) < p < Fraction(1, 1 << 70)

    def test_128_bit_random_estimate_path(self):
        m = 1 << 128
        p = random_collision_probability(
            m, DemandProfile.uniform(4, 1 << 20)
        )
        assert 0 <= float(p) < 1e-30

    def test_128_bit_bins_star(self):
        m = 1 << 128
        p = bins_star_collision_probability(
            m, DemandProfile.of(1 << 30, 1 << 10)
        )
        assert 0 < float(p) < 1e-20
