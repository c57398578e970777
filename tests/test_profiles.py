"""Unit tests for demand profiles and families (repro.adversary.profiles)."""

import math
import random

import pytest

from repro.adversary.profiles import (
    DemandProfile,
    ProfileFamily,
    count_profiles_d1,
    family_d1,
    family_dinf,
    is_epsilon_good,
    sample_profile_d1,
    zipf_profile,
)
from repro.errors import ProfileError


class TestDemandProfile:
    def test_norms(self):
        profile = DemandProfile.of(3, 4, 5)
        assert profile.n == 3
        assert profile.total == 12
        assert profile.l2_squared == 50
        assert profile.max_demand == 5

    def test_uniform(self):
        profile = DemandProfile.uniform(4, 7)
        assert profile.demands == (7, 7, 7, 7)

    def test_rejects_zero_demand(self):
        with pytest.raises(ProfileError):
            DemandProfile.of(3, 0)

    def test_trivial(self):
        assert DemandProfile.of(5).is_trivial
        assert not DemandProfile.of(5, 1).is_trivial

    def test_iteration_and_indexing(self):
        profile = DemandProfile.of(1, 2, 3)
        assert list(profile) == [1, 2, 3]
        assert profile[1] == 2
        assert len(profile) == 3


class TestRounding:
    def test_paper_example(self):
        """§7.2: D = (9, 5, 4, 42) rounds to D⁻ = (8, 4, 4, 8)."""
        assert DemandProfile.of(9, 5, 4, 42).rounded().demands == (
            8, 4, 4, 8,
        )

    def test_no_unique_max_untouched(self):
        assert DemandProfile.of(8, 8, 2).rounded().demands == (8, 8, 2)

    def test_idempotent(self):
        for demands in [(9, 5, 4, 42), (7, 7), (1, 2, 3, 4, 100)]:
            once = DemandProfile(demands).rounded()
            assert once.rounded() == once

    def test_rank_distribution(self):
        profile = DemandProfile.of(8, 4, 4, 8)
        # ranks: 2^0:0, 2^1:0, 2^2:2, 2^3:2
        assert profile.rank_distribution() == (0, 0, 2, 2)

    def test_rank_distribution_rejects_non_powers(self):
        with pytest.raises(ProfileError):
            DemandProfile.of(3, 4).rank_distribution()

    def test_rank_distribution_reconstructs_profile(self):
        profile = DemandProfile.of(1, 2, 2, 16).rounded()
        ranks = profile.rank_distribution()
        rebuilt = []
        for index, count in enumerate(ranks):
            rebuilt.extend([1 << index] * count)
        assert sorted(rebuilt) == sorted(profile.demands)


class TestEpsilonGood:
    def test_uniform_is_good(self):
        profile = DemandProfile.uniform(10, 8)
        assert is_epsilon_good(profile, 0.25)

    def test_highly_skewed_is_bad(self):
        # One entry has everything: only 1 entry > εd/n for n=20.
        profile = DemandProfile((981,) + (1,) * 19)
        assert not is_epsilon_good(profile, 0.25)

    def test_epsilon_validation(self):
        with pytest.raises(ProfileError):
            is_epsilon_good(DemandProfile.of(1, 1), 0.75)


class TestSampling:
    def test_sample_in_family(self):
        rng = random.Random(5)
        for _ in range(50):
            profile = sample_profile_d1(5, 40, rng)
            assert profile.n == 5
            assert profile.total == 40
            assert all(d >= 1 for d in profile)

    def test_count_matches_formula(self):
        assert count_profiles_d1(3, 6) == math.comb(5, 2)

    def test_sample_uniformity_small_case(self):
        """D1(2, 4) = {(1,3),(2,2),(3,1)} — each must appear ~1/3."""
        rng = random.Random(9)
        counts = {}
        trials = 3000
        for _ in range(trials):
            profile = sample_profile_d1(2, 4, rng)
            counts[profile.demands] = counts.get(profile.demands, 0) + 1
        assert set(counts) == {(1, 3), (2, 2), (3, 1)}
        for value in counts.values():
            assert abs(value - trials / 3) < trials * 0.08

    def test_sample_validation(self):
        with pytest.raises(ProfileError):
            sample_profile_d1(5, 3, random.Random(0))


class TestGenerators:
    def test_zipf_total_exact(self):
        rng = random.Random(1)
        for skew in (0.5, 1.0, 2.0):
            profile = zipf_profile(6, 100, skew, rng)
            assert profile.total == 100
            assert profile.n == 6
            assert all(d >= 1 for d in profile)

    def test_zipf_validation(self):
        with pytest.raises(ProfileError):
            zipf_profile(10, 5, 1.0, random.Random(0))


class TestFamilies:
    def test_d1_membership(self):
        family = family_d1(3, 10)
        assert family.contains(DemandProfile.of(5, 3, 2))
        assert not family.contains(DemandProfile.of(5, 5))
        assert not family.contains(DemandProfile.of(4, 3, 2))

    def test_dinf_membership(self):
        family = family_dinf(4, 5)
        assert family.contains(DemandProfile.of(5, 5))
        assert family.contains(DemandProfile.of(1, 1, 1, 1))
        assert not family.contains(DemandProfile.of(6, 1))
        assert not family.contains(DemandProfile.of(1, 1, 1, 1, 1))

    def test_family_validation(self):
        with pytest.raises(ProfileError):
            ProfileFamily(kind="weird", n=3, bound=5)
        with pytest.raises(ProfileError):
            family_d1(1, 5)
