"""Unit tests for the five ID-generation algorithms (repro.core)."""

import random

import pytest

from repro.core import (
    BinsGenerator,
    BinsStarGenerator,
    ClusterGenerator,
    ClusterStarGenerator,
    RandomGenerator,
    SkewAwareGenerator,
)
from repro.errors import ConfigurationError, IDSpaceExhaustedError

ALL_FACTORIES = [
    ("random", lambda m, rng: RandomGenerator(m, rng)),
    ("cluster", lambda m, rng: ClusterGenerator(m, rng)),
    ("bins3", lambda m, rng: BinsGenerator(m, 3, rng)),
    ("bins1", lambda m, rng: BinsGenerator(m, 1, rng)),
    ("cluster_star", lambda m, rng: ClusterStarGenerator(m, rng)),
    ("bins_star", lambda m, rng: BinsStarGenerator(m, rng)),
    ("skew_aware", lambda m, rng: SkewAwareGenerator(m, 4, 16, rng)),
]


@pytest.mark.parametrize("name,factory", ALL_FACTORIES)
def test_ids_in_range_and_distinct(name, factory):
    m = 256  # large enough that even Bins*'s 2^C−1 schedule covers count
    generator = factory(m, random.Random(7))
    count = 30
    ids = generator.take(count)
    assert len(ids) == count
    assert all(0 <= value < m for value in ids)
    assert len(set(ids)) == count, f"{name} repeated an ID"


@pytest.mark.parametrize("name,factory", ALL_FACTORIES)
def test_count_tracks_production(name, factory):
    generator = factory(256, random.Random(3))
    assert generator.count == 0
    generator.take(5)
    assert generator.count == 5


@pytest.mark.parametrize(
    "name,factory",
    [f for f in ALL_FACTORIES if f[0] not in ("bins_star", "cluster_star")],
)
def test_full_exhaustion_is_a_permutation(name, factory):
    m = 24
    generator = factory(m, random.Random(11))
    ids = generator.take(m)
    assert sorted(ids) == list(range(m))
    with pytest.raises(IDSpaceExhaustedError):
        generator.next_id()


def test_invalid_universe_rejected():
    with pytest.raises(ConfigurationError):
        RandomGenerator(0)
    with pytest.raises(ConfigurationError):
        ClusterGenerator(-5)


def test_take_negative_rejected():
    with pytest.raises(ConfigurationError):
        RandomGenerator(10).take(-1)


# -- Random ---------------------------------------------------------------


def test_random_dense_fallback_consistency():
    """Crossing the 50% density boundary must not repeat or skip IDs."""
    m = 40
    generator = RandomGenerator(m, random.Random(5))
    ids = generator.take(m)
    assert sorted(ids) == list(range(m))


def test_random_huge_universe():
    generator = RandomGenerator(1 << 128, random.Random(1))
    ids = generator.take(100)
    assert len(set(ids)) == 100
    assert all(0 <= value < 1 << 128 for value in ids)


def test_random_different_seeds_differ():
    a = RandomGenerator(1 << 64, random.Random(1)).take(10)
    b = RandomGenerator(1 << 64, random.Random(2)).take(10)
    assert a != b


def test_random_same_seed_reproduces():
    a = RandomGenerator(1 << 64, random.Random(9)).take(10)
    b = RandomGenerator(1 << 64, random.Random(9)).take(10)
    assert a == b


# -- Cluster ---------------------------------------------------------------


def test_cluster_is_sequential_mod_m():
    m = 100
    generator = ClusterGenerator(m, random.Random(3))
    start = generator.start
    ids = generator.take(10)
    assert ids == [(start + i) % m for i in range(10)]


def test_cluster_wraps_around():
    generator = ClusterGenerator(5, random.Random(0))
    ids = generator.take(5)
    assert sorted(ids) == [0, 1, 2, 3, 4]
    # Consecutive differences are 1 mod 5.
    for a, b in zip(ids, ids[1:]):
        assert (b - a) % 5 == 1


def test_cluster_start_uniformity():
    """Starts should cover the space (sanity, not a statistical test)."""
    starts = {
        ClusterGenerator(8, random.Random(seed)).start for seed in range(200)
    }
    assert starts == set(range(8))


# -- Bins(k) ----------------------------------------------------------------


def test_bins_emits_whole_bins_in_order():
    m, k = 20, 4
    generator = BinsGenerator(m, k, random.Random(2))
    ids = generator.take(12)
    for block_start in range(0, 12, k):
        chunk = ids[block_start : block_start + k]
        bin_index = chunk[0] // k
        assert chunk == [bin_index * k + off for off in range(k)]


def test_bins_leftovers_come_last_in_order():
    m, k = 11, 3  # 3 bins of 3, leftovers {9, 10}
    generator = BinsGenerator(m, k, random.Random(4))
    ids = generator.take(11)
    assert ids[9:] == [9, 10]


def test_bins_k_equals_m_is_identity_like():
    m = 12
    generator = BinsGenerator(m, m, random.Random(1))
    assert generator.take(m) == list(range(m))


def test_bins_k1_matches_random_distribution_shape():
    """Bins(1) must be a uniform permutation (spot check: first ID)."""
    m = 6
    counts = [0] * m
    for seed in range(600):
        counts[BinsGenerator(m, 1, random.Random(seed)).next_id()] += 1
    assert min(counts) > 0.5 * (600 / m)


def test_bins_invalid_k():
    with pytest.raises(ConfigurationError):
        BinsGenerator(10, 0)
    with pytest.raises(ConfigurationError):
        BinsGenerator(10, 11)


# -- Cluster* ----------------------------------------------------------------


def test_cluster_star_runs_grow_exponentially():
    generator = ClusterStarGenerator(1 << 20, random.Random(8))
    generator.take(1 + 2 + 4 + 8 + 16)
    lengths = [length for _, length in generator.runs]
    assert lengths == [1, 2, 4, 8, 16]


def test_cluster_star_runs_never_overlap():
    generator = ClusterStarGenerator(512, random.Random(3))
    ids = generator.take(300)
    assert len(set(ids)) == 300


def test_cluster_star_ids_follow_runs():
    generator = ClusterStarGenerator(1 << 16, random.Random(5))
    ids = generator.take(7)  # runs 1, 2, 4
    runs = generator.runs
    expected = []
    for start, length in runs:
        expected.extend((start + offset) % (1 << 16) for offset in range(length))
    assert ids == expected


def test_cluster_star_shrinks_final_runs_and_exhausts():
    m = 32
    generator = ClusterStarGenerator(m, random.Random(1))
    ids = generator.take(m)  # must be able to emit the entire universe
    assert sorted(ids) == list(range(m))
    with pytest.raises(IDSpaceExhaustedError):
        generator.next_id()


# -- Bins* ---------------------------------------------------------------------


def test_bins_star_chunk_arithmetic():
    generator = BinsStarGenerator(1 << 16, random.Random(0))
    c = generator.num_chunks
    assert c * (1 << (c - 1)) <= 1 << 16
    total_bins = sum(generator.bins_in_chunk(i) for i in range(c))
    assert total_bins == (1 << c) - 1
    assert generator.scheduled_capacity == (1 << c) - 1


def test_bins_star_bin_sizes_double():
    generator = BinsStarGenerator(1 << 12, random.Random(0))
    sizes = [generator.bin_size(i) for i in range(generator.num_chunks)]
    assert sizes == [1 << i for i in range(generator.num_chunks)]


def test_bins_star_ids_land_in_correct_chunks():
    m = 1 << 12
    generator = BinsStarGenerator(m, random.Random(6))
    chunk_size = generator.chunk_size
    taken = 0
    for chunk in range(min(4, generator.num_chunks)):
        size = generator.bin_size(chunk)
        ids = generator.take(size)
        taken += size
        for value in ids:
            assert value // chunk_size == chunk
        # Within a bin: consecutive ascending.
        assert ids == list(range(ids[0], ids[0] + size))


def test_bins_star_schedule_exhaustion_raises():
    m = 16
    generator = BinsStarGenerator(m, random.Random(2))
    generator.take(generator.scheduled_capacity)
    with pytest.raises(IDSpaceExhaustedError):
        generator.next_id()


def test_bins_star_fallback_random_completes_universe():
    m = 64
    generator = BinsStarGenerator(m, random.Random(2), fallback_random=True)
    ids = generator.take(m)
    assert sorted(ids) == list(range(m))


def test_bins_star_rejects_tiny_universe():
    with pytest.raises(ConfigurationError):
        BinsStarGenerator(3, random.Random(0))


# -- SkewAware --------------------------------------------------------------


def test_skew_aware_tail_is_deterministic_suffix():
    m, i, j = 1 << 10, 4, 20
    generator = SkewAwareGenerator(m, i, j, random.Random(3))
    ids = generator.take(j)
    tail = ids[i:]
    assert tail == list(range(m - (j - i), m))


def test_skew_aware_prefix_stays_off_the_tail():
    m, i, j = 256, 8, 64
    generator = SkewAwareGenerator(m, i, j, random.Random(5))
    prefix = generator.take(i)
    assert all(value < m - (j - i) for value in prefix)


def test_skew_aware_two_light_instances_rarely_collide():
    m, i, j = 4096, 2, 512
    collisions = 0
    for seed in range(300):
        a = set(SkewAwareGenerator(m, i, j, random.Random(2 * seed)).take(i))
        b = set(
            SkewAwareGenerator(m, i, j, random.Random(2 * seed + 1)).take(i)
        )
        collisions += bool(a & b)
    # p ≈ i/(m−j+i) ≈ 1/1792; 300 trials should see ~0.
    assert collisions <= 3


def test_skew_aware_validation():
    with pytest.raises(ConfigurationError):
        SkewAwareGenerator(100, 0, 5)
    with pytest.raises(ConfigurationError):
        SkewAwareGenerator(100, 10, 5)
    with pytest.raises(ConfigurationError):
        SkewAwareGenerator(100, 10, 150)


def test_repr_mentions_state():
    generator = ClusterGenerator(99, random.Random(0))
    generator.take(3)
    assert "99" in repr(generator) and "3" in repr(generator)
