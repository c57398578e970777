"""Property-based tests (hypothesis) for core invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.adversary.profiles import DemandProfile
from repro.analysis.combinatorics import (
    circular_disjoint_arcs_probability,
    disjoint_subsets_probability,
    disjoint_subsets_probability_estimate,
)
from repro.analysis.exact import (
    cluster_collision_probability,
    random_collision_probability,
)
from repro.core.bins import BinsGenerator
from repro.core.cluster import ClusterGenerator
from repro.core.cluster_star import ClusterStarGenerator
from repro.core.intervals import CircularIntervalSet
from repro.core.random_gen import RandomGenerator
from repro.distributed.cluster import (
    _FLAG_TOMBSTONE,
    ClusterSimulator,
    decode_envelope,
)
from repro.errors import ClusterUnavailableError, KVStoreError
from repro.idspace.encoding import id_to_bytes, id_to_hex
from repro.kvstore.bloom import BloomFilter
from repro.kvstore.compaction import merge_tables
from repro.kvstore.manifest import Manifest
from repro.kvstore.memtable import TOMBSTONE, MemTable
from repro.kvstore.options import Options
from repro.kvstore.sstable import Block, Records, SSTable, _encode_block
from repro.simulation.stats import wilson_interval
from repro.simulation.seeds import derive_seed

# Moderate example counts: the suite must stay fast and deterministic.
FAST = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- generator invariants -----------------------------------------------------


@FAST
@given(
    m=st.integers(8, 512),
    count_fraction=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**32),
)
def test_random_prefix_is_permutation_prefix(m, count_fraction, seed):
    count = max(1, int(m * count_fraction))
    ids = RandomGenerator(m, random.Random(seed)).take(count)
    assert len(set(ids)) == count
    assert all(0 <= value < m for value in ids)


@FAST
@given(m=st.integers(2, 10**9), count=st.integers(1, 64), seed=st.integers())
def test_cluster_ids_are_consecutive_mod_m(m, count, seed):
    count = min(count, m)
    ids = ClusterGenerator(m, random.Random(seed)).take(count)
    for a, b in zip(ids, ids[1:]):
        assert (b - a) % m == 1


@FAST
@given(
    m=st.integers(4, 256),
    k=st.integers(1, 16),
    seed=st.integers(0, 2**32),
)
def test_bins_prefix_distinct_and_bin_aligned(m, k, seed):
    k = min(k, m)
    generator = BinsGenerator(m, k, random.Random(seed))
    count = min(m, 3 * k + 1)
    ids = generator.take(count)
    assert len(set(ids)) == count
    # Every complete group of k IDs is one ascending bin.
    for start in range(0, count - k + 1, k):
        chunk = ids[start : start + k]
        assert chunk == list(range(chunk[0], chunk[0] + k))
        assert chunk[0] % k == 0


@SLOW
@given(m=st.integers(16, 2048), seed=st.integers(0, 2**32))
def test_cluster_star_runs_disjoint_and_doubling(m, seed):
    generator = ClusterStarGenerator(m, random.Random(seed))
    count = min(m // 2, 100)
    ids = generator.take(count)
    assert len(set(ids)) == count
    lengths = [length for _, length in generator.runs]
    for previous, current in zip(lengths, lengths[1:]):
        assert current <= 2 * previous  # never grows faster than 2x


# -- interval arithmetic -------------------------------------------------------


def disjoint_arc_set(m, arcs):
    """The arcs that touch no earlier one, placed on ``Z_m``, and the
    positions they cover."""
    cis, covered = CircularIntervalSet(m), set()
    for start, length in arcs:
        positions = {(start + offset) % m for offset in range(min(length, m))}
        if not positions & covered:
            cis.add(start, min(length, m))
            covered |= positions
    return cis, covered


@FAST
@given(
    m=st.integers(1, 20),
    arcs=st.lists(st.tuples(st.integers(0, 19), st.integers(1, 20)), max_size=6),
    seed=st.integers(0, 2**32),
)
@example(m=10, arcs=[(8, 4), (3, 2)], seed=1)  # an arc wraps past m
@example(m=10, arcs=[(6, 4), (0, 2)], seed=1)  # an arc ends exactly at m
@example(m=10, arcs=[(0, 5)], seed=1)  # exactly half covered: no rejection
def test_interval_set_matches_a_position_scan(m, arcs, seed):
    cis, covered = disjoint_arc_set(m, arcs)
    assert cis.covered() == len(covered)
    for run_length in range(1, m + 2):
        blocked = [
            not covered.isdisjoint((x + offset) % m for offset in range(run_length))
            for x in range(m)
        ]
        free = [x for x in range(m) if run_length <= m and not blocked[x]]
        pieces = cis.free_starts(run_length)
        assert all(0 <= lo < hi <= m for lo, hi in pieces)
        assert [x for lo, hi in pieces for x in range(lo, hi)] == free
        assert cis.count_free_starts(run_length) == len(free)
        assert [cis.overlaps(x, run_length) for x in range(m)] == blocked
        # Placement draws what the rule always drew: rejection for a
        # single position under half coverage, else the j-th free start.
        rng = random.Random(seed)
        if run_length == 1 and 2 * len(covered) < m:
            expected = rng.randrange(m)
            while expected in covered:
                expected = rng.randrange(m)
        else:
            expected = free[rng.randrange(len(free))] if free else None
        placed, _ = disjoint_arc_set(m, cis.arcs)
        if expected is None:
            with pytest.raises(ValueError):
                placed.place(run_length, random.Random(seed))
        else:
            assert placed.place(run_length, random.Random(seed)) == expected
            assert placed.covered() == len(covered) + run_length


@SLOW
@given(
    m=st.integers(16, 300),
    arcs=st.lists(
        st.tuples(st.integers(0, 299), st.integers(1, 20)), max_size=6
    ),
    run_length=st.integers(1, 10),
    seed=st.integers(0, 2**32),
)
def test_sampled_free_start_never_overlaps(m, arcs, run_length, seed):
    cis, covered = disjoint_arc_set(m, arcs)
    if cis.count_free_starts(run_length) == 0:
        return
    start = cis.place(run_length, random.Random(seed))
    assert covered.isdisjoint((start + offset) % m for offset in range(run_length))


# -- profile algebra ------------------------------------------------------------


@FAST
@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=12))
def test_rounding_produces_dominated_powers_of_two(demands):
    profile = DemandProfile(tuple(demands))
    rounded = profile.rounded()
    assert rounded.n == profile.n
    for original, reduced in zip(profile, rounded):
        assert reduced <= original
        assert reduced & (reduced - 1) == 0  # power of two
    # Idempotence (Lemma 19's D⁻ is a fixpoint).
    assert rounded.rounded() == rounded


@FAST
@given(st.lists(st.integers(1, 1000), min_size=1, max_size=10))
def test_rank_distribution_counts_all_entries(demands):
    rounded = DemandProfile(tuple(demands)).rounded()
    ranks = rounded.rank_distribution()
    assert sum(ranks) == rounded.n
    assert ranks[-1] >= 1  # top rank is realized


# -- exact probability invariants ------------------------------------------------


@SLOW
@given(
    m=st.integers(8, 4096),
    demands=st.lists(st.integers(1, 16), min_size=2, max_size=5),
    seed=st.integers(0, 10**6),
)
def test_exact_probabilities_are_permutation_invariant(m, demands, seed):
    if sum(demands) > m:
        return
    profile = DemandProfile(tuple(demands))
    shuffled = list(demands)
    random.Random(seed).shuffle(shuffled)
    other = DemandProfile(tuple(shuffled))
    assert cluster_collision_probability(
        m, profile
    ) == cluster_collision_probability(m, other)
    assert random_collision_probability(
        m, profile
    ) == random_collision_probability(m, other)


@SLOW
@given(
    m=st.integers(64, 4096),
    demands=st.lists(st.integers(1, 16), min_size=2, max_size=5),
)
def test_cluster_dominates_random_pointwise(m, demands):
    """Corollary 4 as a hard invariant: p_Cluster = O(p_Random);
    with exact values the constant is 1 + o(1) — we assert 2."""
    profile = DemandProfile(tuple(demands))
    if profile.total > m // 2:
        return
    cluster = cluster_collision_probability(m, profile)
    random_p = random_collision_probability(m, profile)
    assert cluster <= 2 * random_p + Fraction(1, m)


@SLOW
@given(
    universe=st.integers(10, 10**6),
    sizes=st.lists(st.integers(0, 40), min_size=1, max_size=5),
)
def test_disjoint_probability_estimate_close_to_exact(universe, sizes):
    if sum(sizes) > universe // 4:
        return
    exact = float(disjoint_subsets_probability(universe, sizes))
    estimate = disjoint_subsets_probability_estimate(universe, sizes)
    assert abs(estimate - exact) <= 0.02 * max(exact, 1e-12)


@SLOW
@given(
    m=st.integers(4, 512),
    lengths=st.lists(st.integers(1, 32), min_size=1, max_size=4),
)
def test_circular_arcs_probability_in_unit_interval(m, lengths):
    p = circular_disjoint_arcs_probability(m, lengths)
    assert 0 <= p <= 1


# -- encodings & storage round trips -----------------------------------------------


@FAST
@given(value=st.integers(0, (1 << 128) - 1))
def test_byte_hex_roundtrip(value):
    m = 1 << 128
    assert int.from_bytes(id_to_bytes(value, m), "big") == value
    assert int(id_to_hex(value, m), 16) == value


@FAST
@given(
    entries=st.lists(
        st.tuples(st.binary(min_size=1, max_size=20), st.binary(max_size=40)),
        max_size=10,
    )
)
def test_block_encoding_roundtrip(entries):
    payload, _ = _encode_block(Records.encode(entries).records)
    block = Block(
        payload=payload, first_key=b"", last_key=b"",
        owner_fingerprint=0, block_no=0,
    )
    assert block.entries() == entries


@FAST
@given(st.lists(st.binary(min_size=1, max_size=24), max_size=50))
def test_bloom_never_false_negative(keys):
    bloom = BloomFilter(max(len(keys), 1), 8)
    bloom.add_all(keys)
    assert all(bloom.may_contain(key) for key in keys)


@FAST
@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(0, 20),
            st.binary(min_size=1, max_size=8),
        ),
        max_size=60,
    )
)
def test_memtable_matches_dict_model(ops):
    table = MemTable()
    model = {}
    for is_put, key_index, value in ops:
        key = f"key{key_index}".encode()
        if is_put:
            table.put(key, value)
            model[key] = value
        else:
            table.delete(key)
            model[key] = TOMBSTONE
    for key, expected in model.items():
        assert table.get(key) == expected
    assert [k for k, _ in table.sorted_entries()] == sorted(model)


def _linear_candidates(manifest, key):
    """Reference point-read lookup: scan every level's files in order."""
    found = []
    for level in range(manifest.num_levels):
        for sst in manifest.level(level):
            if sst.min_key <= key <= sst.max_key:
                found.append((level, sst))
                if level:
                    break
    return found


@FAST
@given(
    edits=st.lists(
        st.one_of(
            st.tuples(
                st.just("add"), st.integers(0, 3), st.integers(0, 59),
                st.integers(0, 6),
            ),
            st.tuples(
                st.just("remove"), st.integers(0, 3), st.integers(0, 30),
                st.just(0),
            ),
            st.tuples(
                st.just("move"), st.integers(0, 2), st.integers(0, 30),
                st.just(0),
            ),
        ),
        max_size=40,
    )
)
def test_manifest_lookup_matches_linear_scan(edits):
    """Point-read candidates and add/remove checks agree with a linear
    scan of each level through adds, removes and trivial moves."""
    manifest = Manifest(4)
    probes = [b"k", b"z"] + [b"k%02d" % i for i in range(62)]
    file_ids = iter(range(1, 10**6))

    def build(first, last):
        keys = sorted({b"k%02d" % first, b"k%02d" % last})
        return SSTable.from_entries(
            next(file_ids), [(key, b"v") for key in keys], 4
        )

    def install(level, sst, record_id=True):
        if level and any(live.overlaps(sst) for live in manifest.level(level)):
            before = manifest.level(level)
            with pytest.raises(KVStoreError):
                manifest.add_file(level, sst, record_id)
            assert manifest.level(level) == before
            return False
        manifest.add_file(level, sst, record_id)
        return True

    for op, level, pick, width in edits:
        files = manifest.level(level)
        if op == "add":
            install(level, build(pick, min(pick + width, 59)))
        elif files:
            sst = files[pick % len(files)]
            if op == "remove":
                # A twin of a live file (same keys) is not that file.
                twin = SSTable.from_entries(
                    next(file_ids), list(sst.iter_entries()), 4
                )
                with pytest.raises(KVStoreError):
                    manifest.remove_file(level, twin)
                manifest.remove_file(level, sst)
            else:  # a trivial move, as compaction does it
                manifest.remove_file(level, sst)
                if not install(level + 1, sst, record_id=False):
                    manifest.add_file(level, sst, record_id=False)
        for index in range(1, manifest.num_levels):
            ordered = manifest.level(index)
            assert all(x.max_key < y.min_key for x, y in zip(ordered, ordered[1:]))
        for key in probes:
            assert list(manifest.candidates_for_key(key)) == _linear_candidates(
                manifest, key
            )


#: Values a record-level tombstone check could mistake for a tombstone:
#: each is live data.
TOMBSTONE_LOOKALIKES = (
    b"x" + TOMBSTONE,
    len(TOMBSTONE).to_bytes(4, "big") + TOMBSTONE,
    TOMBSTONE[1:],
    b"",
)

#: One sorted run of unique keys from a small key space, so runs
#: overlap; each value is a tombstone about a third of the time.
SORTED_RUN = st.dictionaries(
    st.integers(0, 30).map(lambda index: b"key%02d" % index),
    st.one_of(
        st.just(TOMBSTONE),
        st.binary(max_size=8),
        st.sampled_from(TOMBSTONE_LOOKALIKES),
    ),
    max_size=20,
).map(lambda run: sorted(run.items()))


def _record(key, value):
    """A block record, encoded by hand: ``klen | key | vlen | value``."""
    return len(key).to_bytes(4, "big") + key + len(value).to_bytes(4, "big") + value


@FAST
@given(runs=st.lists(SORTED_RUN, max_size=6))
def test_merge_tables_matches_dict_model(runs):
    # Reference: each key takes the value of the first run, newest
    # first, that holds it.
    expected = []
    for key in sorted({key for run in runs for key, _ in run}):
        value = next(v for run in runs for k, v in run if k == key)
        expected.append((key, value))
    live = [(key, value) for key, value in expected if value != TOMBSTONE]
    record_runs = [Records.encode(run) for run in runs]
    for drop, want in ((False, expected), (True, live)):
        merged = merge_tables(record_runs, drop_tombstones=drop)
        assert merged.keys == [key for key, _ in want]
        assert merged.records == [_record(key, value) for key, value in want]


#: Strictly ascending entries holding tombstones, empty values and
#: tombstone lookalikes.
ASCENDING_ENTRIES = st.dictionaries(
    st.binary(min_size=1, max_size=12),
    st.one_of(
        st.binary(max_size=40),
        st.just(TOMBSTONE),
        st.sampled_from(TOMBSTONE_LOOKALIKES),
    ),
    min_size=1,
    max_size=40,
).map(lambda entries: sorted(entries.items()))


@FAST
@given(
    entries=ASCENDING_ENTRIES,
    block_entries=st.integers(1, 8),
    source_block_entries=st.integers(1, 8),
    bloom_bits=st.sampled_from([0, 4, 10]),
)
def test_record_form_builds_the_pair_form_sst(
    entries, block_entries, source_block_entries, bloom_bits
):
    """Records sliced out of one SST's blocks, as compaction reads
    them, build the SST the ``(key, value)`` pairs build."""
    from_pairs = SSTable.from_entries(1, entries, block_entries, bloom_bits)
    source = SSTable.from_entries(2, entries, source_block_entries, 0)
    from_records = SSTable.from_entries(
        1, source.records(), block_entries, bloom_bits
    )
    assert [block.payload for block in from_records.blocks] == [
        block.payload for block in from_pairs.blocks
    ]
    assert from_records._index_keys == from_pairs._index_keys
    if bloom_bits:
        assert from_records.bloom.to_bytes() == from_pairs.bloom.to_bytes()
    else:
        assert from_records.bloom is None and from_pairs.bloom is None
    assert from_records.entry_count == from_pairs.entry_count == len(entries)
    live = sum(1 for _, value in entries if value != TOMBSTONE)
    assert from_records.live_entries == from_pairs.live_entries == live


# -- cluster scans -----------------------------------------------------------------

SCAN_KEYS = [b"k%02d" % index for index in range(16)]

#: One step of a small fleet's history, ``(action, index)``: ``index``
#: picks the key to write, or the node (mod 4) to kill or recover.
#: Writes are the most frequent action.
CLUSTER_STEP = st.tuples(
    st.sampled_from(
        ["put"] * 4 + ["delete", "flush", "load", "ring", "kill", "recover"]
    ),
    st.integers(0, len(SCAN_KEYS) - 1),
)

#: A scan's ``(start, end, limit)``: starts on, between and past the
#: keys, an open or bounded end, and limits around the row count.
SCAN_QUERY = st.tuples(
    st.sampled_from(SCAN_KEYS + [b"", b"k07x", b"k1", b"zz"]),
    st.one_of(st.none(), st.sampled_from(SCAN_KEYS + [b"k11x", b"zz"])),
    st.one_of(st.none(), st.integers(-1, 20)),
)


def _run_cluster_step(sim, step, value):
    action, index = step
    key, node = SCAN_KEYS[index], sim.nodes[index % 4]
    if action in ("put", "delete"):
        try:
            if action == "put":
                sim.put(key, value)
            else:
                sim.delete(key)
        except ClusterUnavailableError:
            pass  # quorum lost: the live replicas keep what they took
    elif action == "flush":
        sim.flush_all()
    elif action in ("load", "ring"):
        sim.rebalance(max_moves=2, policy=action)
    elif action == "kill":
        if node.alive and len(sim.live_nodes()) > 1:
            sim.kill(node)
    elif not node.alive:
        sim.recover(node)


@FAST
@given(
    replication_factor=st.integers(1, 3),
    steps=st.lists(CLUSTER_STEP, min_size=100, max_size=300),
    queries=st.lists(SCAN_QUERY, min_size=1, max_size=4),
)
def test_cluster_scan_matches_point_reads(replication_factor, steps, queries):
    """``ClusterSimulator.scan`` equals a model built from point reads,
    which share no code with the merge: read each key on every live
    node, keep the highest envelope version, drop tombstones, then
    apply ``end`` and ``limit``."""
    sim = ClusterSimulator(
        4,
        lambda: Options(
            memtable_entries=4,
            block_entries=2,
            level0_file_limit=2,
            id_universe=1 << 32,
            bloom_bits_per_key=0,
        ),
        cache_blocks=64,
        seed=5,
        replication_factor=replication_factor,
    )
    for number, step in enumerate(steps):
        # A value per write, so a stale copy never reads as current.
        _run_cluster_step(sim, step, b"v%d" % number)
    rows = []
    for key in SCAN_KEYS:
        copies = [
            decode_envelope(stored)
            for stored in (node.db.get(key) for node in sim.live_nodes())
            if stored is not None
        ]
        if copies:
            _version, flag, payload = max(copies, key=lambda copy: copy[0])
            if flag != _FLAG_TOMBSTONE:
                rows.append((key, payload))
    for start, end, limit in queries:
        expected = [
            row for row in rows
            if row[0] >= start and (end is None or row[0] < end)
        ]
        if limit is not None:
            expected = expected[: max(limit, 0)]
        assert sim.scan(start, end, limit) == expected


# -- statistics ------------------------------------------------------------------


@FAST
@given(
    successes=st.integers(0, 500),
    extra=st.integers(0, 500),
)
def test_wilson_interval_well_formed(successes, extra):
    trials = successes + extra
    if trials == 0:
        return
    low, high = wilson_interval(successes, trials)
    phat = successes / trials
    assert 0.0 <= low <= phat <= high <= 1.0


@FAST
@given(root=st.integers(), path=st.lists(st.integers(), max_size=4))
def test_derive_seed_is_64_bit(root, path):
    value = derive_seed(root, *path)
    assert 0 <= value < 1 << 64
