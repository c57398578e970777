"""The zero-decode read path: the offset-indexed block format,
serialized blooms, and the supporting O(1) bookkeeping.

Covers the storage-format contracts:

* block encode→decode identity;
* corrupted offset trailers (truncation, bit flips) raising
  :class:`~repro.errors.KVStoreError` — never a silent misread;
* bloom serialization round-trips, and the batched numpy build
  setting exactly the bits looped ``add`` sets over a parameter grid;
* the per-file cache index, O(1) memtable sizing, and build-time
  live-entry counts surviving the SST container round trip;
* a durable reopen serving every point read.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import KVStoreError
from repro.kvstore.blockcache import BlockCache
from repro.kvstore.bloom import BloomFilter, numpy_available
from repro.kvstore.db import MiniRocks
from repro.kvstore.memtable import TOMBSTONE, MemTable
from repro.kvstore.options import Options
from repro.kvstore.sstable import (
    _BLOCK_MAGIC,
    Block,
    Records,
    SSTable,
    _encode_block,
    _parse_v2_offsets,
)
from repro.kvstore.storage import SimulatedStorage

FAST = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ENTRIES = st.lists(
    st.tuples(st.binary(min_size=1, max_size=20), st.binary(max_size=40)),
    max_size=12,
)

SORTED_ENTRIES = st.lists(
    st.binary(min_size=1, max_size=12),
    min_size=1,
    max_size=30,
    unique=True,
).map(
    lambda keys: [(k, b"v:" + k) for k in sorted(keys)]
)


def _encode_entries(entries):
    """Block payload + record offsets for ``(key, value)`` pairs."""
    return _encode_block(Records.encode(entries).records)


def _decode(payload):
    """Decode a block payload through the validating offset parse."""
    return Block(
        payload=payload, first_key=b"", last_key=b"",
        owner_fingerprint=0, block_no=0,
    ).entries()


# -- block format -------------------------------------------------------------


@FAST
@given(entries=ENTRIES)
def test_v2_roundtrip_identity(entries):
    payload, _ = _encode_entries(entries)
    assert payload.endswith(_BLOCK_MAGIC)
    assert _decode(payload) == entries


@FAST
@given(entries=ENTRIES)
def test_v2_offsets_agree_with_v1_scan(entries):
    """The stored offset table is exactly what a record walk yields."""
    payload, offsets = _encode_entries(entries)
    walk, position = [], 0
    for key, value in entries:
        walk.append(position)
        position += 8 + len(key) + len(value)
    assert _parse_v2_offsets(payload) == offsets == walk


@FAST
@given(entries=ENTRIES, cut=st.integers(1, 12))
def test_truncated_trailer_raises(entries, cut):
    payload, _ = _encode_entries(entries)
    cut = min(cut, len(payload) - 1)
    with pytest.raises(KVStoreError):
        _parse_v2_offsets(payload[:-cut])


@FAST
@given(
    entries=ENTRIES,
    tail_byte=st.integers(1, 8),
    flip=st.integers(0, 7),
)
def test_bitflipped_trailer_raises_or_decodes_identically(
    entries, tail_byte, flip
):
    """Flipping trailer bits must never silently misread.

    Every flip inside the fixed trailer (count + magic) must either
    raise — the offset parse requires the magic and a table that tiles
    the records exactly — or decode to the *original* entries. Wrong
    entries are the one forbidden outcome.
    """
    payload = bytearray(_encode_entries(entries)[0])
    position = len(payload) - min(tail_byte, len(payload))
    payload[position] ^= 1 << flip
    try:
        decoded = _decode(bytes(payload))
    except KVStoreError:
        return
    assert decoded == entries


def test_block_get_slices_single_record():
    entries = [(f"k{i:03d}".encode(), f"v{i}".encode()) for i in range(50)]
    sst = SSTable.from_entries(
        file_id=1, entries=entries, block_entries=16, bloom_bits_per_key=0
    )
    for key, value in entries:
        block = sst.blocks[sst.block_for_key(key)]
        assert block.get(key) == value
        assert block.get(key + b"\x00") is None
    assert sst.blocks[0].get(b"aaaa") is None  # below every key
    assert sst.blocks[-1].get(b"zzzz") is None  # above every key


@FAST
@given(entries=SORTED_ENTRIES)
def test_block_entries_from_matches_slice(entries):
    payload, _ = _encode_entries(entries)
    block = Block(
        payload=payload,
        first_key=entries[0][0],
        last_key=entries[-1][0],
        owner_fingerprint=0,
        block_no=0,
    )
    assert block.entries() == entries
    assert block.entry_count == len(entries)
    for start, _ in entries[:: max(1, len(entries) // 4)]:
        expected = [(k, v) for k, v in entries if k >= start]
        assert list(block.entries_from(start)) == expected


def test_lazy_offsets_memoized():
    payload, _ = _encode_entries([(b"a", b"1"), (b"b", b"2")])
    block = Block(
        payload=payload, first_key=b"a", last_key=b"b",
        owner_fingerprint=0, block_no=0,
    )
    assert block._offsets is None  # not parsed until first use
    first = block.offsets()
    assert block._offsets is first
    assert block.offsets() is first  # same array, no re-parse
    assert first.typecode == "I"  # four bytes per record, not heap ints


# -- SST container formats ----------------------------------------------------


def _sample_sst(n=40, bloom=10, with_tombstones=False):
    entries = []
    for i in range(n):
        value = TOMBSTONE if with_tombstones and i % 5 == 0 else (
            f"value{i}".encode()
        )
        entries.append((f"key{i:04d}".encode(), value))
    return SSTable.from_entries(
        file_id=424242,
        entries=entries,
        block_entries=7,
        bloom_bits_per_key=bloom,
    )


def test_v2_container_preserves_bloom_bits_exactly():
    sst = _sample_sst()
    clone = SSTable.from_bytes(sst.to_bytes())
    assert clone.bloom is not None
    assert bytes(clone.bloom._bits) == bytes(sst.bloom._bits)
    assert clone.bloom.num_probes == sst.bloom.num_probes
    assert clone.bloom.count == sst.bloom.count


def test_live_entry_count_survives_reopen():
    sst = _sample_sst(with_tombstones=True)
    expected = sst.audit_live_entry_count()
    assert sst.live_entry_count() == expected
    clone = SSTable.from_bytes(sst.to_bytes())
    assert clone.live_entry_count() == expected
    assert clone.audit_live_entry_count() == expected


def test_bloom_roundtrip_bytes():
    bloom = BloomFilter(100, 10)
    keys = [f"key{i}".encode() for i in range(100)]
    bloom.add_all(keys)
    clone = BloomFilter.from_bytes(bloom.to_bytes())
    assert bytes(clone._bits) == bytes(bloom._bits)
    assert clone.num_bits == bloom.num_bits
    assert clone.num_probes == bloom.num_probes
    assert clone.count == bloom.count
    for key in keys:
        assert clone.may_contain(key)


def test_bloom_from_bytes_rejects_corruption():
    payload = BloomFilter(10, 10).to_bytes()
    with pytest.raises(KVStoreError):
        BloomFilter.from_bytes(b"XX" + payload[2:])  # bad magic
    with pytest.raises(KVStoreError):
        BloomFilter.from_bytes(payload[:-3])  # short bit array
    with pytest.raises(KVStoreError):
        BloomFilter.from_bytes(payload + b"\x00")  # long bit array


# -- bloom build equivalence --------------------------------------------------


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
@pytest.mark.parametrize("num_keys", [1, 7, 64, 400])
@pytest.mark.parametrize("bits_per_key", [4, 10, 16])
def test_bloom_backends_bit_identical(num_keys, bits_per_key):
    """The two ways a filter is built, ``add_all`` (one numpy batch at
    ``_BATCH_CUTOVER`` keys or more) and looped ``add``, set the same
    bits, answer alike, and keep their bits through serialization."""
    rng = random.Random(num_keys * 1000 + bits_per_key)
    keys = [
        rng.randbytes(rng.randint(1, 24)) for _ in range(num_keys)
    ]
    absent = [rng.randbytes(16) for _ in range(200)]
    batch = BloomFilter(num_keys, bits_per_key)
    looped = BloomFilter(num_keys, bits_per_key)
    batch.add_all(keys)
    for key in keys:
        looped.add(key)
    assert bytes(batch._bits) == bytes(looped._bits)
    assert batch.count == looped.count == num_keys
    assert all(batch.may_contain(key) for key in keys)
    assert [batch.may_contain(key) for key in keys + absent] == [
        looped.may_contain(key) for key in keys + absent
    ]
    reloaded = BloomFilter.from_bytes(batch.to_bytes())
    assert bytes(reloaded._bits) == bytes(batch._bits)
    assert all(reloaded.may_contain(key) for key in keys)


# -- satellite bookkeeping ----------------------------------------------------


def _block(no):
    payload, _ = _encode_entries([(b"k%d" % no, b"v")])
    return Block(
        payload=payload, first_key=b"k", last_key=b"k",
        owner_fingerprint=99, block_no=no,
    )


def test_evict_file_uses_per_file_index():
    cache = BlockCache(capacity_blocks=64)
    for file_id in (1, 2, 3):
        for no in range(5):
            cache.put(file_id, no, _block(no))
    assert cache._by_file[2] == set(range(5))
    assert cache.evict_file(2) == 5
    assert 2 not in cache._by_file
    assert len(cache) == 10
    assert cache.evict_file(2) == 0
    # Files 1 and 3 untouched.
    assert cache.get(1, 0, 99) is not None
    assert cache.get(3, 4, 99) is not None


def test_eviction_keeps_index_consistent():
    cache = BlockCache(capacity_blocks=4)
    for no in range(6):  # overflows capacity, evicting LRU
        cache.put(7, no, _block(no))
    assert cache.stats.evictions == 2
    assert cache._by_file[7] == {2, 3, 4, 5}
    assert cache.evict_file(7) == 4
    assert len(cache) == 0
    assert cache._by_file == {}


def test_approximate_size_incremental():
    table = MemTable()
    assert table.approximate_size() == 0
    table.put(b"abc", b"12345")
    assert table.approximate_size() == 8
    table.put(b"abc", b"1")  # overwrite shrinks by the value delta
    assert table.approximate_size() == 4
    table.delete(b"abc")  # tombstone counts as the stored value
    assert table.approximate_size() == 3 + len(TOMBSTONE)
    table.put(b"xy", b"zz")
    table.clear()
    assert table.approximate_size() == 0


@FAST
@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),
            st.binary(min_size=1, max_size=8),
            st.binary(max_size=16),
        ),
        max_size=40,
    )
)
def test_approximate_size_matches_recount(ops):
    table = MemTable()
    for is_put, key, value in ops:
        if is_put and value != TOMBSTONE:
            table.put(key, value)
        else:
            table.delete(key)
    recount = sum(
        len(k) + len(v) for k, v in table.sorted_entries()
    )
    assert table.approximate_size() == recount


def test_memtable_entries_from_streams_sorted_suffix():
    table = MemTable()
    for i in (5, 1, 9, 3, 7):
        table.put(b"k%d" % i, b"v%d" % i)
    assert [k for k, _ in table.sorted_entries()] == [
        b"k1", b"k3", b"k5", b"k7", b"k9"
    ]
    assert [k for k, _ in table.entries_from(b"k4")] == [
        b"k5", b"k7", b"k9"
    ]
    assert list(table.entries_from(b"z")) == []


# -- durable reopen -----------------------------------------------------------


def test_durable_reopen_serves_reads():
    storage = SimulatedStorage(seed=5)
    options = Options(
        memtable_entries=8,
        block_entries=4,
        bloom_bits_per_key=10,
    )
    db = MiniRocks.open(storage, options=options, rng=random.Random(5))
    expected = {}
    for i in range(60):
        key = f"key{i % 25:03d}".encode()
        value = f"value{i}".encode()
        db.put(key, value)
        expected[key] = value
    db.delete(b"key003")
    del expected[b"key003"]
    db.flush()
    reopened = MiniRocks.open(
        storage, options=options, rng=random.Random(6)
    )
    for key, value in expected.items():
        assert reopened.get(key) == value
    assert reopened.get(b"key003") is None
