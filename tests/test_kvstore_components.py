"""Unit tests for MiniRocks components: memtable, bloom, WAL, SST, cache."""

import random

import pytest

from repro.errors import ConfigurationError, KVStoreError
from repro.kvstore.blockcache import BlockCache
from repro.kvstore.bloom import BloomFilter
from repro.kvstore.db import MiniRocks
from repro.kvstore.memtable import TOMBSTONE, MemTable
from repro.kvstore.options import Options
from repro.kvstore.sstable import (
    Block,
    Records,
    SSTable,
    _encode_block,
    _parse_v2_offsets,
)


class TestMemTable:
    def test_put_get(self):
        table = MemTable()
        table.put(b"a", b"1")
        assert table.get(b"a") == b"1"
        assert table.get(b"b") is None

    def test_overwrite(self):
        table = MemTable()
        table.put(b"a", b"1")
        table.put(b"a", b"2")
        assert table.get(b"a") == b"2"
        assert len(table) == 1

    def test_delete_records_tombstone(self):
        table = MemTable()
        table.put(b"a", b"1")
        table.delete(b"a")
        assert table.get(b"a") == TOMBSTONE

    def test_sorted_entries(self):
        table = MemTable()
        for key in (b"c", b"a", b"b"):
            table.put(key, b"v")
        assert [k for k, _ in table.sorted_entries()] == [b"a", b"b", b"c"]

    def test_key_validation(self):
        table = MemTable()
        with pytest.raises(KVStoreError):
            table.put("str", b"v")  # type: ignore[arg-type]
        with pytest.raises(KVStoreError):
            table.put(b"", b"v")
        with pytest.raises(KVStoreError):
            table.put(b"k", TOMBSTONE)

    def test_approximate_size(self):
        table = MemTable()
        table.put(b"ab", b"cde")
        assert table.approximate_size() == 5

    def test_clear(self):
        table = MemTable()
        table.put(b"a", b"1")
        table.clear()
        assert len(table) == 0

    def test_matches_model(self):
        """A store answers like a dict model while its memtable fills,
        is scanned, flushes and refills."""
        db = MiniRocks(
            Options(memtable_entries=16, block_entries=4),
            rng=random.Random(3),
        )
        rng = random.Random(4)
        model = {}
        buffered = {}  # what the memtable holds since the last flush
        for i in range(400):
            key = f"k{rng.randrange(60):02d}".encode()
            if rng.random() < 0.25:
                db.delete(key)
                model[key] = None
                buffered[key] = TOMBSTONE
            else:
                db.put(key, f"v{i}".encode())
                model[key] = buffered[key] = f"v{i}".encode()
            if len(buffered) == 16:  # the put filled the memtable
                buffered.clear()
            if i % 50 != 49:
                continue
            assert list(db.memtable.sorted_entries()) == sorted(buffered.items())
            assert list(db.memtable.entries_from(b"k30")) == [
                (k, v) for k, v in sorted(buffered.items()) if k >= b"k30"
            ]
            live = sorted((k, v) for k, v in model.items() if v is not None)
            for start, end in ((b"k10", b"k30"), (b"k00", b"k99"), (b"k25", None)):
                assert db.scan(start, end) == [
                    (k, v) for k, v in live if k >= start and (end is None or k < end)
                ]
            assert db.scan(b"k20", limit=5) == [
                (k, v) for k, v in live if k >= b"k20"
            ][:5]
            for key, value in model.items():
                assert db.get(key) == value
            if buffered:
                flushed = db.flush()
                assert [k for k, _ in flushed.iter_entries()] == sorted(buffered)
                buffered.clear()

    def test_ordered_reads_see_writes_since_the_last_scan(self):
        """A scan memoizes the sorted keys. A new key must drop the
        memo, and an overwrite must read back its new value."""
        db = MiniRocks(
            Options(memtable_entries=16, block_entries=4),
            rng=random.Random(3),
        )
        for key in (b"k40", b"k50", b"k60"):
            db.put(key, b"old")
        assert db.scan(b"k45", b"k99") == [(b"k50", b"old"), (b"k60", b"old")]
        db.put(b"k10", b"new")  # a new key below that scan's start
        db.put(b"k50", b"new")  # an overwrite of a buffered key
        expected = [
            (b"k10", b"new"), (b"k40", b"old"), (b"k50", b"new"), (b"k60", b"old")
        ]
        assert db.scan(b"k00", b"k99") == expected
        assert db.scan(b"k00", limit=10) == expected
        db.put(b"k60", b"new")  # an overwrite while the memo is current
        expected[-1] = (b"k60", b"new")
        assert db.scan(b"k45", b"k99") == expected[2:]
        assert list(db.flush().iter_entries()) == expected


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(200, 10)
        keys = [f"key{i}".encode() for i in range(200)]
        bloom.add_all(keys)
        assert all(bloom.may_contain(k) for k in keys)

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter(500, 10)
        bloom.add_all(f"in{i}".encode() for i in range(500))
        false_positives = sum(
            bloom.may_contain(f"out{i}".encode()) for i in range(2000)
        )
        # 10 bits/key → ~1% theoretical; allow generous slack.
        assert false_positives < 2000 * 0.05

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BloomFilter(-1, 10)
        with pytest.raises(ConfigurationError):
            BloomFilter(10, 0)


class TestWAL:
    def test_store_without_storage_keeps_no_wal(self):
        db = MiniRocks(Options(memtable_entries=2), rng=random.Random(0))
        assert db.wal is None
        assert db.put(b"a", b"1") is None
        assert db.delete(b"b") is None  # fills the memtable: flush
        db.sync_wal()
        assert db.stats.flushes == 1
        assert db.durable_seqno == db.last_seqno == 0
        assert db.get(b"a") == b"1" and db.get(b"b") is None


class TestBlockEncoding:
    def test_roundtrip(self):
        entries = [(b"a", b"1"), (b"bb", b""), (b"ccc", b"xyz" * 100)]
        payload, _ = _encode_block(Records.encode(entries).records)
        block = Block(
            payload=payload, first_key=b"a", last_key=b"ccc",
            owner_fingerprint=0, block_no=0,
        )
        assert block.entries() == entries

    def test_truncation_detected(self):
        payload, _ = _encode_block(Records.encode([(b"abc", b"def")]).records)
        with pytest.raises(KVStoreError):
            _parse_v2_offsets(payload[:-5] + b"\xff\xff\xff\xff")


class TestSSTable:
    def _build(self, count=40, block_entries=8, file_id=7):
        entries = [
            (f"k{i:04d}".encode(), f"v{i}".encode()) for i in range(count)
        ]
        return (
            SSTable.from_entries(
                file_id, entries, block_entries=block_entries
            ),
            entries,
        )

    def test_point_lookup(self):
        sst, entries = self._build()
        for key, value in entries:
            assert sst.get_direct(key) == value
        assert sst.get_direct(b"nope") is None

    def test_range_metadata(self):
        sst, entries = self._build()
        assert sst.min_key == entries[0][0]
        assert sst.max_key == entries[-1][0]
        assert sst.key_in_range(b"k0010")
        assert not sst.key_in_range(b"zzz")

    def test_block_structure(self):
        sst, _ = self._build(count=20, block_entries=8)
        assert len(sst.blocks) == 3  # 8 + 8 + 4
        assert sst.blocks[-1].block_no == 2

    def test_iter_entries_sorted(self):
        sst, entries = self._build()
        assert list(sst.iter_entries()) == entries

    def test_unsorted_input_rejected(self):
        with pytest.raises(KVStoreError):
            SSTable.from_entries(1, [(b"b", b"1"), (b"a", b"2")], 8)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(KVStoreError):
            SSTable.from_entries(1, [(b"a", b"1"), (b"a", b"2")], 8)

    def test_empty_rejected(self):
        with pytest.raises(KVStoreError):
            SSTable.from_entries(1, [], 8)

    def test_overlaps(self):
        a, _ = self._build(count=10)
        b = SSTable.from_entries(
            2, [(b"k0005x", b"v"), (b"zz", b"v")], 8
        )
        c = SSTable.from_entries(3, [(b"zza", b"v")], 8)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_fingerprints_unique(self):
        a, _ = self._build(file_id=1)
        b, _ = self._build(file_id=1)  # same file_id, different files!
        assert a.fingerprint != b.fingerprint

    def test_bloom_attached(self):
        sst, entries = self._build()
        assert sst.bloom is not None
        assert all(sst.bloom.may_contain(k) for k, _ in entries)


class TestBlockCache:
    def _block(self, fingerprint=1, block_no=0):
        return Block(
            payload=_encode_block(Records.encode([(b"k", b"v")]).records)[0],
            first_key=b"k",
            last_key=b"k",
            owner_fingerprint=fingerprint,
            block_no=block_no,
        )

    def test_hit_miss_counting(self):
        cache = BlockCache(4)
        assert cache.get(1, 0, expected_fingerprint=10) is None
        cache.put(1, 0, self._block(10))
        assert cache.get(1, 0, expected_fingerprint=10) is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = BlockCache(2)
        cache.put(1, 0, self._block(1))
        cache.put(2, 0, self._block(2))
        cache.get(1, 0, 1)  # touch 1 -> 2 becomes LRU
        cache.put(3, 0, self._block(3))
        assert cache.get(2, 0, 2) is None  # evicted
        assert cache.get(1, 0, 1) is not None
        assert cache.stats.evictions == 1

    def test_cross_file_hit_detected(self):
        cache = BlockCache(4)
        cache.put(7, 0, self._block(fingerprint=111))
        block = cache.get(7, 0, expected_fingerprint=222)
        assert block is not None  # the cache happily serves it
        assert cache.stats.cross_file_hits == 1
        assert cache.collision_log == [(7, 222, 111)]

    def test_evict_file(self):
        cache = BlockCache(8)
        cache.put(5, 0, self._block(1, 0))
        cache.put(5, 1, self._block(1, 1))
        cache.put(6, 0, self._block(2, 0))
        assert cache.evict_file(5) == 2
        assert len(cache) == 1

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            BlockCache(0)
