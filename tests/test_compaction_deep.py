"""Deeper compaction and options tests: cascades, tombstone life cycle."""

import random

import pytest

from repro.core.base import IDGenerator
from repro.core.cluster import ClusterGenerator
from repro.core.random_gen import RandomGenerator
from repro.errors import ConfigurationError
from repro.kvstore.db import MiniRocks
from repro.kvstore.memtable import TOMBSTONE
from repro.kvstore.options import Options
from repro.kvstore.sstable import SST_PREFIX, sst_filename
from repro.kvstore.storage import SimulatedStorage
from repro.kvstore.wal import WriteMode


class TestOptions:
    def test_defaults_build_a_generator(self):
        db = MiniRocks(Options(), rng=random.Random(1))
        assert isinstance(db._id_generator, IDGenerator)

    def test_store_draws_ids_from_the_configured_algorithm(self):
        db = MiniRocks(
            Options(id_algorithm="cluster", id_universe=1 << 20),
            rng=random.Random(2),
        )
        assert isinstance(db._id_generator, ClusterGenerator)
        assert db._id_generator.m == 1 << 20
        # Not just the default: another spec builds another generator.
        db = MiniRocks(
            Options(id_algorithm="random", id_universe=1 << 16),
            rng=random.Random(2),
        )
        assert isinstance(db._id_generator, RandomGenerator)
        assert db._id_generator.m == 1 << 16

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Options(memtable_entries=0)
        with pytest.raises(ConfigurationError):
            Options(block_entries=0)
        with pytest.raises(ConfigurationError):
            Options(num_levels=1)
        with pytest.raises(ConfigurationError):
            Options(id_universe=1)


def _small_options(**overrides):
    """A tiny memtable and level budgets, so a few puts cascade deep."""
    defaults = dict(
        memtable_entries=4,
        block_entries=2,
        level0_file_limit=2,
        level_size_multiplier=2,
        num_levels=4,
        id_universe=1 << 32,
    )
    defaults.update(overrides)
    return Options(**defaults)


class TestCompactionCascade:
    def _db(self):
        return MiniRocks(_small_options(), rng=random.Random(9))

    def test_data_reaches_deep_levels_and_survives(self):
        db = self._db()
        reference = {}
        rng = random.Random(10)
        for i in range(600):
            key = f"k{rng.randrange(120):03d}".encode()
            value = f"v{i}".encode()
            db.put(key, value)
            reference[key] = value
        # Something must have cascaded below L1.
        deep_files = sum(
            db.manifest.file_count(level)
            for level in range(2, db.manifest.num_levels)
        )
        assert deep_files > 0
        for key, value in reference.items():
            assert db.get(key) == value

    def test_levels_respect_budgets_after_compact_all(self):
        from repro.kvstore.compaction import level_file_budget

        db = self._db()
        for i in range(400):
            db.put(f"k{i % 90:03d}".encode(), b"v")
        db.flush()
        db.compact_all()
        for level in range(db.manifest.num_levels - 1):
            assert db.manifest.file_count(level) < level_file_budget(
                db.options, level
            )

    def test_tombstone_survives_until_bottom_level(self):
        """A delete must keep shadowing older versions while any older
        level could still hold the key — dropped only at the bottom."""
        db = self._db()
        db.put(b"victim", b"alive")
        for i in range(40):  # push the put down the tree
            db.put(f"pad{i:03d}".encode(), b"x")
        db.delete(b"victim")
        for i in range(40, 80):
            db.put(f"pad{i:03d}".encode(), b"x")
        db.flush()
        db.compact_all()
        assert db.get(b"victim") is None
        # And the tombstone is not resurrected by further compactions.
        for i in range(80, 160):
            db.put(f"pad{i:03d}".encode(), b"x")
        db.flush()
        db.compact_all()
        assert db.get(b"victim") is None

    def test_no_tombstones_on_bottom_level(self):
        db = self._db()
        for i in range(60):
            db.put(f"k{i:03d}".encode(), b"v")
            if i % 3 == 0:
                db.delete(f"k{i:03d}".encode())
        db.flush()
        db.compact_all()
        bottom = db.manifest.num_levels - 1
        for sst in db.manifest.level(bottom):
            for _key, value in sst.iter_entries():
                assert value != TOMBSTONE

    def test_compaction_consumes_fresh_ids(self):
        """Every compaction output mints a new ID — the reason real
        deployments burn IDs much faster than live-file counts."""
        db = self._db()
        for i in range(200):
            db.put(f"k{i % 50:03d}".encode(), b"v")
        db.flush()
        assigned = len(db.assigned_file_ids())
        live = db.manifest.file_count()
        assert assigned > live

    def test_cache_evicted_for_dropped_files(self):
        db = self._db()
        for i in range(100):
            db.put(f"k{i % 30:03d}".encode(), b"v")
        db.flush()
        for i in range(30):
            db.get(f"k{i:03d}".encode())  # warm the cache
        before = len(db.cache)
        for i in range(200):
            db.put(f"k{i % 30:03d}".encode(), b"w")
        db.flush()
        db.compact_all()
        # Dropped files' blocks must have left the cache; the cache may
        # hold newer blocks but not more than capacity.
        assert len(db.cache) <= db.cache.capacity
        live_ids = {sst.file_id for _, sst in db.manifest.live_files()}
        for file_id, _block in list(db.cache._blocks):
            assert file_id in live_ids


class TestTombstoneLookalikes:
    """Compaction recognizes a tombstone by its whole record, so a value
    that merely resembles one stays live data down to the bottom."""

    LOOKALIKES = (
        b"x" + TOMBSTONE,
        len(TOMBSTONE).to_bytes(4, "big") + TOMBSTONE,
        TOMBSTONE[1:],
        b"",
    )

    def test_lookalike_values_survive_bottom_merges(self):
        db = MiniRocks(
            Options(
                memtable_entries=8,
                block_entries=2,
                level0_file_limit=2,
                level_size_multiplier=2,
                num_levels=3,
            ),
            rng=random.Random(11),
        )
        rng = random.Random(12)
        model = {}
        for i in range(1500):
            key = f"k{rng.randrange(200):03d}".encode()
            if rng.random() < 0.2:
                db.delete(key)
                model[key] = None
            else:
                value = rng.choice(self.LOOKALIKES + (f"v{i}".encode(),))
                db.put(key, value)
                model[key] = value
        db.flush()
        db.compact_all()
        assert db.stats.compactions > db.stats.trivial_moves
        bottom = db.manifest.level(db.manifest.num_levels - 1)
        bottom_values = {
            value for sst in bottom for _key, value in sst.iter_entries()
        }
        assert set(self.LOOKALIKES) <= bottom_values
        assert TOMBSTONE not in bottom_values
        for key, value in model.items():
            assert db.get(key) == value
        for _level, sst in db.manifest.live_files():
            assert sst.live_entries == sst.audit_live_entry_count()


class TestTrivialMoves:
    """A compaction whose files overlap nothing below moves them down
    with their IDs instead of rewriting them."""

    def _db(self, **overrides):
        return MiniRocks(_small_options(**overrides), rng=random.Random(9))

    def _put_range(self, db, start, stop):
        for i in range(start, stop):
            db.put(f"k{i:04d}".encode(), f"v{i}".encode())

    def test_ascending_load_mints_one_id_per_flush(self):
        db = self._db()
        self._put_range(db, 0, 400)
        assert len(db.assigned_file_ids()) == db.stats.flushes
        assert db.stats.trivial_moves > 0
        assert db.stats.trivial_moves == db.stats.compactions
        assert db.manifest.file_count(db.manifest.num_levels - 1) > 0
        for level in range(1, db.manifest.num_levels):
            files = db.manifest.level(level)
            for lower, upper in zip(files, files[1:]):
                assert lower.max_key < upper.min_key
        for i in range(400):
            assert db.get(f"k{i:04d}".encode()) == f"v{i}".encode()

    def test_moved_file_keeps_identity_and_cached_blocks(self):
        db = self._db()
        self._put_range(db, 0, 4)  # flush: one L0 file
        (sst,) = db.manifest.level(0)
        assert db.get(b"k0001") == b"v1"  # caches the file's block
        hits = db.cache.stats.hits
        self._put_range(db, 4, 8)  # second L0 file: both move to L1
        assert db.stats.trivial_moves == 1
        assert db.manifest.file_count(0) == 0
        moved = [s for s in db.manifest.level(1) if s.file_id == sst.file_id]
        assert [s.fingerprint for s in moved] == [sst.fingerprint]
        assert db.assigned_file_ids() == [
            sst.file_id for _, sst in db.manifest.live_files()
        ]
        assert db.get(b"k0001") == b"v1"
        assert db.cache.stats.hits == hits + 1
        assert db.stats.corrupt_block_reads == 0

    def test_durable_move_commits_and_deletes_nothing(self):
        storage = SimulatedStorage(seed=3)
        options = _small_options(write_mode=WriteMode.SYNC_EVERY_WRITE)
        db = MiniRocks.open(storage, options=options, rng=random.Random(9))
        self._put_range(db, 0, 64)
        assert 0 < db.stats.trivial_moves == db.stats.compactions
        layout = [
            (level, sst.file_id, sst.fingerprint)
            for level, sst in db.manifest.live_files()
        ]
        assert sorted(storage.list(SST_PREFIX)) == sorted(
            sst_filename(fingerprint) for _, _, fingerprint in layout
        )
        storage.crash()
        storage.restart()
        reopened = MiniRocks.open(
            storage, options=options, rng=random.Random(10)
        )
        assert [
            (level, sst.file_id, sst.fingerprint)
            for level, sst in reopened.manifest.live_files()
        ] == layout
        assert reopened.assigned_file_ids() == db.assigned_file_ids()

    def test_overlapping_l0_files_are_merged(self):
        db = self._db()
        self._put_range(db, 0, 4)
        flushed = set(db.assigned_file_ids())
        for i in range(4):
            db.put(f"k{i:04d}".encode(), b"new")
        assert db.stats.compactions == 1
        assert db.stats.trivial_moves == 0
        (output,) = db.manifest.level(1)
        assert output.file_id not in flushed
        assert len(db.assigned_file_ids()) == db.stats.flushes + 1
        assert db.get(b"k0002") == b"new"

    def test_tombstone_file_bound_for_bottom_is_rewritten(self):
        db = self._db(num_levels=3)
        self._put_range(db, 0, 3)
        db.delete(b"k0003")  # flush: a file holding a tombstone
        (holder,) = db.manifest.level(0)
        self._put_range(db, 4, 8)
        # Both L0 files move to L1; the tombstone moves with its file.
        assert db.stats.trivial_moves == 1
        assert holder in db.manifest.level(1)
        self._put_range(db, 8, 16)
        # L1 reached its budget: its first file, the tombstone holder,
        # is headed for the bottom level, so it is merged instead.
        assert db.stats.compactions == 3
        assert db.stats.trivial_moves == 2
        (bottom,) = db.manifest.level(2)
        assert bottom.file_id != holder.file_id
        assert [value for _key, value in bottom.iter_entries()] == [
            b"v0", b"v1", b"v2"
        ]
        assert len(db.assigned_file_ids()) == db.stats.flushes + 1
        # Tombstone-free files still move to the bottom level.
        self._put_range(db, 16, 24)
        assert db.stats.trivial_moves == db.stats.compactions - 1
        assert len(db.assigned_file_ids()) == db.stats.flushes + 1
        assert db.manifest.file_count(2) > 1
        for sst in db.manifest.level(2):
            assert all(
                value != TOMBSTONE for _key, value in sst.iter_entries()
            )
        assert db.get(b"k0003") is None
