"""MiniRocks integration tests: manifest, compaction, the DB facade."""

import json
import random

import pytest

from repro.errors import CorruptionDetectedError, KVStoreError
from repro.kvstore.blockcache import BlockCache
from repro.kvstore.compaction import (
    level_file_budget,
    merge_tables,
    pick_compaction,
)
from repro.kvstore.db import MiniRocks
from repro.kvstore.manifest import Manifest
from repro.kvstore.memtable import TOMBSTONE
from repro.kvstore.options import Options
from repro.kvstore.sstable import Records, SSTable


def sst_from(file_id, pairs, block_entries=4):
    return SSTable.from_entries(file_id, sorted(pairs), block_entries)


class TestManifest:
    def test_add_and_query(self):
        manifest = Manifest(3)
        sst = sst_from(1, [(b"a", b"1"), (b"c", b"2")])
        manifest.add_file(0, sst)
        assert manifest.file_count() == 1
        assert manifest.file_count(0) == 1
        assert [s for _, s in manifest.live_files()] == [sst]
        assert manifest.assigned_ids == [1]

    def test_l0_newest_first(self):
        manifest = Manifest(3)
        old = sst_from(1, [(b"a", b"old")])
        new = sst_from(2, [(b"a", b"new")])
        manifest.add_file(0, old)
        manifest.add_file(0, new)
        assert manifest.level(0) == [new, old]

    def test_l1_overlap_rejected(self):
        manifest = Manifest(3)
        manifest.add_file(1, sst_from(1, [(b"a", b"1"), (b"m", b"2")]))
        with pytest.raises(KVStoreError):
            manifest.add_file(1, sst_from(2, [(b"c", b"3")]))

    def test_l1_sorted_by_key(self):
        manifest = Manifest(3)
        late = sst_from(1, [(b"x", b"1")])
        early = sst_from(2, [(b"a", b"1")])
        manifest.add_file(1, late)
        manifest.add_file(1, early)
        assert manifest.level(1) == [early, late]

    def test_candidates_order(self):
        manifest = Manifest(3)
        l1 = sst_from(1, [(b"a", b"l1"), (b"z", b"l1")])
        l0 = sst_from(2, [(b"a", b"l0")])
        manifest.add_file(1, l1)
        manifest.add_file(0, l0)
        candidates = list(manifest.candidates_for_key(b"a"))
        assert [level for level, _ in candidates] == [0, 1]

    def test_remove_unknown_rejected(self):
        manifest = Manifest(3)
        with pytest.raises(KVStoreError):
            manifest.remove_file(0, sst_from(1, [(b"a", b"1")]))

    @pytest.mark.parametrize(
        "payload",
        [
            b"1",
            b"null",
            {"files": 5},
            {"assigned_ids": "abc"},
            {"assigned_ids": [1.5, "x"]},
            {"wal_floor": True},
            {"files": [[True, "sst-000000000001.sst"]]},
        ],
        ids=[
            "int", "null", "files-int", "ids-str", "ids-mixed",
            "floor-bool", "level-bool",
        ],
    )
    def test_decode_state_fails_closed(self, payload):
        state = {
            "wal_floor": 0,
            "next_seqno": 1,
            "files": [[0, "sst-000000000001.sst"]],
            "assigned_ids": [7],
        }
        assert Manifest.decode_state(json.dumps(state).encode()) == state
        if isinstance(payload, dict):
            payload = json.dumps({**state, **payload}).encode()
        with pytest.raises(KVStoreError):
            Manifest.decode_state(payload)

    def test_detach_attach_does_not_rerecord_id(self):
        manifest_a = Manifest(3)
        manifest_b = Manifest(3)
        sst = sst_from(9, [(b"a", b"1")])
        manifest_a.add_file(1, sst)
        manifest_a.remove_file(1, sst)
        manifest_b.add_file(1, sst, record_id=False)
        assert manifest_a.assigned_ids == [9]
        assert manifest_b.assigned_ids == []


def runs_of(*tables):
    """The newest-first record runs ``merge_tables`` takes."""
    return [table.records() for table in tables]


class TestMergeTables:
    def test_newest_wins(self):
        new = sst_from(1, [(b"a", b"new"), (b"b", b"2")])
        old = sst_from(2, [(b"a", b"old"), (b"c", b"3")])
        merged = merge_tables(runs_of(new, old), drop_tombstones=False)
        assert merged == Records.encode(
            [(b"a", b"new"), (b"b", b"2"), (b"c", b"3")]
        )

    def test_tombstones_dropped_at_bottom(self):
        new = sst_from(1, [(b"a", TOMBSTONE)])
        old = sst_from(2, [(b"a", b"x"), (b"b", b"y")])
        assert merge_tables(
            runs_of(new, old), drop_tombstones=True
        ) == Records.encode([(b"b", b"y")])
        kept = merge_tables(runs_of(new, old), drop_tombstones=False)
        assert kept == Records.encode([(b"a", TOMBSTONE), (b"b", b"y")])

    def test_three_way(self):
        a = sst_from(1, [(b"k", b"v3")])
        b = sst_from(2, [(b"k", b"v2")])
        c = sst_from(3, [(b"k", b"v1")])
        assert merge_tables(runs_of(a, b, c), False) == Records.encode(
            [(b"k", b"v3")]
        )


class TestCompactionPicking:
    def test_budget_growth(self):
        options = Options(level0_file_limit=4, level_size_multiplier=3)
        assert level_file_budget(options, 0) == 4
        assert level_file_budget(options, 2) == 36

    def test_no_compaction_needed(self):
        manifest = Manifest(3)
        options = Options(level0_file_limit=4)
        manifest.add_file(0, sst_from(1, [(b"a", b"1")]))
        assert pick_compaction(manifest, options) is None

    def test_l0_trigger_includes_gap_files(self):
        options = Options(level0_file_limit=2)
        manifest = Manifest(3)
        manifest.add_file(0, sst_from(1, [(b"a", b"1")]))
        manifest.add_file(0, sst_from(2, [(b"z", b"1")]))
        # L1 file strictly between the two L0 ranges must be included.
        gap = sst_from(3, [(b"m", b"1")])
        manifest.add_file(1, gap)
        job = pick_compaction(manifest, options)
        assert job is not None
        assert gap in job.inputs_lower


class TestMiniRocks:
    def _db(self, **overrides):
        defaults = dict(
            memtable_entries=8,
            block_entries=4,
            id_universe=1 << 32,
            id_algorithm="cluster",
        )
        defaults.update(overrides)
        return MiniRocks(Options(**defaults), rng=random.Random(1))

    def test_put_get_roundtrip(self):
        db = self._db()
        db.put(b"hello", b"world")
        assert db.get(b"hello") == b"world"

    def test_get_missing(self):
        assert self._db().get(b"nope") is None

    def test_delete_shadows_older_versions(self):
        db = self._db()
        db.put(b"k", b"v")
        db.flush()
        db.delete(b"k")
        assert db.get(b"k") is None
        db.flush()
        assert db.get(b"k") is None

    def test_overwrite_across_flushes(self):
        db = self._db()
        db.put(b"k", b"v1")
        db.flush()
        db.put(b"k", b"v2")
        assert db.get(b"k") == b"v2"
        db.flush()
        assert db.get(b"k") == b"v2"

    def test_flush_assigns_file_ids(self):
        db = self._db()
        for i in range(20):
            db.put(f"k{i:03d}".encode(), b"v")
        db.flush()
        assert len(db.assigned_file_ids()) >= 2
        # Cluster IDs: consecutive.
        ids = db.assigned_file_ids()
        for a, b in zip(ids, ids[1:]):
            assert (b - a) % (1 << 32) == 1

    def test_compaction_preserves_data(self):
        db = self._db(memtable_entries=4, level0_file_limit=2)
        reference = {}
        rng = random.Random(3)
        for i in range(400):
            key = f"k{rng.randrange(80):03d}".encode()
            value = f"v{i}".encode()
            db.put(key, value)
            reference[key] = value
        assert db.stats.compactions > 0
        for key, value in reference.items():
            assert db.get(key) == value

    def test_scan_merges_all_sources(self):
        db = self._db(memtable_entries=4)
        db.put(b"a", b"1")
        db.put(b"b", b"2")
        db.put(b"c", b"3")
        db.put(b"d", b"4")  # triggers flush
        db.put(b"b", b"2x")  # newer, in memtable
        db.delete(b"c")
        result = db.scan(b"a", b"z")
        assert result == [(b"a", b"1"), (b"b", b"2x"), (b"d", b"4")]

    def test_scan_with_limit_and_bounds(self):
        db = self._db()
        for i in range(10):
            db.put(f"k{i}".encode(), b"v")
        assert len(db.scan(b"k2", b"k6", limit=2)) == 2
        assert db.scan(b"x", b"a") == []

    def test_paranoid_checks_raise_on_collision(self):
        """Two stores with the same tiny universe and a shared cache."""
        cache = BlockCache(64)
        options = dict(
            memtable_entries=2,
            block_entries=2,
            id_universe=2,  # collision guaranteed quickly
            id_algorithm="cluster",
            paranoid_checks=True,
            bloom_bits_per_key=0,
        )
        a = MiniRocks(Options(**options), cache=cache, rng=random.Random(1))
        b = MiniRocks(Options(**options), cache=cache, rng=random.Random(2))
        for store in (a, b):
            store.put(b"k1", b"v")
            store.put(b"k2", b"v")  # flush -> SST with id in {0,1}
            store.put(b"k3", b"v")
            store.put(b"k4", b"v")  # second SST: both ids used
        with pytest.raises(CorruptionDetectedError):
            for _ in range(4):
                a.get(b"k1"), a.get(b"k3")
                b.get(b"k1"), b.get(b"k3")

    def test_stats_accumulate(self):
        db = self._db()
        db.put(b"a", b"1")
        db.get(b"a")
        db.delete(b"a")
        assert db.stats.puts == 1
        assert db.stats.gets == 1
        assert db.stats.deletes == 1
