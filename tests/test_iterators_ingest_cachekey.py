"""Tests for LSM iterators and external ingestion."""

import random
from itertools import islice

import pytest

from repro.errors import KVStoreError
from repro.kvstore.db import MiniRocks
from repro.kvstore.iterators import iterate_db, merge_rows, range_count
from repro.kvstore.options import Options


def make_db(**overrides):
    defaults = dict(
        memtable_entries=6,
        block_entries=4,
        level0_file_limit=2,
        id_universe=1 << 32,
    )
    defaults.update(overrides)
    return MiniRocks(Options(**defaults), rng=random.Random(7))


class TestLSMIterator:
    def test_streams_match_scan(self):
        db = make_db()
        reference = {}
        rng = random.Random(11)
        for i in range(300):
            key = f"k{rng.randrange(60):03d}".encode()
            if rng.random() < 0.85:
                value = f"v{i}".encode()
                db.put(key, value)
                reference[key] = value
            else:
                db.delete(key)
                reference.pop(key, None)
        streamed = list(iterate_db(db))
        assert streamed == sorted(reference.items())

    def test_iterate_from_start(self):
        # Every source is positioned at `start`: the stream starts on
        # `start` when it is a live key, at the next live key when it
        # falls between keys or on a deleted one, and is empty past
        # the end.
        db = make_db()
        for i in range(0, 40, 2):
            db.put(f"k{i:02d}".encode(), b"v")
        db.delete(b"k10")

        def first_keys(start):
            return [key for key, _ in islice(iterate_db(db, start), 3)]

        assert first_keys(b"k08") == [b"k08", b"k12", b"k14"]
        assert first_keys(b"k09") == [b"k12", b"k14", b"k16"]
        assert first_keys(b"k10") == [b"k12", b"k14", b"k16"]
        assert first_keys(b"zzz") == []
        assert first_keys(b"") == [b"k00", b"k02", b"k04"]
        # Starting on a file's first or last key keeps that file.
        full = list(iterate_db(db))
        assert db.manifest.level(0) and db.manifest.level(1)
        for _level, sst in db.manifest.live_files():
            for start in (sst.min_key, sst.max_key):
                assert list(iterate_db(db, start)) == [
                    row for row in full if row[0] >= start
                ]

    def test_equal_keys_merge_in_source_order(self):
        # The merge every scan relies on is stable: equal keys come out
        # in the order their sources are listed, so with sources listed
        # newest first a key's first row is its newest version.
        sources = [
            [(b"a", b"1"), (b"c", b"1")],
            [(b"a", b"2"), (b"b", b"2"), (b"c", b"2")],
            [],
            [(b"a", b"4"), (b"b", b"4")],
        ]
        assert list(merge_rows(iter(source) for source in sources)) == [
            (b"a", b"1"), (b"a", b"2"), (b"a", b"4"),
            (b"b", b"2"), (b"b", b"4"),
            (b"c", b"1"), (b"c", b"2"),
        ]
        many = [[(b"k", b"%d" % age)] for age in range(40)]
        assert [value for _, value in merge_rows(map(iter, many))] == [
            b"%d" % age for age in range(40)
        ]

    def test_newest_version_wins_across_sources(self):
        db = make_db(memtable_entries=2)
        db.put(b"k", b"old")
        db.put(b"x", b"pad")  # flush (memtable_entries=2)
        db.put(b"k", b"new")  # memtable
        assert dict(iterate_db(db))[b"k"] == b"new"

    def test_empty_db(self):
        assert list(iterate_db(make_db())) == []

    def test_range_count(self):
        db = make_db()
        for i in range(30):
            db.put(f"k{i:02d}".encode(), b"v")
        db.delete(b"k05")
        assert range_count(db, b"k00", b"k10") == 9
        assert range_count(db, b"k10", b"k10") == 0


class TestIngestExternal:
    def test_ingest_visible_and_gets_fresh_id(self):
        db = make_db()
        before = set(db.assigned_file_ids())
        sst = db.ingest_external(
            [(b"bulk1", b"v1"), (b"bulk2", b"v2")]
        )
        assert db.get(b"bulk1") == b"v1"
        assert sst.file_id not in before
        assert sst.file_id in db.assigned_file_ids()

    def test_ingest_shadows_older_data(self):
        db = make_db()
        db.put(b"k", b"old")
        db.flush()
        db.ingest_external([(b"k", b"ingested")])
        assert db.get(b"k") == b"ingested"

    def test_ingest_unsorted_rejected(self):
        db = make_db()
        with pytest.raises(KVStoreError):
            db.ingest_external([(b"b", b"1"), (b"a", b"2")])

    def test_rejected_batch_draws_no_file_id(self):
        """Every file ID the generator draws is one the store records,
        so a batch rejected for its key order or a non-bytes value
        burns none."""
        db = make_db()
        for batch in (
            [(b"b", b"1"), (b"a", b"2")],  # unsorted
            [(b"a", b"1"), (b"a", b"2")],  # duplicate key
        ):
            with pytest.raises(KVStoreError, match="strictly ascending"):
                db.ingest_external(batch)
        with pytest.raises(TypeError):
            db.ingest_external([(b"a", "not bytes")])
        assert db._id_generator.count == len(db.assigned_file_ids()) == 0
        sst = db.ingest_external([(b"a", b"1"), (b"b", b"2")])
        assert sst.file_id == make_db()._id_generator.next_id()
        assert db._id_generator.count == len(db.assigned_file_ids()) == 1

    def test_ingest_empty_rejected(self):
        with pytest.raises(KVStoreError):
            make_db().ingest_external([])

