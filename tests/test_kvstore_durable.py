"""Durable WAL framing, group commit, recovery, and the durable store.

Covers the record codec (bounds before slicing, CRC32), the
group-commit ``WriteAheadLog`` under all three :class:`WriteMode`\\ s,
segment rotation/truncation, ``read_segments`` torn-tail vs mid-log
classification — including golden fixtures cut/corrupted at **every**
byte boundary of the final record — and the durable
``MiniRocks.open`` lifecycle (SST round-trip, manifest commit,
WAL replay).
"""

import hashlib
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import KVStoreError, WALCorruptionError
from repro.kvstore import sstable
from repro.kvstore.db import MiniRocks
from repro.kvstore.options import Options
from repro.kvstore.sstable import SSTable
from repro.kvstore.storage import SimulatedStorage
from repro.kvstore.wal import (
    OP_DELETE,
    OP_PUT,
    RECORD_HEADER,
    WriteAheadLog,
    WriteMode,
    decode_record_at,
    encode_record,
    read_segments,
    segment_index,
    segment_name,
)


class TestRecordCodec:
    def test_roundtrip(self):
        payload = encode_record(7, OP_PUT, b"key", b"value")
        seqno, op, key, value, end = decode_record_at(payload, 0)
        assert (seqno, op, key, value) == (7, OP_PUT, b"key", b"value")
        assert end == len(payload) == RECORD_HEADER + 8

    def test_concatenated_records_decode_in_sequence(self):
        payload = encode_record(1, OP_PUT, b"a", b"1") + encode_record(
            2, OP_DELETE, b"b", b""
        )
        seqno1, _, _, _, offset = decode_record_at(payload, 0)
        seqno2, op2, key2, _, end = decode_record_at(payload, offset)
        assert (seqno1, seqno2, op2, key2) == (1, 2, OP_DELETE, b"b")
        assert end == len(payload)

    def test_oversized_length_prefix_rejected_before_slicing(self):
        # A hostile klen must fail by bounds check, not by allocating
        # or mis-slicing: craft a header claiming a 4 GiB key.
        record = bytearray(encode_record(1, OP_PUT, b"k", b"v"))
        record[9:13] = (0xFFFFFFFF).to_bytes(4, "big")
        with pytest.raises(WALCorruptionError, match="key length"):
            decode_record_at(bytes(record), 0)
        record = bytearray(encode_record(1, OP_PUT, b"k", b"v"))
        record[13:17] = (0xFFFFFFFF).to_bytes(4, "big")
        with pytest.raises(WALCorruptionError, match="value length"):
            decode_record_at(bytes(record), 0)

    def test_unknown_op_and_bad_crc_raise(self):
        record = bytearray(encode_record(1, OP_PUT, b"k", b"v"))
        record[8] = 99
        with pytest.raises(WALCorruptionError, match="unknown op"):
            decode_record_at(bytes(record), 0)
        record = bytearray(encode_record(1, OP_PUT, b"k", b"v"))
        record[-1] ^= 0xFF  # flip a value byte -> CRC mismatch
        with pytest.raises(WALCorruptionError, match="checksum"):
            decode_record_at(bytes(record), 0)

    def test_truncated_header_raises(self):
        record = encode_record(1, OP_PUT, b"k", b"v")
        with pytest.raises(WALCorruptionError, match="truncated"):
            decode_record_at(record[: RECORD_HEADER - 1], 0)


class TestDurableWALGroupCommit:
    def _wal(self, mode, batch=4, seed=0):
        storage = SimulatedStorage(seed=seed)
        return storage, WriteAheadLog(
            storage, write_mode=mode, batch_size=batch
        )

    def test_sync_every_write_acks_immediately(self):
        storage, wal = self._wal(WriteMode.SYNC_EVERY_WRITE)
        for i in range(5):
            seqno = wal.append_put(f"k{i}".encode(), b"v")
            assert wal.synced_seqno == seqno
        assert wal.fsync_count == 5
        assert storage.fsync_count == 5

    def test_batch_mode_one_fsync_per_group(self):
        _, wal = self._wal(WriteMode.BATCH, batch=4)
        for _ in range(3):
            wal.append_put(b"k", b"v")
        assert wal.synced_seqno == 0  # group open, nothing acked
        wal.append_put(b"k", b"v")  # fills the group
        assert wal.synced_seqno == 4
        assert wal.fsync_count == 1

    def test_adaptive_batch_grows_on_full_groups_shrinks_on_partial(self):
        _, wal = self._wal(WriteMode.BATCH, batch=4)
        for _ in range(4):
            wal.append_put(b"k", b"v")
        assert wal.adaptive_batch_size == 8  # doubled after a full group
        wal.append_put(b"k", b"v")
        wal.sync()  # explicit barrier drains a partial group
        assert wal.adaptive_batch_size == 4  # halved
        assert wal.synced_seqno == 5

    def test_adaptive_batch_is_bounded(self):
        _, wal = self._wal(WriteMode.BATCH, batch=2)
        for _ in range(200):
            wal.append_put(b"k", b"v")
        assert wal.adaptive_batch_size <= 16  # capped at 8x initial
        _, wal = self._wal(WriteMode.BATCH, batch=4)
        for _ in range(20):
            wal.append_put(b"k", b"v")
            wal.sync()
        assert wal.adaptive_batch_size == 1  # floor

    def test_nosync_never_fsyncs(self):
        storage, wal = self._wal(WriteMode.NOSYNC)
        for _ in range(50):
            wal.append_put(b"k", b"v")
        assert wal.fsync_count == 0
        assert wal.synced_seqno == 0
        assert storage.unsynced_bytes(segment_name(0)) > 0

    def test_wal_bytes_counts_framed_bytes(self):
        _, wal = self._wal(WriteMode.NOSYNC)
        wal.append_put(b"key", b"value")
        assert wal.wal_bytes == RECORD_HEADER + 8

    def test_rotate_seals_and_truncate_below_deletes(self):
        storage, wal = self._wal(WriteMode.BATCH)
        wal.append_put(b"a", b"1")
        floor = wal.rotate()
        assert floor == 1
        assert wal.synced_seqno == 1  # sealed segments carry no
        wal.append_put(b"b", b"2")  # unsynced acked data
        assert storage.exists(segment_name(0))
        assert wal.truncate_below(floor) == 1
        assert not storage.exists(segment_name(0))
        assert storage.exists(segment_name(1))

    def test_segment_name_roundtrip(self):
        assert segment_index(segment_name(42)) == 42
        with pytest.raises(KVStoreError):
            segment_index("wal-junk.log")


def _fill_segment(storage, records, segment=0):
    payload = b"".join(encode_record(*r) for r in records)
    storage.append(segment_name(segment), payload)
    storage.fsync(segment_name(segment))
    return payload


class TestRecoveryReadSegments:
    RECORDS = [
        (1, OP_PUT, b"alpha", b"one"),
        (2, OP_PUT, b"beta", b"two"),
        (3, OP_DELETE, b"alpha", b""),
    ]

    def test_clean_log_recovers_everything(self):
        storage = SimulatedStorage()
        _fill_segment(storage, self.RECORDS)
        recovery = read_segments(storage)
        assert recovery.records == self.RECORDS
        assert recovery.torn_bytes == 0
        assert not recovery.mid_log_corruption

    def test_records_span_segments_in_order(self):
        storage = SimulatedStorage()
        _fill_segment(storage, self.RECORDS[:2], segment=0)
        _fill_segment(storage, self.RECORDS[2:], segment=1)
        recovery = read_segments(storage)
        assert recovery.records == self.RECORDS
        assert recovery.segments == [0, 1]

    def test_floor_skips_covered_segments(self):
        storage = SimulatedStorage()
        _fill_segment(storage, self.RECORDS[:2], segment=0)
        _fill_segment(storage, self.RECORDS[2:], segment=1)
        recovery = read_segments(storage, floor=1)
        assert recovery.records == self.RECORDS[2:]

    # -- satellite: golden fixtures at every byte boundary ---------------

    def test_torn_tail_cut_at_every_byte_of_final_record(self):
        """Recovery stops cleanly wherever the final record is cut —
        under paranoid_checks too: a torn tail is not corruption."""
        prefix = b"".join(encode_record(*r) for r in self.RECORDS[:2])
        final = encode_record(*self.RECORDS[2])
        for cut in range(len(final)):
            storage = SimulatedStorage()
            storage.append(segment_name(0), prefix + final[:cut])
            storage.fsync(segment_name(0))
            for paranoid in (False, True):
                recovery = read_segments(storage, paranoid=paranoid)
                assert recovery.records == self.RECORDS[:2], cut
                assert recovery.torn_bytes == cut
                assert not recovery.mid_log_corruption

    def test_corruption_at_every_byte_of_final_record_stops_cleanly(self):
        """A bit flip anywhere in the final record reads as a torn
        tail (no valid record follows it), so recovery keeps the
        intact prefix and drops the tail — paranoid included."""
        prefix = b"".join(encode_record(*r) for r in self.RECORDS[:2])
        final = encode_record(*self.RECORDS[2])
        for position in range(len(final)):
            corrupt = bytearray(final)
            corrupt[position] ^= 0x5A
            storage = SimulatedStorage()
            storage.append(segment_name(0), prefix + bytes(corrupt))
            storage.fsync(segment_name(0))
            for paranoid in (False, True):
                recovery = read_segments(storage, paranoid=paranoid)
                assert recovery.records == self.RECORDS[:2], position
                assert recovery.torn_bytes == len(final)

    def test_mid_log_corruption_raises_under_paranoid(self):
        """A bad record *followed by a valid one* cannot be a torn
        write: paranoid_checks raises, default mode stops and flags."""
        records = [encode_record(*r) for r in self.RECORDS]
        for position in range(len(records[0])):
            corrupt = bytearray(records[0])
            corrupt[position] ^= 0x5A
            payload = bytes(corrupt) + records[1] + records[2]
            storage = SimulatedStorage()
            storage.append(segment_name(0), payload)
            storage.fsync(segment_name(0))
            with pytest.raises(WALCorruptionError, match="mid-log"):
                read_segments(storage, paranoid=True)
            recovery = read_segments(storage, paranoid=False)
            assert recovery.records == []
            assert recovery.mid_log_corruption

    def test_damaged_sealed_segment_is_mid_log_corruption(self):
        storage = SimulatedStorage()
        torn = b"".join(
            encode_record(*r) for r in self.RECORDS[:2]
        )[:-3]  # sealed segment ends mid-record
        storage.append(segment_name(0), torn)
        storage.fsync(segment_name(0))
        _fill_segment(storage, self.RECORDS[2:], segment=1)
        with pytest.raises(WALCorruptionError, match="mid-log"):
            read_segments(storage, paranoid=True)
        recovery = read_segments(storage, paranoid=False)
        assert recovery.records == self.RECORDS[:1]
        assert recovery.mid_log_corruption

    def test_seqno_discontinuity_is_corruption(self):
        storage = SimulatedStorage()
        _fill_segment(
            storage,
            [(1, OP_PUT, b"a", b"1"), (3, OP_PUT, b"b", b"2")],
        )
        with pytest.raises(WALCorruptionError, match="discontinuity"):
            read_segments(storage, paranoid=True)
        recovery = read_segments(storage, paranoid=False)
        assert [r[0] for r in recovery.records] == [1]
        assert recovery.mid_log_corruption


class TestSSTableRoundTrip:
    def _sst(self, n=40, bloom=10):
        entries = [
            (f"key{i:04d}".encode(), f"value{i}".encode())
            for i in range(n)
        ]
        return SSTable.from_entries(
            file_id=123456789,
            entries=entries,
            block_entries=7,
            bloom_bits_per_key=bloom,
        )

    def test_roundtrip_preserves_identity_and_data(self):
        sst = self._sst()
        clone = SSTable.from_bytes(sst.to_bytes())
        assert clone.file_id == sst.file_id
        # The fingerprint survives: a reloaded SST keeps claiming its
        # original cache blocks instead of faking a collision.
        assert clone.fingerprint == sst.fingerprint
        assert clone.entry_count == sst.entry_count
        assert list(clone.iter_entries()) == list(sst.iter_entries())
        assert len(clone.blocks) == len(sst.blocks)
        for original, reloaded in zip(sst.blocks, clone.blocks):
            assert reloaded.payload == original.payload
            assert reloaded.owner_fingerprint == sst.fingerprint

    def test_roundtrip_rebuilds_bloom(self):
        sst = self._sst()
        clone = SSTable.from_bytes(sst.to_bytes())
        assert clone.bloom is not None
        for key, _ in sst.iter_entries():
            assert clone.bloom.may_contain(key)
        no_bloom = SSTable.from_bytes(self._sst(bloom=0).to_bytes())
        assert no_bloom.bloom is None

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        entries=st.dictionaries(
            st.binary(min_size=1, max_size=12),
            st.binary(max_size=16),
            min_size=1,
            max_size=30,
        ).map(lambda table: sorted(table.items())),
        block_entries=st.integers(1, 8),
        bloom=st.sampled_from([0, 4, 10]),
        file_id=st.integers(0, (1 << 128) - 1),
        patches=st.lists(
            st.tuples(
                st.integers(0, 1 << 16), st.binary(min_size=1, max_size=4)
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_corrupt_payloads_rejected(
        self, entries, block_entries, bloom, file_id, patches
    ):
        """The one SST decoder fails closed.

        Every strict prefix and every foreign magic raises
        :class:`KVStoreError`; a payload with 1-4 bytes overwritten
        either raises it or decodes to a fully readable table — no
        other exception escapes.
        """
        blob = SSTable.from_entries(
            file_id, entries, block_entries, bloom_bits_per_key=bloom
        ).to_bytes()
        for magic in (b"XX\x02", b"SS\x01"):
            with pytest.raises(KVStoreError):
                SSTable.from_bytes(magic + blob[3:])
        for cut in range(len(blob)):
            with pytest.raises(KVStoreError):
                SSTable.from_bytes(blob[:cut])
        for position, patch in patches:
            position %= len(blob)
            corrupt = (
                blob[:position] + patch + blob[position + len(patch):]
            )[: len(blob)]
            try:
                clone = SSTable.from_bytes(corrupt)
            except KVStoreError:
                continue
            list(clone.iter_entries())


def _durable_options(**overrides):
    defaults = dict(
        memtable_entries=8,
        block_entries=4,
        level0_file_limit=2,
        bloom_bits_per_key=0,
        write_mode=WriteMode.SYNC_EVERY_WRITE,
    )
    defaults.update(overrides)
    return Options(**defaults)


class TestDurableMiniRocks:
    def test_open_empty_then_reopen_preserves_state(self):
        storage = SimulatedStorage(seed=5)
        db = MiniRocks.open(
            storage, options=_durable_options(), rng=random.Random(1)
        )
        for i in range(45):
            db.put(f"k{i:03d}".encode(), f"v{i}".encode())
        db.delete(b"k007")
        assert db.durable_seqno == db.last_seqno == 46
        storage.crash()
        storage.restart()
        reopened = MiniRocks.open(
            storage, options=_durable_options(), rng=random.Random(2)
        )
        for i in range(45):
            expected = None if i == 7 else f"v{i}".encode()
            assert reopened.get(f"k{i:03d}".encode()) == expected

    def test_reopen_restores_assigned_ids_for_audits(self):
        storage = SimulatedStorage(seed=6)
        db = MiniRocks.open(
            storage, options=_durable_options(), rng=random.Random(3)
        )
        for i in range(40):
            db.put(f"k{i:03d}".encode(), b"v")
        minted = db.assigned_file_ids()
        assert minted
        storage.crash()
        storage.restart()
        reopened = MiniRocks.open(
            storage, options=_durable_options(), rng=random.Random(4)
        )
        assert reopened.assigned_file_ids() == minted

    def test_unsynced_batch_tail_lost_acked_prefix_survives(self):
        storage = SimulatedStorage(seed=8)
        options = _durable_options(
            memtable_entries=1000,
            write_mode=WriteMode.BATCH,
            wal_batch_size=4,
        )
        db = MiniRocks.open(storage, options=options, rng=random.Random(5))
        for i in range(10):
            db.put(f"k{i}".encode(), f"v{i}".encode())
        acked = db.durable_seqno
        # One full group of 4 fsyncs, then the adaptive batch doubles
        # to 8, so writes 5-10 (6 pending) are still unacked.
        assert acked == 4
        storage.crash()
        storage.restart()
        reopened = MiniRocks.open(
            storage, options=options, rng=random.Random(6)
        )
        survived = [
            i for i in range(10)
            if reopened.get(f"k{i}".encode()) == f"v{i}".encode()
        ]
        # All acked writes survive, and survivors form a prefix (no
        # unacked write resurrects ahead of a lost one).
        assert survived == list(range(len(survived)))
        assert len(survived) >= acked

    def test_explicit_sync_wal_is_a_durability_barrier(self):
        storage = SimulatedStorage(seed=10)
        options = _durable_options(
            memtable_entries=1000,
            write_mode=WriteMode.BATCH,
            wal_batch_size=64,
        )
        db = MiniRocks.open(storage, options=options, rng=random.Random(7))
        db.put(b"precious", b"data")
        assert db.durable_seqno == 0
        db.sync_wal()
        assert db.durable_seqno == 1
        storage.crash()
        storage.restart()
        reopened = MiniRocks.open(
            storage, options=options, rng=random.Random(8)
        )
        assert reopened.get(b"precious") == b"data"

    def test_nosync_mode_flush_is_the_only_durability(self):
        storage = SimulatedStorage(seed=11)
        options = _durable_options(
            memtable_entries=4, write_mode=WriteMode.NOSYNC
        )
        db = MiniRocks.open(storage, options=options, rng=random.Random(9))
        for i in range(6):  # one flush at 4, two unflushed
            db.put(f"k{i}".encode(), b"v")
        assert db.stats.fsync_count == 0
        assert db.durable_seqno == 4
        storage.crash()
        storage.restart()
        reopened = MiniRocks.open(
            storage, options=options, rng=random.Random(10)
        )
        for i in range(4):
            assert reopened.get(f"k{i}".encode()) == b"v"

    def test_flush_truncates_covered_segments(self):
        storage = SimulatedStorage(seed=12)
        db = MiniRocks.open(
            storage, options=_durable_options(), rng=random.Random(11)
        )
        for i in range(8):
            db.put(f"k{i}".encode(), b"v")
        from repro.kvstore.wal import SEGMENT_PREFIX

        live = storage.list(SEGMENT_PREFIX)
        assert all(segment_index(n) >= db._wal_floor for n in live)
        assert db._wal_floor >= 1

    def test_wal_and_fsync_counters_reach_dbstats(self):
        storage = SimulatedStorage(seed=13)
        db = MiniRocks.open(
            storage, options=_durable_options(memtable_entries=1000),
            rng=random.Random(12),
        )
        db.put(b"k", b"v")
        assert db.stats.fsync_count == 1
        assert db.stats.wal_bytes > 0

    def test_acked_writes_after_recovery_survive_second_crash(self):
        """Crash -> recover -> write + sync_wal -> crash: the first
        crash's torn tail must be neutralized during recovery, or the
        second recovery finds the tear in a now non-final segment,
        misreads it as mid-log corruption, and drops the new segment's
        acknowledged records (or refuses to open under paranoid)."""
        options = _durable_options(
            memtable_entries=1000,
            write_mode=WriteMode.BATCH,
            wal_batch_size=4,
            paranoid_checks=True,
        )
        for seed in range(40):
            storage = SimulatedStorage(seed=seed)
            db = MiniRocks.open(
                storage, options=options, rng=random.Random(1)
            )
            for i in range(10):  # one acked group of 4, 6 buffered
                db.put(f"k{i}".encode(), b"v0")
            storage.crash()
            storage.restart()
            mid = MiniRocks.open(
                storage, options=options, rng=random.Random(2)
            )
            for i in range(5):
                mid.put(f"p{i}".encode(), b"v1")
            mid.sync_wal()
            storage.crash()
            storage.restart()
            final = MiniRocks.open(
                storage, options=options, rng=random.Random(3)
            )
            for i in range(4):
                assert final.get(f"k{i}".encode()) == b"v0", seed
            for i in range(5):
                assert final.get(f"p{i}".encode()) == b"v1", seed

    def test_recovery_trims_torn_tail_and_reports_stats(self):
        storage = SimulatedStorage(seed=15)
        records = [(1, OP_PUT, b"a", b"1"), (2, OP_PUT, b"b", b"2")]
        clean = _fill_segment(storage, records)
        garbage = b"\x00garbage"  # too short for a header: a torn tail
        storage.append(segment_name(0), garbage)
        storage.fsync(segment_name(0))
        options = _durable_options(memtable_entries=1000)
        db = MiniRocks.open(storage, options=options, rng=random.Random(15))
        assert db.stats.wal_torn_bytes == len(garbage)
        assert db.stats.wal_mid_log_corruptions == 0
        assert db.get(b"a") == b"1"
        assert db.get(b"b") == b"2"
        # The tear is gone from disk: the segment now holds exactly
        # its valid prefix, so later recoveries see a clean log.
        assert storage.read(segment_name(0)) == clean
        again = MiniRocks.open(
            storage, options=options, rng=random.Random(16)
        )
        assert again.stats.wal_torn_bytes == 0

    def test_mid_log_corruption_is_counted_and_neutralized(self):
        storage = SimulatedStorage(seed=16)
        records = [
            encode_record(1, OP_PUT, b"a", b"1"),
            encode_record(2, OP_PUT, b"b", b"2"),
            encode_record(3, OP_PUT, b"c", b"3"),
        ]
        damaged = bytearray(records[1])
        damaged[5] ^= 0x5A  # valid record follows -> mid-log damage
        storage.append(
            segment_name(0), records[0] + bytes(damaged) + records[2]
        )
        storage.fsync(segment_name(0))
        options = _durable_options(memtable_entries=1000)
        db = MiniRocks.open(storage, options=options, rng=random.Random(17))
        assert db.stats.wal_mid_log_corruptions == 1
        assert db.stats.wal_torn_bytes == len(records[1]) + len(records[2])
        assert db.get(b"a") == b"1"
        assert db.get(b"b") is None  # conservatively dropped, but counted
        # Idempotent: a reopen sees the already-trimmed, clean log.
        again = MiniRocks.open(
            storage, options=options, rng=random.Random(18)
        )
        assert again.stats.wal_mid_log_corruptions == 0
        assert again.stats.wal_torn_bytes == 0
        assert again.get(b"a") == b"1"

    def test_paranoid_reopen_raises_on_mid_log_corruption(self):
        storage = SimulatedStorage(seed=14)
        options = _durable_options(memtable_entries=1000)
        db = MiniRocks.open(storage, options=options, rng=random.Random(13))
        for i in range(6):
            db.put(f"k{i}".encode(), b"v")
        # Vandalize the first record of the live segment on "disk".
        name = storage.list("wal-")[0]
        data = bytearray(storage.read(name))
        data[10] ^= 0xFF
        storage._files[name].data = data  # simulate media damage
        storage.crash()
        storage.restart()
        with pytest.raises(WALCorruptionError):
            MiniRocks.open(
                storage,
                options=_durable_options(
                    memtable_entries=1000, paranoid_checks=True
                ),
                rng=random.Random(14),
            )


def _stored_bytes_digest(write_mode):
    """Drive one durable store through a seeded put/delete stream and
    hash every storage file's name and bytes.

    The options are small enough that flushes, L0→L1 compactions and
    bottom-level compactions (which drop tombstones) all run.
    """
    options = Options(
        memtable_entries=16,
        block_entries=4,
        level0_file_limit=2,
        level_size_multiplier=2,
        num_levels=3,
        write_mode=write_mode,
    )
    storage = SimulatedStorage(seed=3)
    db = MiniRocks.open(storage, options=options, rng=random.Random(11))
    rng = random.Random(2024)
    for i in range(2_000):
        key = b"key%04d" % rng.randrange(400)
        if rng.random() < 0.2:
            db.delete(key)
        else:
            db.put(key, b"value-%d-" % i + rng.randbytes(rng.randrange(24)))
    assert db.stats.flushes > 0 and db.stats.compactions > 0
    bottom = db.manifest.level(options.num_levels - 1)
    assert bottom, "no compaction reached the bottom level"
    assert all(sst.live_entries == sst.entry_count for sst in bottom)
    assert any(
        sst.live_entries < sst.entry_count
        for _, sst in db.manifest.live_files()
    ), "no tombstone left above the bottom level"
    # The unsynced byte count tells the write modes apart: their files
    # hold the same bytes, but not the same durable prefix.
    digest = hashlib.sha256()
    for name in storage.list():
        payload = storage.read(name)
        digest.update(
            b"%s:%d:%d:"
            % (name.encode(), len(payload), storage.unsynced_bytes(name))
        )
        digest.update(payload)
    return digest.hexdigest()


#: Stored bytes pinned per write mode: SST containers, bloom bit
#: arrays, file IDs, manifest and WAL segments. A change to the build,
#: merge or compaction path must leave every one of these unchanged.
GOLDEN_STORED_BYTES = {
    WriteMode.NOSYNC: (
        "d3923f064fa0579adf268b29f02973b58c77be6857f4211b7b903f1a679aab41"
    ),
    WriteMode.BATCH: (
        "ff9647169efbacdb6f405cd592651571f8333440f199916189d7d084726bad78"
    ),
    WriteMode.SYNC_EVERY_WRITE: (
        "c4d7b0ff9903ba42436b5ee5a9ec0766491f3f70f8e7e45d3705e999059c613d"
    ),
}


@pytest.mark.parametrize(
    "write_mode", list(GOLDEN_STORED_BYTES), ids=lambda mode: mode.name.lower()
)
def test_stored_bytes_are_golden(write_mode, monkeypatch):
    # SST fingerprints (and so file names) come from a process-global
    # counter; restart it so the digest does not depend on test order.
    monkeypatch.setattr(sstable, "_fingerprint_counter", itertools.count(1))
    assert _stored_bytes_digest(write_mode) == GOLDEN_STORED_BYTES[write_mode]
