"""MiniRocks — the LSM key-value store facade.

A faithful miniature of the RocksDB data path the paper describes:
writes land in the memtable (and, on a store with storage, first in
the WAL), flushes build SSTs whose **file IDs come from an
uncoordinated UUIDP generator**, reads consult the memtable, then
per-level SST candidates through a (possibly shared) block cache keyed
by ``(file_id, block_no)``. Scans stream the memtable and the live
SSTs through one key-ordered merge instead
(:func:`~repro.kvstore.iterators.iterate_db`). A store without storage
keeps no WAL: nothing it holds outlives the process, so a log would
have no reader.

When the cache is shared with other store instances and file IDs
collide, reads can be served another file's blocks. With
``paranoid_checks`` the store raises
:class:`~repro.errors.CorruptionDetectedError`; otherwise it behaves
like a real system — the wrong block is consulted silently and the
read returns wrong data or a spurious miss (counted in stats).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice, takewhile
from typing import List, Optional, Tuple

from repro.core.registry import make_generator
from repro.errors import CorruptionDetectedError, KVStoreError
from repro.kvstore.blockcache import BlockCache
from repro.kvstore.bloom import hash_pair
from repro.kvstore.compaction import pick_compaction, run_compaction
from repro.kvstore.iterators import iterate_db
from repro.kvstore.manifest import MANIFEST_NAME, Manifest
from repro.kvstore.memtable import TOMBSTONE, MemTable
from repro.kvstore.options import Options
from repro.kvstore.sstable import SST_PREFIX, Records, SSTable, sst_filename
from repro.kvstore.storage import SimulatedStorage
from repro.kvstore.wal import (
    OP_PUT,
    SEGMENT_PREFIX,
    WALRecovery,
    WriteAheadLog,
    read_segments,
    segment_index,
    segment_name,
)


@dataclass
class DBStats:
    """Operational counters for one MiniRocks instance."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    scans: int = 0
    flushes: int = 0
    compactions: int = 0
    #: Compactions that moved their files down a level unchanged (no
    #: SST built, no ID minted); also counted in ``compactions``.
    trivial_moves: int = 0
    bloom_negative: int = 0
    sst_reads: int = 0
    #: Reads that consulted a block owned by a different SST (ground
    #: truth from the auditor) — the paper's collision symptom.
    corrupt_block_reads: int = 0
    #: Reads whose *returned value* was provably wrong or wrongly
    #: missing because of a cross-file block.
    corrupt_results: int = 0
    #: WAL fsyncs issued (durable stores only; group commit amortizes
    #: many writes per fsync under ``WriteMode.BATCH``).
    fsync_count: int = 0
    #: Framed bytes appended to the WAL (durable stores only).
    wal_bytes: int = 0
    #: Bytes dropped at the WAL torn tail during recovery (durable
    #: stores only; populated at open).
    wal_torn_bytes: int = 0
    #: Mid-log WAL corruption events recovery conservatively truncated
    #: at (durable stores without ``paranoid_checks`` only — with them,
    #: open raises instead). Nonzero means the log was silently cut.
    wal_mid_log_corruptions: int = 0


class MiniRocks:
    """One uncoordinated store instance.

    Parameters
    ----------
    options:
        Tuning and the ID-generation algorithm choice.
    cache:
        The block cache. Pass a shared instance to model the paper's
        multi-instance deployment; defaults to a private 4096-block one.
    rng:
        Randomness for the ID generator (seed for reproducibility).
    name:
        Label used in repr/audits.
    storage:
        Optional fault-injecting durable backend. With one, the store
        runs the **durable data path**: WAL records go to checksummed
        segments with group commit per ``options.write_mode``, flush
        persists the SST and commits the manifest + WAL truncation
        point atomically (write-then-rename), and construction
        *recovers* whatever state the storage holds — committed SSTs
        plus a replay of the live WAL segments. Without one, the store
        is the original in-memory simulation and keeps no WAL
        (:attr:`wal` is ``None``).
    """

    def __init__(
        self,
        options: Optional[Options] = None,
        cache: Optional[BlockCache] = None,
        rng: Optional[random.Random] = None,
        name: str = "db",
        storage: Optional[SimulatedStorage] = None,
    ):
        self.options = options if options is not None else Options()
        self.cache = cache if cache is not None else BlockCache(4096)
        self.name = name
        self._rng = rng if rng is not None else random.Random()
        self._id_generator = make_generator(
            self.options.id_algorithm, self.options.id_universe, self._rng
        )
        self.memtable = MemTable()
        self.manifest = Manifest(self.options.num_levels)
        self.stats = DBStats()
        self.storage = storage
        #: Highest seqno covered by the committed SSTs + manifest
        #: (durable regardless of WAL sync state).
        self._flushed_through = 0
        self._wal_floor = 0
        self.wal: Optional[WriteAheadLog] = None
        if storage is not None:
            self._open_durable()

    @classmethod
    def open(
        cls,
        storage: SimulatedStorage,
        options: Optional[Options] = None,
        cache: Optional[BlockCache] = None,
        rng: Optional[random.Random] = None,
        name: str = "db",
    ) -> "MiniRocks":
        """Open (or create) a durable store on ``storage``.

        Recovery runs inside: the committed manifest names the live
        SSTs and the WAL floor, live segments are replayed into the
        memtable (stopping cleanly at a torn tail — which is then
        trimmed off the segment so later recoveries see a clean log —
        and raising :class:`~repro.errors.WALCorruptionError` on
        mid-log damage under ``paranoid_checks``), orphan files from
        interrupted flushes/compactions are collected, and an
        oversized recovered memtable flushes immediately.
        """
        return cls(
            options=options, cache=cache, rng=rng, name=name,
            storage=storage,
        )

    def _open_durable(self) -> None:
        """Recover durable state: manifest → SSTs → WAL replay → GC."""
        storage = self.storage
        assert storage is not None
        floor = 0
        next_seqno = 1
        live_names = set()
        if storage.exists(MANIFEST_NAME):
            state = Manifest.decode_state(storage.read(MANIFEST_NAME))
            floor = state["wal_floor"]
            next_seqno = state["next_seqno"]
            # The manifest lists L0 newest-first, but add_file
            # *prepends* at L0 — replay oldest-first so the reloaded
            # age order (and thus read precedence) matches the
            # original, not its mirror image.
            for level, file_name in reversed(state["files"]):
                sst = SSTable.from_bytes(storage.read(file_name))
                self.manifest.add_file(level, sst, record_id=False)
                live_names.add(file_name)
            self.manifest.restore_assigned_ids(state["assigned_ids"])
        # Orphans: SSTs persisted by a flush/compaction whose manifest
        # commit never happened. Plain cleanup, not crash-eligible ops.
        for file_name in storage.list(SST_PREFIX):
            if file_name not in live_names:
                storage.delete(file_name, label="gc")
        self._wal_floor = floor
        self._flushed_through = next_seqno - 1
        recovery = read_segments(
            storage, floor, paranoid=self.options.paranoid_checks
        )
        self.stats.wal_torn_bytes += recovery.torn_bytes
        if recovery.mid_log_corruption:
            self.stats.wal_mid_log_corruptions += 1
        if recovery.torn_bytes > 0:
            self._repair_wal_damage(recovery)
        for seqno, op, key, value in recovery.records:
            if seqno <= self._flushed_through:
                continue  # already covered by a committed SST
            if op == OP_PUT:
                self.memtable.put(key, value)
            else:
                self.memtable.delete(key)
        last = max(recovery.last_seqno, self._flushed_through)
        # Write new records to a fresh segment *after* every surviving
        # one. The replayed segments stay on disk — still durable, no
        # re-append needed — until the next flush commits an SST that
        # covers them and moves the floor past them.
        existing = [
            segment_index(n) for n in storage.list(SEGMENT_PREFIX)
        ]
        self.wal = WriteAheadLog(
            storage,
            write_mode=self.options.write_mode,
            batch_size=self.options.wal_batch_size,
            segment_index=max(existing, default=floor - 1) + 1,
            next_seqno=last + 1,
            stats=self.stats,
        )
        # Segments below the floor survive only a crash between the
        # manifest commit and its truncation; finish the job.
        self.wal.truncate_below(floor)
        self._maybe_flush()

    def _repair_wal_damage(self, recovery: WALRecovery) -> None:
        """Neutralize the WAL damage recovery stopped at.

        The damaged segment is about to become non-final (new writes
        go to a fresh segment), and a leftover tear in a non-final
        segment would read as mid-log corruption on the *next*
        recovery — silently dropping every later (acked, fsynced)
        segment, or refusing to open under ``paranoid_checks``. Trim
        the segment to its valid prefix with an atomic rewrite, and
        drop any segments past the damage (mid-log case: their records
        were already conservatively discarded), so recovery is
        idempotent across repeated crashes.

        Only unsynced bytes can form a torn tail — a synced record
        survives a crash intact — so trimming never discards an
        acknowledged write.
        """
        storage = self.storage
        assert storage is not None
        damaged_index = recovery.segments[-1]
        name = segment_name(damaged_index)
        payload = storage.read(name)
        keep = len(payload) - recovery.torn_bytes
        storage.write_atomic(name, payload[:keep], label="wal-repair")
        for other in storage.list(SEGMENT_PREFIX):
            if segment_index(other) > damaged_index:
                storage.delete(other, label="wal-repair")

    # -- writes -------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> Optional[int]:
        """Insert or overwrite ``key``; may trigger flush + compaction.

        On a durable store, returns the write's WAL sequence number —
        the write is **acknowledged durable** once
        :attr:`durable_seqno` reaches it (immediately under
        ``SYNC_EVERY_WRITE``; when its group's fsync completes under
        ``BATCH``; at the next flush under ``NOSYNC``). Returns None
        on the in-memory store.
        """
        wal = self.wal
        seqno = None if wal is None else wal.append_put(key, value)
        self.memtable.put(key, value)
        self.stats.puts += 1
        self._maybe_flush()
        return seqno

    def delete(self, key: bytes) -> Optional[int]:
        """Delete ``key`` (writes a tombstone). Returns the WAL seqno
        on a durable store (see :meth:`put` for the ack contract)."""
        wal = self.wal
        seqno = None if wal is None else wal.append_delete(key)
        self.memtable.delete(key)
        self.stats.deletes += 1
        self._maybe_flush()
        return seqno

    @property
    def durable_seqno(self) -> int:
        """Highest seqno through which every write is acknowledged
        durable: covered by a committed SST or a completed WAL group
        fsync, whichever is further along."""
        durable = self._flushed_through
        if self.wal is not None:
            durable = max(durable, self.wal.synced_seqno)
        return durable

    @property
    def last_seqno(self) -> int:
        """Seqno of the newest write issued (acknowledged or not)."""
        if self.wal is not None:
            return self.wal.last_seqno
        return self._flushed_through

    def sync_wal(self) -> None:
        """Explicit durability barrier: fsync the open WAL group now
        (no-op on the in-memory store)."""
        if self.wal is not None:
            self.wal.sync()

    # -- reads --------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Point lookup: memtable first, then SSTs newest-first.

        The key is bloom-hashed at most once per lookup; every
        candidate SST's filter is probed with the same precomputed
        (h1, h2) pair instead of re-hashing per file.
        """
        self.stats.gets += 1
        buffered = self.memtable.get(key)
        if buffered is not None:
            return None if buffered == TOMBSTONE else buffered
        pair = None
        for _level, sst in self.manifest.candidates_for_key(key):
            if sst.bloom is not None:
                if pair is None:
                    pair = hash_pair(key)
                if not sst.bloom.may_contain_hash(pair):
                    self.stats.bloom_negative += 1
                    continue
            found, value = self._read_sst_block(sst, key)
            if found:
                return None if value == TOMBSTONE else value
        return None

    def scan(
        self, start: bytes, end: Optional[bytes] = None,
        limit: Optional[int] = None,
    ) -> List[Tuple[bytes, bytes]]:
        """Range scan over ``[start, end)``, newest live version per key.

        The :func:`~repro.kvstore.iterators.iterate_db` stream from
        ``start``, cut at ``end`` (``None``: the end of the key space)
        and after ``limit`` rows; with ``end=None`` and a ``limit`` this
        is the YCSB workload-E shape, "``limit`` rows from ``start``".
        Scans read the memtable and the live SSTs directly (bypassing
        the cache — scans in the real system use their own readahead
        path); deleted keys never appear, so ``limit`` counts live rows.
        """
        self.stats.scans += 1
        # A limit below 1 (a remote client can send one) returns no rows.
        if limit is not None and limit < 1:
            return []
        rows = iterate_db(self, start)
        if end is not None:
            rows = takewhile(lambda row: row[0] < end, rows)
        return list(islice(rows, limit))

    def _read_sst_block(
        self, sst: SSTable, key: bytes
    ) -> Tuple[bool, Optional[bytes]]:
        """Cache-mediated point lookup in one SST (bloom already passed).

        Returns ``(found, value)``; ``found`` is True when the consulted
        block contained the key (so the search must stop at this level).
        """
        block_no = sst.block_for_key(key)
        if block_no is None:
            return False, None
        self.stats.sst_reads += 1
        block = self.cache.get(sst.file_id, block_no, sst.fingerprint)
        if block is None:
            block = sst.blocks[block_no]
            self.cache.put(sst.file_id, block_no, block)
        if block.owner_fingerprint != sst.fingerprint:
            # The cache served another file's block (ID collision).
            self.stats.corrupt_block_reads += 1
            if self.options.paranoid_checks:
                raise CorruptionDetectedError(
                    f"{self.name}: cache served block of fingerprint "
                    f"{block.owner_fingerprint} for file_id={sst.file_id} "
                    f"(expected {sst.fingerprint})"
                )
            value = block.get(key)
            true_value = sst.blocks[block_no].get(key)
            if value != true_value:
                self.stats.corrupt_results += 1
            # Realistic silent behaviour: trust the wrong block.
            return value is not None, value
        value = block.get(key)
        return value is not None, value

    # -- maintenance ---------------------------------------------------------

    def _maybe_flush(self) -> None:
        if len(self.memtable) >= self.options.memtable_entries:
            self.flush()

    def flush(self) -> Optional[SSTable]:
        """Write the memtable out as a new L0 SST with a fresh file ID.

        Durable ordering: persist the SST (atomic write, crash point
        ``flush``), rotate the WAL to a fresh segment, then commit the
        manifest naming the new file *and* the new WAL floor in one
        atomic rename (crash point ``manifest-commit``). A crash
        anywhere in between leaves the old manifest + the old WAL
        segments, which reconstruct the pre-flush state exactly; only
        after the commit are the covered segments deleted.
        """
        if len(self.memtable) == 0:
            return None
        entries = list(self.memtable.sorted_entries())
        sst = self._build_sst(entries)
        if self.storage is not None:
            self._persist_sst(sst, label="flush")
        self.manifest.add_file(0, sst)
        self.memtable.clear()
        if self.wal is not None:
            flushed = self.wal.last_seqno
            floor = self.wal.rotate()
            self._commit_manifest(wal_floor=floor, flushed_through=flushed)
            # Only now is the flush durable: advance the acked
            # watermark after the commit lands, never before, so
            # ``durable_seqno`` cannot claim seqnos a crash inside
            # the commit would lose.
            self._flushed_through, self._wal_floor = flushed, floor
            self.wal.truncate_below(floor)
        self.stats.flushes += 1
        self._maybe_compact()
        return sst

    def _persist_sst(self, sst: SSTable, label: str) -> None:
        """Write an SST to durable storage (atomic, all-or-nothing)."""
        assert self.storage is not None
        self.storage.write_atomic(
            sst_filename(sst.fingerprint),
            sst.to_bytes(),
            label=label,
        )

    def _commit_manifest(
        self,
        wal_floor: Optional[int] = None,
        flushed_through: Optional[int] = None,
    ) -> None:
        """Atomically commit the live-file set + WAL coordinates.

        ``flush`` passes the *candidate* coordinates explicitly and
        installs them on ``self`` only after this returns; every other
        caller commits the current attributes unchanged.
        """
        assert self.storage is not None
        if wal_floor is None:
            wal_floor = self._wal_floor
        if flushed_through is None:
            flushed_through = self._flushed_through
        self.storage.write_atomic(
            MANIFEST_NAME,
            self.manifest.encode_state(
                wal_floor=wal_floor,
                next_seqno=flushed_through + 1,
            ),
            label="manifest-commit",
        )

    def _build_sst(self, entries) -> SSTable:
        file_id = self._id_generator.next_id()
        return SSTable.from_entries(
            file_id=file_id,
            entries=entries,
            block_entries=self.options.block_entries,
            bloom_bits_per_key=self.options.bloom_bits_per_key,
        )

    def _maybe_compact(self) -> None:
        while True:
            job = pick_compaction(self.manifest, self.options)
            if job is None:
                return
            dropped: List[SSTable] = []

            def on_dropped(sst: SSTable) -> None:
                self.cache.evict_file(sst.file_id)
                dropped.append(sst)

            def build(entries) -> SSTable:
                sst = self._build_sst(entries)
                if self.storage is not None:
                    self._persist_sst(sst, label="compaction")
                return sst

            run_compaction(
                self.manifest,
                self.options,
                job,
                build_sst=build,
                on_file_dropped=on_dropped,
            )
            if self.storage is not None:
                # Commit the new version first; input files are
                # deleted only once nothing references them, so a
                # crash at any point leaves a readable version. A
                # trivial move drops no file and deletes nothing.
                self._commit_manifest()
                for sst in dropped:
                    name = sst_filename(sst.fingerprint)
                    if self.storage.exists(name):
                        self.storage.delete(name, label="sst-delete")
            self.stats.compactions += 1
            if job.trivial_move:
                self.stats.trivial_moves += 1

    def compact_all(self) -> None:
        """Force compactions until every level is within budget."""
        self._maybe_compact()

    def ingest_external(self, entries) -> SSTable:
        """Bulk-load a sorted batch as one SST, bypassing the memtable.

        This is RocksDB's ingest-external-file path: the new file gets
        a **fresh uncoordinated ID** from this instance's generator
        (unlike migration, which moves a file *with* its original ID —
        the distinction that makes cross-instance uniqueness a global,
        not per-node, requirement). Entries must be strictly ascending
        by key.
        """
        records = Records.encode(entries)
        if not records.keys:
            raise KVStoreError("cannot ingest an empty batch")
        # Encode and check the batch before the build draws its file
        # ID, so a rejected batch burns none: every ID drawn is an ID
        # recorded.
        Records.check_ascending(records.keys)
        sst = self._build_sst(records)
        if self.storage is not None:
            self._persist_sst(sst, label="flush")
        self.manifest.add_file(0, sst)
        if self.storage is not None:
            self._commit_manifest()
        self._maybe_compact()
        return sst

    # -- introspection ---------------------------------------------------------

    def assigned_file_ids(self) -> List[int]:
        """Every file ID this instance ever assigned (flushes+compactions)."""
        return list(self.manifest.assigned_ids)

    def __repr__(self) -> str:
        return (
            f"MiniRocks({self.name!r}, files={self.manifest.file_count()}, "
            f"memtable={len(self.memtable)})"
        )
