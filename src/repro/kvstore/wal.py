"""Write-ahead logging: record framing, group commit, and recovery.

:class:`WriteAheadLog` is the durable, segmented log over a
:class:`~repro.kvstore.storage.SimulatedStorage`; only a
:class:`~repro.kvstore.db.MiniRocks` with storage keeps one (a store
without storage keeps no log, since nothing it holds outlives the
process). Records are framed
``seqno:8 | op:1 | klen:4 | vlen:4 | crc32:4 | key | value``
(big-endian, CRC over everything but itself), appended to numbered
segment files, and made durable by fsync according to a
:class:`WriteMode`:

- ``SYNC_EVERY_WRITE`` — fsync after every record (each write is
  durable before it is acknowledged);
- ``BATCH`` — **group commit**: records accumulate and one fsync
  acknowledges the whole group when it reaches the adaptive batch
  size (the size doubles while groups fill on their own and halves
  when an explicit barrier drains a partial group — amortizing
  fsyncs under load without letting a trickle of writes sit
  unacknowledged forever);
- ``NOSYNC`` — never fsync on the write path; durability arrives
  only via flush (the SST + manifest commit covers the records).

A write is **acknowledged** once its group's fsync completes —
:attr:`WriteAheadLog.synced_seqno` is the ack horizon, and everything
above it is buffered page-cache data a crash may tear.

Recovery (:func:`read_segments`) replays segments in index order and
validates every frame. A failed frame at the *tail* of the final
segment is a torn write: recovery stops cleanly there. A failed frame
*mid-log* (valid frames after it, or in a sealed earlier segment)
cannot be produced by a crash and raises
:class:`~repro.errors.WALCorruptionError` under ``paranoid_checks``
(without it, recovery still stops at the bad frame — conservatively
dropping the rest — but records the event on the
:class:`WALRecovery` result, which the store mirrors into
``DBStats.wal_mid_log_corruptions`` / ``wal_torn_bytes``).
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Tuple

from repro.errors import ConfigurationError, KVStoreError, WALCorruptionError
from repro.kvstore.storage import SimulatedStorage

#: Record kinds.
OP_PUT = 1
OP_DELETE = 2


class WALStatsSink(Protocol):
    """What :class:`WriteAheadLog` needs from a stats object.

    Structural typing breaks the import cycle with
    :class:`~repro.kvstore.db.DBStats` (db imports wal for the log; the
    log only mirrors two counters back).
    """

    fsync_count: int
    wal_bytes: int

#: Fixed framed-record header: seqno:8 | op:1 | klen:4 | vlen:4 | crc:4.
RECORD_HEADER = 8 + 1 + 4 + 4 + 4

#: Durable WAL segment files are ``wal-<index:06d>.log``.
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"


class WriteMode(enum.Enum):
    """When the WAL fsyncs — the durability/throughput dial."""

    #: Never fsync on the write path; only flush makes data durable.
    NOSYNC = "nosync"
    #: Group commit: one fsync acknowledges a whole adaptive batch.
    BATCH = "batch"
    #: fsync after every record before acknowledging it.
    SYNC_EVERY_WRITE = "sync"


def encode_record(seqno: int, op: int, key: bytes, value: bytes) -> bytes:
    """Frame one record: header (with CRC32) + key + value."""
    header_sans_crc = (
        seqno.to_bytes(8, "big")
        + bytes((op,))
        + len(key).to_bytes(4, "big")
        + len(value).to_bytes(4, "big")
    )
    crc = zlib.crc32(value, zlib.crc32(key, zlib.crc32(header_sans_crc)))
    return header_sans_crc + crc.to_bytes(4, "big") + key + value


def decode_record_at(
    payload: bytes, offset: int
) -> Tuple[int, int, bytes, bytes, int]:
    """Decode the record at ``offset``; return
    ``(seqno, op, key, value, next_offset)``.

    Raises :class:`~repro.errors.WALCorruptionError` on any framing
    problem. Length prefixes are bounded against the remaining payload
    *before* slicing (mirroring the RPC layer's oversized-prefix
    rejection), so a torn or hostile length field can never trigger a
    huge allocation or a silently-short slice.
    """
    size = len(payload)
    if offset + RECORD_HEADER > size:
        raise WALCorruptionError(
            f"truncated record header at byte {offset}"
        )
    seqno = int.from_bytes(payload[offset : offset + 8], "big")
    op = payload[offset + 8]
    if op not in (OP_PUT, OP_DELETE):
        raise WALCorruptionError(f"unknown op {op} at byte {offset}")
    key_len = int.from_bytes(payload[offset + 9 : offset + 13], "big")
    value_len = int.from_bytes(payload[offset + 13 : offset + 17], "big")
    crc = int.from_bytes(payload[offset + 17 : offset + 21], "big")
    body = offset + RECORD_HEADER
    if key_len > size - body:
        raise WALCorruptionError(
            f"key length {key_len} exceeds remaining payload at byte "
            f"{offset}"
        )
    if value_len > size - body - key_len:
        raise WALCorruptionError(
            f"value length {value_len} exceeds remaining payload at "
            f"byte {offset}"
        )
    key = payload[body : body + key_len]
    value = payload[body + key_len : body + key_len + value_len]
    header_sans_crc = payload[offset : offset + 17]
    expected = zlib.crc32(
        value, zlib.crc32(key, zlib.crc32(header_sans_crc))
    )
    if crc != expected:
        raise WALCorruptionError(
            f"checksum mismatch at byte {offset} "
            f"(stored {crc:#010x}, computed {expected:#010x})"
        )
    return seqno, op, key, value, body + key_len + value_len


def segment_name(index: int) -> str:
    """The on-disk name of segment ``index`` (zero-padded, sortable)."""
    return f"{SEGMENT_PREFIX}{index:06d}{SEGMENT_SUFFIX}"


def segment_index(name: str) -> int:
    """Parse the index out of a segment file name."""
    stem = name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError:
        raise KVStoreError(f"not a WAL segment name: {name!r}") from None


class WriteAheadLog:
    """Segmented, checksummed, group-committed log over simulated storage.

    Parameters
    ----------
    storage:
        The fault-injecting backend.
    write_mode:
        Fsync policy (see :class:`WriteMode`).
    batch_size:
        Initial group size for ``BATCH`` mode; the adaptive size moves
        in [1, 8 x batch_size].
    segment_index / next_seqno:
        Resume coordinates (recovery hands these in; fresh logs start
        at segment 0, seqno 1).
    stats:
        Optional :class:`~repro.kvstore.db.DBStats` to mirror
        ``fsync_count``/``wal_bytes`` into.
    """

    def __init__(
        self,
        storage: SimulatedStorage,
        write_mode: WriteMode = WriteMode.BATCH,
        batch_size: int = 8,
        segment_index: int = 0,
        next_seqno: int = 1,
        stats: Optional[WALStatsSink] = None,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError("wal batch_size must be >= 1")
        self._storage = storage
        self.write_mode = write_mode
        self._initial_batch = batch_size
        self._max_batch = batch_size * 8
        #: Current group-commit target (BATCH mode only).
        self.adaptive_batch_size = batch_size
        self.segment_index = segment_index
        #: Last seqno appended (buffered or synced).
        self.last_seqno = next_seqno - 1
        #: Last seqno whose group fsync completed — the ack horizon.
        self.synced_seqno = self.last_seqno
        #: Records appended since the last fsync (the open group).
        self.pending_records = 0
        self.fsync_count = 0
        self.wal_bytes = 0
        self._stats = stats

    # -- the write path -----------------------------------------------------

    def append(self, op: int, key: bytes, value: bytes) -> int:
        """Append one record; returns its seqno.

        Under ``SYNC_EVERY_WRITE`` the record is durable on return;
        under ``BATCH`` it becomes durable when its group commits
        (watch :attr:`synced_seqno`); under ``NOSYNC`` it is buffered
        only.
        """
        seqno = self.last_seqno + 1
        record = encode_record(seqno, op, key, value)
        self._storage.append(
            segment_name(self.segment_index), record, label="wal-append"
        )
        self.last_seqno = seqno
        self.pending_records += 1
        self.wal_bytes += len(record)
        if self._stats is not None:
            self._stats.wal_bytes += len(record)
        if self.write_mode is WriteMode.SYNC_EVERY_WRITE:
            self._fsync()
        elif (
            self.write_mode is WriteMode.BATCH
            and self.pending_records >= self.adaptive_batch_size
        ):
            # Group commit: the batch filled on its own — writes are
            # arriving faster than fsyncs, so amortize further.
            self._fsync()
            self.adaptive_batch_size = min(
                self.adaptive_batch_size * 2, self._max_batch
            )
        return seqno

    def append_put(self, key: bytes, value: bytes) -> int:
        """Append a PUT record; returns its sequence number."""
        return self.append(OP_PUT, key, value)

    def append_delete(self, key: bytes) -> int:
        """Append a DELETE record; returns its sequence number."""
        return self.append(OP_DELETE, key, b"")

    def sync(self) -> None:
        """Explicit durability barrier: commit the open group now.

        In ``BATCH`` mode an explicit barrier draining a *partial*
        group is the signal that writes arrive slower than the batch
        target assumes — the adaptive size halves (floor 1) so acks
        stop lagging a trickle of writes.
        """
        if self.pending_records == 0:
            return
        if (
            self.write_mode is WriteMode.BATCH
            and self.pending_records < self.adaptive_batch_size
        ):
            self.adaptive_batch_size = max(
                self.adaptive_batch_size // 2, 1
            )
        self._fsync()

    def _fsync(self) -> None:
        self._storage.fsync(
            segment_name(self.segment_index), label="fsync"
        )
        self.fsync_count += 1
        if self._stats is not None:
            self._stats.fsync_count += 1
        self.synced_seqno = self.last_seqno
        self.pending_records = 0

    # -- segment lifecycle --------------------------------------------------

    def rotate(self) -> int:
        """Seal the active segment and direct writes at a fresh one.

        Called at flush: the sealed segment's records are about to be
        covered by an SST + manifest commit. Under ``BATCH``/
        ``SYNC_EVERY_WRITE`` the open group commits first (the sealed
        segment must not carry unsynced acked data); ``NOSYNC`` seals
        as-is — the manifest commit, not the WAL, is its durability.
        Returns the new active segment index (the manifest's WAL
        floor once the flush commits).
        """
        if self.write_mode is not WriteMode.NOSYNC:
            if self._storage.exists(segment_name(self.segment_index)):
                self.sync()
            else:
                self.synced_seqno = self.last_seqno
                self.pending_records = 0
        else:
            # The open group seals with the segment; its records'
            # durability is the manifest commit that follows, so don't
            # advance the ack horizon — but a later explicit sync()
            # must not try to fsync the old (or a not-yet-created)
            # segment for them.
            self.pending_records = 0
        self.segment_index += 1
        return self.segment_index

    def truncate_below(self, floor: int) -> int:
        """Delete sealed segments with index < ``floor`` (their records
        are covered by a committed manifest). Returns segments removed."""
        removed = 0
        for name in self._storage.list(SEGMENT_PREFIX):
            if segment_index(name) < floor:
                self._storage.delete(name, label="wal-truncate")
                removed += 1
        return removed


@dataclass
class WALRecovery:
    """What :func:`read_segments` found."""

    #: Replayable records, in seqno order: (seqno, op, key, value).
    records: List[Tuple[int, int, bytes, bytes]] = field(
        default_factory=list
    )
    #: Segment indices scanned, ascending.
    segments: List[int] = field(default_factory=list)
    #: Bytes dropped at a torn tail (0 for a clean log).
    torn_bytes: int = 0
    #: True when a frame failed mid-log (only reachable without
    #: ``paranoid`` — with it, recovery raises instead).
    mid_log_corruption: bool = False

    @property
    def last_seqno(self) -> int:
        """Sequence number of the last recovered record (0 if none)."""
        return self.records[-1][0] if self.records else 0


def _valid_record_follows(payload: bytes, start: int) -> bool:
    """Does any byte offset >= ``start`` begin a fully valid record?

    Used to classify a frame failure: garbage followed by a decodable
    record means the *middle* of the log is damaged (no crash writes
    behind its own torn tail), while garbage to the end of the file is
    the expected torn write. A CRC32 plus bounded lengths makes an
    accidental match in torn garbage astronomically unlikely.
    """
    for offset in range(start, len(payload) - RECORD_HEADER + 1):
        try:
            decode_record_at(payload, offset)
        except WALCorruptionError:
            continue
        return True
    return False


def read_segments(
    storage: SimulatedStorage,
    floor: int = 0,
    paranoid: bool = False,
) -> WALRecovery:
    """Scan live WAL segments (index >= ``floor``) and decode records.

    Stops cleanly at a torn tail (bad frame at the end of the final
    segment); classifies anything else — a bad frame with valid frames
    after it, a damaged sealed segment, or a seqno discontinuity — as
    mid-log corruption, which raises
    :class:`~repro.errors.WALCorruptionError` under ``paranoid`` and
    otherwise conservatively ends recovery at the damage.
    """
    recovery = WALRecovery()
    names = [
        name
        for name in storage.list(SEGMENT_PREFIX)
        if segment_index(name) >= floor
    ]
    expected_seqno: Optional[int] = None
    for position, name in enumerate(names):
        recovery.segments.append(segment_index(name))
        payload = storage.read(name)
        final_segment = position == len(names) - 1
        offset = 0
        while offset < len(payload):
            try:
                seqno, op, key, value, next_offset = decode_record_at(
                    payload, offset
                )
            except WALCorruptionError as exc:
                mid_log = not final_segment or _valid_record_follows(
                    payload, offset + 1
                )
                if mid_log:
                    if paranoid:
                        raise WALCorruptionError(
                            f"mid-log corruption in {name} at byte "
                            f"{offset}: {exc}"
                        ) from exc
                    recovery.mid_log_corruption = True
                recovery.torn_bytes = len(payload) - offset
                return recovery
            if expected_seqno is not None and seqno != expected_seqno:
                # A valid frame with the wrong seqno is not a torn
                # write — appends are strictly sequential, so this is
                # mid-log damage (or a stale recycled segment).
                if paranoid:
                    raise WALCorruptionError(
                        f"seqno discontinuity in {name} at byte "
                        f"{offset}: expected {expected_seqno}, "
                        f"found {seqno}"
                    )
                recovery.mid_log_corruption = True
                recovery.torn_bytes = len(payload) - offset
                return recovery
            recovery.records.append((seqno, op, key, value))
            expected_seqno = seqno + 1
            offset = next_offset
    return recovery
