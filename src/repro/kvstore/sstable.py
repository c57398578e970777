"""Immutable sorted string tables (SSTs) and their data blocks.

An SST is the unit that receives an **uncoordinated unique ID** — this
is exactly the RocksDB deployment the paper's introduction describes.
Block-cache entries are keyed by ``(file_id, block_no)``, so if two SSTs
anywhere in the fleet ever share a ``file_id``, a reader of one file can
be served a cached block of the other: silent corruption.

Each SST also carries a ``fingerprint``: a process-global sequence
number that is unique *by construction* (it is what a coordinated
system would use). It exists purely as ground truth for the corruption
auditor — the data path never routes by it.

Point lookups are decode-free. A data block payload is::

    records   (klen:u32 | key | vlen:u32 | value) × count
    offsets   count × u32   — record start offsets, ascending from 0
    trailer   count:u32 | magic:4   (magic ``BK\xe2\x02``)

``Block.get`` binary-searches the offset table and slices out only the
matching record — no full decode, no per-lookup key-list allocation.
The offset view is parsed (and strictly validated against the record
bytes — a flipped or truncated trailer raises
:class:`~repro.errors.KVStoreError` instead of misreading) once per
block and memoized as an ``array("I")``: four bytes per record instead
of a tuple of heap ints, which matters because every live block keeps
its memo. Because the validated offsets tile the record region, a full
decode reads only the key length of each record; the record ends where
the next one starts. :meth:`Block.entries` decodes ``(key, value)``
pairs for iterators and audits. Compaction reads :meth:`Block.records`
instead: each key plus one slice of its whole *record*
(``klen | key | vlen | value``), which it carries into its output
blocks as they are. :meth:`SSTable.from_entries` builds every SST,
flush and compaction alike, from such :class:`Records`; ``(key,
value)`` pairs are encoded into records first, so blocks, bloom and
live count come from one builder.

An SST file (:meth:`SSTable.to_bytes`) is the ``SS\x02`` container:
identity (fingerprint, ``file_id``), the serialized bloom filter, the
build-time live-entry count, then the length-prefixed block payloads.
Another magic, a truncated payload or a block whose offset table does
not tile its records raises :class:`~repro.errors.KVStoreError`. The
container has no checksum: a flipped byte inside a key, a value or the
identity fields still decodes.
"""

from __future__ import annotations

import bisect
import itertools
import struct
from array import array
from dataclasses import dataclass, field
from operator import ge
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.errors import KVStoreError
from repro.kvstore.bloom import BloomFilter
from repro.kvstore.memtable import TOMBSTONE

#: Process-global ground-truth sequence for corruption auditing.
_fingerprint_counter = itertools.count(1)

#: Durable SST file names (fingerprint-keyed: unique by construction,
#: unlike the uncoordinated ``file_id`` the data path routes by).
SST_PREFIX = "sst-"
SST_SUFFIX = ".sst"

#: Magic + format version prefix for :meth:`SSTable.to_bytes`.
_SST_MAGIC_V2 = b"SS\x02"

#: Trailer magic closing a block payload.
_BLOCK_MAGIC = b"BK\xe2\x02"
#: count:u32 + magic
_TRAILER_FIXED = 4 + len(_BLOCK_MAGIC)

_U32 = struct.Struct(">I")
_unpack_u32_from = _U32.unpack_from
#: Record bytes around a tombstone's key: both length fields + value.
_TOMBSTONE_RECORD_EXTRA = 8 + len(TOMBSTONE)


def sst_filename(fingerprint: int) -> str:
    """Storage file name for a persisted SST.

    Keyed by the *fingerprint* (unique by construction), not the
    uncoordinated ``file_id`` — two colliding SSTs must still occupy
    distinct files on disk, exactly as in the real system, where the
    collision happens in the shared cache, not the file system.
    """
    return f"{SST_PREFIX}{fingerprint:012d}{SST_SUFFIX}"


class Records(NamedTuple):
    """Entries in their encoded form: the keys and, in the same order,
    each key's *record*, the exact bytes a block stores for it
    (``klen:u32 | key | vlen:u32 | value``)."""

    keys: List[bytes]
    records: List[bytes]

    @classmethod
    def encode(cls, entries: Iterable[Tuple[bytes, bytes]]) -> "Records":
        """Encode ``(key, value)`` pairs."""
        pack = _U32.pack
        keys: List[bytes] = []
        records: List[bytes] = []
        for key, value in entries:
            keys.append(key)
            records.append(
                b"".join((pack(len(key)), key, pack(len(value)), value))
            )
        return cls(keys, records)

    @staticmethod
    def check_ascending(keys: Sequence[bytes]) -> None:
        """Raise :class:`~repro.errors.KVStoreError` unless ``keys`` are
        strictly ascending (so also on a duplicate key)."""
        if any(map(ge, keys, keys[1:])):
            index = list(map(ge, keys, keys[1:])).index(True)
            raise KVStoreError(
                f"entries must be strictly ascending: "
                f"{keys[index]!r} >= {keys[index + 1]!r}"
            )


def tombstone_keys(
    keys: Iterable[bytes], records: Iterable[bytes]
) -> List[bytes]:
    """The keys whose record holds a tombstone.

    ``keys`` and ``records`` are parallel; ``records`` is read twice.
    A record holds one exactly when its value-length field equals
    ``len(TOMBSTONE)`` and it ends with ``TOMBSTONE``: a live value may
    merely end with those bytes. ``endswith`` screens every record in
    C; only the records it passes have their value length checked.
    """
    return [
        key
        for key, record in itertools.compress(
            zip(keys, records),
            map(bytes.endswith, records, itertools.repeat(TOMBSTONE)),
        )
        if len(record) - len(key) == _TOMBSTONE_RECORD_EXTRA
    ]


def _encode_block(records: Sequence[bytes]) -> Tuple[bytes, List[int]]:
    """Block payload for encoded records + the record offsets, which
    accumulate from the records' lengths."""
    offsets = list(itertools.accumulate(map(len, records), initial=0))
    offsets.pop()  # where the record region ends, not a record start
    return (
        b"".join([
            *records,
            struct.pack(f">{len(offsets)}I", *offsets),
            len(offsets).to_bytes(4, "big"),
            _BLOCK_MAGIC,
        ]),
        offsets,
    )


def _parse_v2_offsets(payload: bytes) -> List[int]:
    """Parse + strictly validate a block payload's offset table.

    The stored table must agree exactly with the record walk (each
    record's length prefixes tile the record region): any bit flip or
    truncation in the trailer — offsets, count, or magic — fails
    loudly here rather than sending a binary search to a wrong slice.
    """
    size = len(payload)
    if size < _TRAILER_FIXED or payload[-len(_BLOCK_MAGIC):] != _BLOCK_MAGIC:
        raise KVStoreError("block payload lacks the trailer magic")
    count = int.from_bytes(
        payload[size - _TRAILER_FIXED : size - len(_BLOCK_MAGIC)], "big"
    )
    if count == 0:
        if size != _TRAILER_FIXED:
            raise KVStoreError("v2 block with no records but a body")
        return []
    body_size = size - _TRAILER_FIXED - 4 * count
    if body_size < 8 * count:  # every record costs >= 8 bytes
        raise KVStoreError("v2 block offset table exceeds payload")
    offsets = list(
        struct.unpack_from(f">{count}I", payload, body_size)
    )
    # Walk the record region and require exact agreement.
    position = 0
    for index in range(count):
        if offsets[index] != position:
            raise KVStoreError(
                f"v2 block offset[{index}] is {offsets[index]}, "
                f"record walk says {position}"
            )
        if position + 8 > body_size:
            raise KVStoreError("v2 block record header out of bounds")
        key_len = int.from_bytes(payload[position : position + 4], "big")
        if position + 8 + key_len > body_size:
            raise KVStoreError("v2 block key out of bounds")
        value_len = int.from_bytes(
            payload[position + 4 + key_len : position + 8 + key_len],
            "big",
        )
        position += 8 + key_len + value_len
    if position != body_size:
        raise KVStoreError("v2 block records do not tile the payload")
    return offsets


def _key_at(payload: bytes, offset: int) -> bytes:
    # Hot zero-decode read path: offsets only ever come from the
    # builder or from _parse_v2_offsets, which validates every record's
    # length prefixes against the payload size before handing them out.
    key_len = int.from_bytes(payload[offset : offset + 4], "big")
    return payload[offset + 4 : offset + 4 + key_len]  # noqa: REPRO201 -- record pre-validated by the offset scan


def _record_at(payload: bytes, offset: int) -> Tuple[bytes, bytes]:
    # Same contract as _key_at: callers pass offsets from the builder
    # or the validating parse, so the length prefixes are in bounds.
    key_len = int.from_bytes(payload[offset : offset + 4], "big")  # noqa: REPRO201 -- record pre-validated by the offset scan
    offset += 4
    key = payload[offset : offset + key_len]  # noqa: REPRO201 -- record pre-validated by the offset scan
    offset += key_len
    value_len = int.from_bytes(payload[offset : offset + 4], "big")  # noqa: REPRO201 -- record pre-validated by the offset scan
    offset += 4
    return key, payload[offset : offset + value_len]  # noqa: REPRO201 -- record pre-validated by the offset scan


@dataclass(frozen=True)
class Block:
    """One immutable data block: an encoded, sorted run of entries.

    The offset view is parsed lazily and memoized — repeated ``get``
    calls and ``entries_from`` seeks reuse it.
    """

    payload: bytes
    first_key: bytes
    last_key: bytes
    #: Ground-truth owner (SST fingerprint) for the corruption auditor.
    owner_fingerprint: int
    block_no: int
    _offsets: Optional["array[int]"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def offsets(self) -> "array[int]":
        """Record start offsets (parsed once, then memoized)."""
        cached = self._offsets
        if cached is None:
            cached = array("I", _parse_v2_offsets(self.payload))
            object.__setattr__(self, "_offsets", cached)
        return cached

    def _install_offsets(self, offsets: Sequence[int]) -> None:
        """Builder fast path: offsets known at encode time."""
        object.__setattr__(self, "_offsets", array("I", offsets))

    @property
    def entry_count(self) -> int:
        """Number of records, without decoding them."""
        return len(self.offsets())

    def _ends(self) -> "array[int]":
        """Where each record ends. The validated offsets tile the
        record region, so a record ends where the next one starts and
        the last one where the offset table does."""
        offsets = self.offsets()
        ends = offsets[1:]
        ends.append(len(self.payload) - _TRAILER_FIXED - 4 * len(offsets))
        return ends

    def entries(self) -> List[Tuple[bytes, bytes]]:
        """Decode the block's (key, value) pairs, reading only each
        record's key length (see :meth:`_ends`)."""
        payload = self.payload
        unpack_from = _unpack_u32_from
        result = []
        for start, end in zip(self.offsets(), self._ends()):
            key_end = start + 4 + unpack_from(payload, start)[0]
            result.append(
                (payload[start + 4 : key_end], payload[key_end + 4 : end])
            )
        return result

    def records(self) -> Records:
        """The block's keys and whole records, compaction's input.

        Reads only each record's key length; the record is one slice
        and its value is never decoded. Two lists of ``bytes`` hold no
        per-entry tuple for the garbage collector to track.
        """
        payload = self.payload
        unpack_from = _unpack_u32_from
        keys: List[bytes] = []
        records: List[bytes] = []
        add_key, add_record = keys.append, records.append
        for start, end in zip(self.offsets(), self._ends()):
            key_end = start + 4 + unpack_from(payload, start)[0]
            add_key(payload[start + 4 : key_end])
            add_record(payload[start:end])
        return Records(keys, records)

    def key_at(self, index: int) -> bytes:
        """The key of record ``index`` (slices only the key bytes)."""
        return _key_at(self.payload, self.offsets()[index])

    def _bisect_left(self, key: bytes) -> int:
        """First record index whose key is >= ``key``."""
        offsets = self.offsets()
        payload = self.payload
        from_bytes = int.from_bytes
        lo, hi = 0, len(offsets)
        while lo < hi:
            mid = (lo + hi) // 2
            off = offsets[mid]
            key_len = from_bytes(payload[off : off + 4], "big")
            if payload[off + 4 : off + 4 + key_len] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def get(self, key: bytes) -> Optional[bytes]:
        """Binary-search the offset index; slice out only the match."""
        offsets = self.offsets()
        index = self._bisect_left(key)
        if index >= len(offsets):
            return None
        payload = self.payload
        offset = offsets[index]
        key_len = int.from_bytes(payload[offset : offset + 4], "big")
        offset += 4
        if payload[offset : offset + key_len] != key:
            return None
        offset += key_len
        value_len = int.from_bytes(payload[offset : offset + 4], "big")
        offset += 4
        return payload[offset : offset + value_len]

    def entries_from(self, start: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Records with key >= ``start``, positioned by offset bisect."""
        offsets = self.offsets()
        payload = self.payload
        for index in range(self._bisect_left(start), len(offsets)):
            yield _record_at(payload, offsets[index])


class SSTable:
    """An immutable sorted file with index, bloom filter, and a file ID.

    Build with :meth:`from_entries`; entries must be strictly
    ascending by key (duplicates are a builder bug).
    """

    def __init__(
        self,
        file_id: int,
        blocks: List[Block],
        index_keys: List[bytes],
        bloom: Optional[BloomFilter],
        fingerprint: int,
        entry_count: int,
        bloom_bits_per_key: int,
        live_entries: int,
    ):
        self.file_id = file_id
        self.blocks = blocks
        self._index_keys = index_keys  # last key of each block
        self.bloom = bloom
        self.fingerprint = fingerprint
        self.entry_count = entry_count
        self.bloom_bits_per_key = bloom_bits_per_key
        #: Key range as plain attributes — ``key_in_range`` runs once
        #: per live file per point lookup, and the blocks (hence the
        #: range) never change after construction.
        self.min_key = blocks[0].first_key if blocks else b""
        self.max_key = blocks[-1].last_key if blocks else b""
        #: Non-tombstone entries, fixed at build time (the file is
        #: immutable) so size queries never decode blocks.
        self.live_entries = live_entries

    @classmethod
    def from_entries(
        cls,
        file_id: int,
        entries: Union[Records, Sequence[Tuple[bytes, bytes]]],
        block_entries: int,
        bloom_bits_per_key: int = 10,
    ) -> "SSTable":
        """Build an SST from sorted, de-duplicated entries.

        ``entries`` are ``(key, value)`` pairs or, as compaction passes
        them, :class:`Records`. Pairs are encoded into records first;
        each block is then its records joined plus their offset table.
        """
        if not isinstance(entries, Records):
            entries = Records.encode(entries)
        keys, records = entries
        if not keys:
            raise KVStoreError("cannot build an empty SSTable")
        Records.check_ascending(keys)
        live = len(keys) - len(tombstone_keys(keys, records))
        fingerprint = next(_fingerprint_counter)
        blocks: List[Block] = []
        index_keys: List[bytes] = []
        for block_no, start in enumerate(range(0, len(keys), block_entries)):
            stop = min(start + block_entries, len(keys))
            payload, offsets = _encode_block(records[start:stop])
            block = Block(
                payload=payload,
                first_key=keys[start],
                last_key=keys[stop - 1],
                owner_fingerprint=fingerprint,
                block_no=block_no,
            )
            block._install_offsets(offsets)
            blocks.append(block)
            index_keys.append(block.last_key)
        bloom = None
        if bloom_bits_per_key > 0:
            bloom = BloomFilter(len(keys), bloom_bits_per_key)
            bloom.add_all(keys)
        return cls(
            file_id=file_id,
            blocks=blocks,
            index_keys=index_keys,
            bloom=bloom,
            fingerprint=fingerprint,
            entry_count=len(keys),
            bloom_bits_per_key=bloom_bits_per_key,
            live_entries=live,
        )

    # -- durable round-trip --------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize for durable storage, preserving identity.

        Both the uncoordinated ``file_id`` *and* the ground-truth
        ``fingerprint`` survive the round-trip — a reloaded SST must
        keep claiming its original cache blocks, or every reopen would
        manufacture false cache-corruption signals. The bloom filter's
        bit array and the build-time live-entry count are persisted
        too, so reopening neither re-hashes a key nor decodes a block.
        """
        id_bytes = self.file_id.to_bytes(
            max(1, (self.file_id.bit_length() + 7) // 8), "big"
        )
        bloom_bytes = b"" if self.bloom is None else self.bloom.to_bytes()
        parts = [
            _SST_MAGIC_V2,
            self.fingerprint.to_bytes(8, "big"),
            len(id_bytes).to_bytes(2, "big"),
            id_bytes,
            self.bloom_bits_per_key.to_bytes(4, "big"),
            self.live_entries.to_bytes(8, "big"),
            len(bloom_bytes).to_bytes(4, "big"),
            bloom_bytes,
            len(self.blocks).to_bytes(4, "big"),
        ]
        for block in self.blocks:
            parts.append(len(block.payload).to_bytes(4, "big"))
            parts.append(block.payload)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "SSTable":
        """Inverse of :meth:`to_bytes`.

        Blocks are rebuilt on their original boundaries (cache
        granularity is part of the file, not the reader). Reopening is
        decode-free: the bloom filter deserializes from its bit array,
        the live-entry count comes from the header, and per-block
        bookkeeping (first/last key, entry count) needs only the
        validated offset table. Malformed input raises
        :class:`~repro.errors.KVStoreError`.
        """
        if payload[: len(_SST_MAGIC_V2)] != _SST_MAGIC_V2:
            raise KVStoreError("bad SST magic/version")
        size = len(payload)
        offset = len(_SST_MAGIC_V2)
        if offset + 10 > size:
            raise KVStoreError("truncated SST header")
        fingerprint = int.from_bytes(payload[offset : offset + 8], "big")
        offset += 8
        id_len = int.from_bytes(payload[offset : offset + 2], "big")
        offset += 2
        if id_len > size - offset:
            raise KVStoreError("SST file_id length exceeds payload")
        file_id = int.from_bytes(payload[offset : offset + id_len], "big")
        offset += id_len
        if offset + 16 > size:
            raise KVStoreError("truncated SST header")
        bloom_bits_per_key = int.from_bytes(
            payload[offset : offset + 4], "big"
        )
        offset += 4
        live_entries = int.from_bytes(payload[offset : offset + 8], "big")
        offset += 8
        bloom_len = int.from_bytes(payload[offset : offset + 4], "big")
        offset += 4
        if bloom_len > size - offset:
            raise KVStoreError("SST bloom length exceeds payload")
        bloom = None
        if bloom_len:
            bloom = BloomFilter.from_bytes(
                payload[offset : offset + bloom_len]
            )
        offset += bloom_len
        if offset + 4 > size:
            raise KVStoreError("truncated SST block count")
        num_blocks = int.from_bytes(payload[offset : offset + 4], "big")
        offset += 4
        if num_blocks == 0:
            raise KVStoreError("SST with no blocks")
        blocks: List[Block] = []
        index_keys: List[bytes] = []
        entry_count = 0
        for block_no in range(num_blocks):
            if offset + 4 > size:
                raise KVStoreError("truncated SST block length")
            block_len = int.from_bytes(payload[offset : offset + 4], "big")
            offset += 4
            if block_len > size - offset:
                raise KVStoreError("SST block length exceeds payload")
            body = payload[offset : offset + block_len]
            offset += block_len
            block = Block(
                payload=body,
                first_key=b"",
                last_key=b"",
                owner_fingerprint=fingerprint,
                block_no=block_no,
            )
            offsets = block.offsets()  # parses + validates the trailer
            if not offsets:
                raise KVStoreError("empty SST block")
            object.__setattr__(block, "first_key", _key_at(body, offsets[0]))
            object.__setattr__(block, "last_key", _key_at(body, offsets[-1]))
            blocks.append(block)
            index_keys.append(block.last_key)
            entry_count += len(offsets)
        if offset != size:
            raise KVStoreError("trailing bytes after SST blocks")
        if live_entries > entry_count:
            raise KVStoreError(
                f"SST live-entry count {live_entries} exceeds "
                f"entry count {entry_count}"
            )
        return cls(
            file_id=file_id,
            blocks=blocks,
            index_keys=index_keys,
            bloom=bloom,
            fingerprint=fingerprint,
            entry_count=entry_count,
            bloom_bits_per_key=bloom_bits_per_key,
            live_entries=live_entries,
        )

    def key_in_range(self, key: bytes) -> bool:
        """Does ``key`` fall inside this file's [min_key, max_key]?"""
        return self.min_key <= key <= self.max_key

    def overlaps(self, other: "SSTable") -> bool:
        """Do the key ranges of the two files intersect?"""
        return self.min_key <= other.max_key and other.min_key <= self.max_key

    def block_for_key(self, key: bytes) -> Optional[int]:
        """Index of the block that may contain ``key``, or None."""
        if not self.key_in_range(key):
            return None
        index = bisect.bisect_left(self._index_keys, key)
        if index >= len(self.blocks):
            return None
        return index

    def get_direct(self, key: bytes) -> Optional[bytes]:
        """Point lookup bypassing any cache (always correct)."""
        block_no = self.block_for_key(key)
        if block_no is None:
            return None
        return self.blocks[block_no].get(key)

    def iter_entries(self) -> Iterator[Tuple[bytes, bytes]]:
        """All entries in key order (tombstones included)."""
        for block in self.blocks:
            yield from block.entries()

    def records(self) -> Records:
        """Every key and its record in key order (tombstones included);
        see :meth:`Block.records`."""
        keys: List[bytes] = []
        records: List[bytes] = []
        for block in self.blocks:
            block_keys, block_records = block.records()
            keys += block_keys
            records += block_records
        return Records(keys, records)

    def iter_entries_from(self, start: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Entries with key >= ``start`` in key order (tombstones
        included). Positions by block-index bisect plus an in-block
        offset bisect, so a seeked scan touches only the records it
        reads — no block is fully decoded to find the start."""
        block_index = bisect.bisect_left(self._index_keys, start)
        for block in self.blocks[block_index:]:
            if block.first_key >= start:
                yield from block.entries()
            else:
                yield from block.entries_from(start)

    def live_entry_count(self) -> int:
        """Entries that are not tombstones (fixed at build time)."""
        return self.live_entries

    def audit_live_entry_count(self) -> int:
        """Recount live entries by decoding every block.

        The debug path behind :meth:`live_entry_count`'s stored answer
        — tests assert the two agree; production reads never pay it.
        """
        return sum(1 for _, v in self.iter_entries() if v != TOMBSTONE)

    def __repr__(self) -> str:
        return (
            f"SSTable(id={self.file_id}, entries={self.entry_count}, "
            f"range=[{self.min_key!r}..{self.max_key!r}])"
        )
