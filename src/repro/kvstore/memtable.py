"""In-memory write buffer with tombstones.

MiniRocks keeps recent writes in a :class:`MemTable`; deletes are
recorded as tombstones so they can shadow older SST entries until
compaction drops them. Keys and values are ``bytes``.

The buffer is **one plain dict**, so a put or a get is one hash
lookup. Key order is computed on demand: the first flush or scan after
a new key arrives sorts the keys once, and the sorted key list is
memoized until the next new key. Overwrites keep the memo, because
entries are read back through the dict and so always carry the latest
value. A seeked scan bisects the memo and starts mid-keyspace.

Byte size is tracked incrementally on put/delete/clear, so
:meth:`approximate_size` is O(1) instead of a full walk.
"""

from __future__ import annotations

import bisect
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import KVStoreError

#: Sentinel stored for deleted keys.
TOMBSTONE: bytes = b"\x00__repro_tombstone__\x00"


class MemTable:
    """A mutable buffer whose key order is sorted on demand (see the
    module docstring)."""

    def __init__(self) -> None:
        self._entries: Dict[bytes, bytes] = {}
        #: The keys in ascending order, or None once a new key arrived.
        self._sorted_keys: Optional[List[bytes]] = None
        self._approximate_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def approximate_size(self) -> int:
        """Bytes of keys+values currently buffered (O(1))."""
        return self._approximate_bytes

    def _store(self, key: bytes, value: bytes) -> None:
        previous = self._entries.get(key)
        if previous is None:
            self._approximate_bytes += len(key) + len(value)
            self._sorted_keys = None
        else:
            self._approximate_bytes += len(value) - len(previous)
        self._entries[key] = value

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        _check_key(key)
        if value == TOMBSTONE:
            raise KVStoreError("value collides with the tombstone sentinel")
        self._store(key, value)

    def delete(self, key: bytes) -> None:
        """Record a tombstone for ``key``."""
        _check_key(key)
        self._store(key, TOMBSTONE)

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the buffered value, the tombstone, or None if absent."""
        return self._entries.get(key)

    def _keys_in_order(self) -> List[bytes]:
        keys = self._sorted_keys
        if keys is None:
            keys = self._sorted_keys = sorted(self._entries)
        return keys

    def sorted_entries(self) -> Iterator[Tuple[bytes, bytes]]:
        """All entries (including tombstones) in ascending key order.

        Sorts only if a new key arrived since the last ordered read.
        The buffer must not be mutated while the iterator is live
        (flush and scan both drain it before writing).
        """
        entries = self._entries
        return ((key, entries[key]) for key in self._keys_in_order())

    def entries_from(self, start: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Entries with key >= ``start`` in ascending key order.

        Bisects the sorted keys, so the entries below ``start`` are
        never read.
        """
        keys = self._keys_in_order()
        entries = self._entries
        first = bisect.bisect_left(keys, start)
        return ((key, entries[key]) for key in islice(keys, first, None))

    def clear(self) -> None:
        """Drop everything (after a successful flush)."""
        self._entries.clear()
        self._sorted_keys = None
        self._approximate_bytes = 0


def _check_key(key: bytes) -> None:
    if not isinstance(key, bytes):
        raise KVStoreError(f"keys must be bytes, got {type(key).__name__}")
    if not key:
        raise KVStoreError("empty keys are not allowed")
