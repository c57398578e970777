"""Merging iterators: RocksDB-style cursors over MiniRocks state.

A bounded ``scan`` materializes its range through
:func:`~repro.kvstore.compaction.merge_tables`; an :class:`LSMIterator`
streams — a heap-based k-way merge over the memtable and every live
SST, with newest-wins version resolution, supporting ``seek(key)`` and
forward iteration. It yields live rows only: a key whose newest
version is a tombstone never surfaces. It serves the open-ended
``limit`` scan (YCSB workload E) and ``range_count``, which stop after
the rows they need.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Optional, Tuple

from repro.kvstore.memtable import TOMBSTONE


class _Source:
    """One input stream with an age rank (lower = newer = wins ties)."""

    def __init__(self, age: int, entries: Iterator[Tuple[bytes, bytes]]):
        self.age = age
        self._entries = entries
        self.head: Optional[Tuple[bytes, bytes]] = next(entries, None)

    def advance(self) -> None:
        self.head = next(self._entries, None)


class LSMIterator:
    """Forward iterator over the merged, deduplicated key space.

    Construct via :func:`iterate_db` (or pass explicit sources, newest
    first). SST blocks are immutable; the memtable source streams the
    live sorted buffer, so the store must not be written while the
    iterator is being consumed.
    """

    def __init__(self, sources_newest_first: List[Iterator[Tuple[bytes, bytes]]]):
        self._sources = [
            _Source(age, iterator)
            for age, iterator in enumerate(sources_newest_first)
        ]
        self._heap: List[Tuple[bytes, int]] = []
        for source in self._sources:
            if source.head is not None:
                heapq.heappush(self._heap, (source.head[0], source.age))
        self._exhausted = False

    def _pop_next_version_group(self) -> Optional[Tuple[bytes, bytes]]:
        """Pop all versions of the next key; return the newest (or None)."""
        if not self._heap:
            return None
        key, _age = self._heap[0]
        winner: Optional[Tuple[int, bytes]] = None
        while self._heap and self._heap[0][0] == key:
            _key, age = heapq.heappop(self._heap)
            source = self._sources[age]
            assert source.head is not None
            value = source.head[1]
            if winner is None or age < winner[0]:
                winner = (age, value)
            source.advance()
            if source.head is not None:
                heapq.heappush(self._heap, (source.head[0], source.age))
        assert winner is not None
        return key, winner[1]

    def __iter__(self) -> "LSMIterator":
        return self

    def __next__(self) -> Tuple[bytes, bytes]:
        while True:
            group = self._pop_next_version_group()
            if group is None:
                raise StopIteration
            key, value = group
            if value != TOMBSTONE:
                return key, value

    def seek(self, key: bytes) -> None:
        """Advance past every entry with a key below ``key``.

        Forward-only (like a heap merge must be): seeking backwards
        raises.
        """
        while self._heap and self._heap[0][0] < key:
            self._pop_next_version_group()

    def peek_key(self) -> Optional[bytes]:
        """The next (possibly tombstoned) key, or None at the end."""
        return self._heap[0][0] if self._heap else None


def iterate_db(db, start: Optional[bytes] = None) -> LSMIterator:
    """Build an :class:`LSMIterator` over a ``MiniRocks`` instance.

    Sources newest first: memtable stream, then L0 newest→oldest,
    then L1..Lmax (non-overlapping levels are each one sorted stream).
    With ``start``, every source is positioned at the first entry
    ``>= start`` (files entirely below it are pruned), so a seeked
    scan costs O(rows read), not O(keys below ``start``). The memtable
    source streams the sorted buffer directly — nothing is
    materialized per scan — so the store must not be written while the
    iterator is live (every in-repo consumer drains it first).
    """
    sources: List[Iterator[Tuple[bytes, bytes]]] = [
        db.memtable.sorted_entries() if start is None
        else db.memtable.entries_from(start)
    ]
    for sst in db.manifest.level(0):
        if start is not None and sst.max_key < start:
            continue
        sources.append(
            sst.iter_entries() if start is None
            else sst.iter_entries_from(start)
        )
    for level_index in range(1, db.manifest.num_levels):
        files = db.manifest.level(level_index)
        if files:
            sources.append(_chain_sorted_files(files, start))
    return LSMIterator(sources)


def _chain_sorted_files(
    files, start: Optional[bytes] = None
) -> Iterator[Tuple[bytes, bytes]]:
    for sst in files:
        if start is not None and sst.max_key < start:
            continue
        if start is None:
            yield from sst.iter_entries()
        else:
            yield from sst.iter_entries_from(start)


def range_count(db, start: bytes, end: bytes) -> int:
    """Number of live keys in ``[start, end)`` without materializing
    values — an iterator-based alternative to ``len(db.scan(...))``."""
    if start >= end:
        return 0
    iterator = iterate_db(db, start)  # sources already positioned
    count = 0
    for key, _value in iterator:
        if key >= end:
            break
        count += 1
    return count
