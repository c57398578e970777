"""Key-ordered scans over MiniRocks state.

Every scan streams through one merge, :func:`merge_rows`:
``heapq.merge`` keyed on the row key. Like ``sorted``, it is stable:
rows with equal keys come out in the order their sources are listed.
:func:`iterate_db` lists a store's sources newest first (memtable, L0
newest to oldest, then one stream per L1+ level), so each key's first
row is its newest version and no row carries an age tag; it keeps that
row and drops tombstones. ``MiniRocks.scan`` and :func:`range_count`
cut the stream at their end key, and the cluster scan merges every
live node's stream the same way (see
:meth:`~repro.distributed.cluster.ClusterSimulator.scan`).
"""

from __future__ import annotations

import heapq
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Tuple

from repro.kvstore.memtable import TOMBSTONE

Row = Tuple[bytes, bytes]


def merge_rows(streams: Iterable[Iterator[Row]]) -> Iterator[Row]:
    """Merge key-sorted row streams into one stream in key order.

    ``heapq.merge`` keeps equal keys in stream order, so each key's
    rows come out first-listed stream first: with streams listed
    newest first, a key's first row is its newest version.
    """
    return heapq.merge(*streams, key=itemgetter(0))


def iterate_db(db, start: bytes = b"") -> Iterator[Row]:
    """The live rows of a ``MiniRocks`` store from ``start``, in key
    order: each key's newest version, tombstones dropped.

    Every source is positioned at its first entry ``>= start`` (files
    entirely below it are skipped), so a scan costs O(rows read), not
    O(keys below ``start``). The memtable source streams its sorted
    buffer, so the store must not be written while the stream is being
    consumed (every in-repo consumer drains it first).
    """
    manifest = db.manifest
    sources = [db.memtable.entries_from(start)]
    sources += [
        sst.iter_entries_from(start)
        for sst in manifest.level(0)
        if sst.max_key >= start
    ]
    for level in range(1, manifest.num_levels):
        # A level's files do not overlap: chained, they are one stream.
        sources.append(
            chain.from_iterable(
                sst.iter_entries_from(start)
                for sst in manifest.level(level)
                if sst.max_key >= start
            )
        )
    previous: Optional[bytes] = None
    for key, value in merge_rows(sources):
        if key != previous:
            previous = key
            if value != TOMBSTONE:
                yield key, value


def range_count(db, start: bytes, end: bytes) -> int:
    """Number of live keys in ``[start, end)`` without materializing
    values — an iterator-based alternative to ``len(db.scan(...))``."""
    count = 0
    for key, _value in iterate_db(db, start):
        if key >= end:
            break
        count += 1
    return count
