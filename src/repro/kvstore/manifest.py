"""The manifest: which SSTs are live, at which level.

A light-weight version of RocksDB's VERSION/MANIFEST machinery that
keeps only the current version, as per-level file lists, plus every
file ID the store ever assigned. A durable store commits the version
whole (:meth:`Manifest.encode_state`) after every change.

L0 files may overlap each other (they are flushed memtables, newest
first); L1+ files are kept non-overlapping and sorted by min_key, so
their max_keys ascend too. Each L1+ level keeps those max_keys in a
list beside its files: a point read bisects it for the one file that
can hold the key, and adding or removing a file inserts or deletes one
entry at a bisected position.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Iterator, List, Optional, Tuple

from repro.errors import KVStoreError
from repro.kvstore.sstable import SSTable, sst_filename

#: Storage file name of the durable manifest (committed whole via
#: write-then-rename, so it is always either the old or the new state).
MANIFEST_NAME = "MANIFEST"


def _is_int(value: object) -> bool:
    """A JSON integer (``bool`` is an ``int`` subclass; reject it)."""
    return isinstance(value, int) and not isinstance(value, bool)


class Manifest:
    """Tracks live files per level and every file ID ever assigned."""

    def __init__(self, num_levels: int):
        if num_levels < 2:
            raise KVStoreError("need at least 2 levels")
        self.num_levels = num_levels
        self._levels: List[List[SSTable]] = [[] for _ in range(num_levels)]
        #: Per level, the max_key of each file, in file order (L1+
        #: only; L0's list stays empty).
        self._max_keys: List[List[bytes]] = [[] for _ in range(num_levels)]
        #: Every file id this store ever assigned (for uniqueness audits).
        self.assigned_ids: List[int] = []

    # -- queries ----------------------------------------------------------

    def level(self, index: int) -> List[SSTable]:
        """Live files at ``index`` (L0 newest-first; L1+ sorted by key)."""
        return list(self._levels[index])

    def live_files(self) -> Iterator[Tuple[int, SSTable]]:
        """All (level, sst) pairs, L0 first."""
        for level_index, files in enumerate(self._levels):
            for sst in files:
                yield level_index, sst

    def file_count(self, level: Optional[int] = None) -> int:
        """Number of live files overall or at one level."""
        if level is not None:
            return len(self._levels[level])
        return sum(len(files) for files in self._levels)

    def total_entries(self) -> int:
        """Sum of entry counts over all live files."""
        return sum(sst.entry_count for _, sst in self.live_files())

    def candidates_for_key(self, key: bytes) -> Iterator[Tuple[int, SSTable]]:
        """Files that may contain ``key``, newest data first.

        L0 is scanned newest-to-oldest (all files, ranges overlap);
        at L1+ at most one file per level can contain the key: the
        first whose max_key is not below it, if its min_key is not
        above it.
        """
        for sst in self._levels[0]:
            if sst.min_key <= key <= sst.max_key:
                yield 0, sst
        for level_index in range(1, self.num_levels):
            files = self._levels[level_index]
            position = bisect_left(self._max_keys[level_index], key)
            if position < len(files) and files[position].min_key <= key:
                yield level_index, files[position]

    # -- edits -------------------------------------------------------------

    def add_file(self, level: int, sst: SSTable, record_id: bool = True) -> None:
        """Install ``sst`` at ``level``. L0 prepends (newest first);
        L1+ inserts sorted and rejects overlap."""
        self._check_level(level)
        if level == 0:
            self._levels[0].insert(0, sst)
        else:
            # Files before ``position`` end below ``sst``; the file at
            # it is the only one that can overlap, and if it does not,
            # ``sst`` slots in before it.
            files, max_keys = self._levels[level], self._max_keys[level]
            position = bisect_left(max_keys, sst.min_key)
            if position < len(files) and files[position].min_key <= sst.max_key:
                raise KVStoreError(
                    f"overlap at L{level}: {files[position]!r} vs {sst!r}"
                )
            files.insert(position, sst)
            max_keys.insert(position, sst.max_key)
        if record_id:
            self.assigned_ids.append(sst.file_id)

    def remove_file(self, level: int, sst: SSTable) -> None:
        """Remove a live file (by identity) from ``level``."""
        self._check_level(level)
        files = self._levels[level]
        if level == 0:
            position = next(
                (i for i, live in enumerate(files) if live is sst), len(files)
            )
        else:
            position = bisect_left(self._max_keys[level], sst.max_key)
        if position == len(files) or files[position] is not sst:
            raise KVStoreError(
                f"file {sst.file_id} not live at level {level}"
            )
        del files[position]
        if level:
            del self._max_keys[level][position]

    # -- durable state -----------------------------------------------------

    def encode_state(self, wal_floor: int, next_seqno: int) -> bytes:
        """Serialize the current version for a durable manifest commit.

        The state pairs the live-file set with the WAL coordinates it
        covers: segments below ``wal_floor`` are redundant with the
        listed SSTs, and recovery resumes sequence numbers at
        ``next_seqno`` even when the covering segments are long gone.
        ``assigned_ids`` rides along so cross-instance ID-uniqueness
        audits survive a reopen.
        """
        state = {
            "wal_floor": wal_floor,
            "next_seqno": next_seqno,
            "files": [
                [level, sst_filename(sst.fingerprint)]
                for level, sst in self.live_files()
            ],
            "assigned_ids": list(self.assigned_ids),
        }
        return json.dumps(state, sort_keys=True).encode("utf-8")

    @staticmethod
    def decode_state(payload: bytes) -> dict:
        """Parse and validate :meth:`encode_state` output.

        Fails closed: anything but a JSON object with integer WAL
        coordinates, a ``files`` list of ``[level, name]`` pairs and an
        integer ``assigned_ids`` list raises
        :class:`~repro.errors.KVStoreError` (JSON ``true`` is not an
        integer here).
        """
        try:
            state = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise KVStoreError(f"corrupt manifest: {exc}") from exc
        if not isinstance(state, dict):
            raise KVStoreError("corrupt manifest: not a JSON object")
        for field_name in ("wal_floor", "next_seqno", "files",
                           "assigned_ids"):
            if field_name not in state:
                raise KVStoreError(
                    f"corrupt manifest: missing {field_name!r}"
                )
        if (
            not _is_int(state["wal_floor"])
            or not _is_int(state["next_seqno"])
            or state["wal_floor"] < 0
            or state["next_seqno"] < 1
        ):
            raise KVStoreError("corrupt manifest: bad WAL coordinates")
        if not isinstance(state["files"], list):
            raise KVStoreError("corrupt manifest: files is not a list")
        for entry in state["files"]:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not _is_int(entry[0])
                or not isinstance(entry[1], str)
            ):
                raise KVStoreError(
                    f"corrupt manifest: bad file entry {entry!r}"
                )
        ids = state["assigned_ids"]
        if not isinstance(ids, list) or not all(_is_int(i) for i in ids):
            raise KVStoreError("corrupt manifest: bad assigned_ids")
        return state

    def restore_assigned_ids(self, ids: List[int]) -> None:
        """Replace the assigned-ID audit trail (used at reopen, where
        files were re-attached without re-recording their IDs)."""
        self.assigned_ids = list(ids)

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.num_levels:
            raise KVStoreError(
                f"level {level} out of range [0, {self.num_levels})"
            )
