"""Leveled compaction: picking and merging.

The policy is a simplified RocksDB leveled scheme:

* L0 → L1 when L0 holds ``level0_file_limit`` files or more (all L0
  files participate, plus every overlapping L1 file);
* L → L+1 when level L exceeds its file budget
  (``level0_file_limit · multiplier^L``); the oldest file plus the
  overlapping files below participate.

Merging resolves versions newest-wins: the inputs' entries are
concatenated newest run first and sorted once by key with ``list.sort``.
The sort is stable and each run is already sorted, so timsort merges the
runs in C and every key's versions stay newest first; a dedupe pass then
keeps each key's first version. Tombstones are dropped only when the
output lands on the last level (nothing older can hide beneath it).
``MiniRocks.scan`` resolves bounded range scans through the same merge.

Every input record is decoded once (``Block.entries`` reads one length
per record off the block's memoized ``array("I")`` offsets) and every
output record is re-encoded into a fresh SST whose bloom filter is
built by hashing the output keys in bulk (``BloomFilter.add_all``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.kvstore.manifest import Manifest
from repro.kvstore.memtable import TOMBSTONE
from repro.kvstore.options import Options
from repro.kvstore.sstable import SSTable


@dataclass(frozen=True)
class CompactionJob:
    """A picked compaction: inputs at two adjacent levels."""

    level: int
    inputs_upper: Tuple[SSTable, ...]
    inputs_lower: Tuple[SSTable, ...]

    @property
    def output_level(self) -> int:
        """The level compacted output files land in (``level + 1``)."""
        return self.level + 1


def level_file_budget(options: Options, level: int) -> int:
    """Maximum live files allowed at ``level`` before compaction."""
    if level == 0:
        return options.level0_file_limit
    return options.level0_file_limit * (
        options.level_size_multiplier**level
    )


def pick_compaction(
    manifest: Manifest, options: Options
) -> Optional[CompactionJob]:
    """Return the most urgent compaction job, or None if all levels fit."""
    for level in range(manifest.num_levels - 1):
        files = manifest.level(level)
        if len(files) < level_file_budget(options, level):
            continue
        if level == 0:
            upper: List[SSTable] = files  # all of L0 (ranges overlap)
        else:
            upper = [min(files, key=lambda s: s.min_key)]
        # The merged output spans the convex hull of the input key
        # ranges, so every lower-level file inside that hull must join
        # the job — including files sitting in gaps between the upper
        # inputs. Including them can widen the hull, hence the fixpoint.
        hull_min = min(sst.min_key for sst in upper)
        hull_max = max(sst.max_key for sst in upper)
        lower: List[SSTable] = []
        while True:
            grown = False
            for sst in manifest.level(level + 1):
                if sst in lower:
                    continue
                if sst.min_key <= hull_max and hull_min <= sst.max_key:
                    lower.append(sst)
                    hull_min = min(hull_min, sst.min_key)
                    hull_max = max(hull_max, sst.max_key)
                    grown = True
            if not grown:
                break
        return CompactionJob(
            level=level,
            inputs_upper=tuple(upper),
            inputs_lower=tuple(lower),
        )
    return None


def merge_tables(
    runs_newest_first: Iterable[Iterable[Tuple[bytes, bytes]]],
    drop_tombstones: bool,
) -> List[Tuple[bytes, bytes]]:
    """Newest-wins merge of sorted ``(key, value)`` runs.

    Each run holds unique keys in ascending order; the first run
    shadows later runs on key ties. Tombstones are kept unless
    ``drop_tombstones``.
    """
    entries: List[Tuple[bytes, bytes]] = []
    for run in runs_newest_first:
        entries.extend(run)
    entries.sort(key=itemgetter(0))  # stable: newest version first
    merged: List[Tuple[bytes, bytes]] = []
    last_key: Optional[bytes] = None
    for entry in entries:
        key = entry[0]
        if key == last_key:
            continue  # an older version of a key already resolved
        last_key = key
        if drop_tombstones and entry[1] == TOMBSTONE:
            continue
        merged.append(entry)
    return merged


def run_compaction(
    manifest: Manifest,
    options: Options,
    job: CompactionJob,
    build_sst: Callable[[Sequence[Tuple[bytes, bytes]]], SSTable],
    on_file_dropped: Optional[Callable[[SSTable], None]] = None,
) -> List[SSTable]:
    """Execute ``job``: merge inputs, split outputs, update the manifest.

    ``build_sst`` assigns the new file its (uncoordinated) ID — every
    compaction consumes fresh IDs, which is why real deployments burn
    through the ID space far faster than the live-file count suggests.
    Returns the output files.
    """
    # Newest-first order: L0 list is already newest-first; upper level
    # shadows lower level.
    inputs = job.inputs_upper + job.inputs_lower
    is_bottom = job.output_level == manifest.num_levels - 1
    merged = merge_tables(
        [sst.iter_entries() for sst in inputs], drop_tombstones=is_bottom
    )
    for sst in job.inputs_upper:
        manifest.remove_file(job.level, sst)
        if on_file_dropped is not None:
            on_file_dropped(sst)
    for sst in job.inputs_lower:
        manifest.remove_file(job.output_level, sst)
        if on_file_dropped is not None:
            on_file_dropped(sst)
    outputs: List[SSTable] = []
    if merged:
        target_entries = max(
            options.block_entries * options.level0_file_limit,
            options.memtable_entries,
        )
        for start in range(0, len(merged), target_entries):
            chunk = merged[start : start + target_entries]
            sst = build_sst(chunk)
            manifest.add_file(job.output_level, sst)
            outputs.append(sst)
    return outputs
