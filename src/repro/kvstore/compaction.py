"""Leveled compaction: picking, moving and merging.

The policy is a simplified RocksDB leveled scheme:

* L0 → L1 when L0 holds ``level0_file_limit`` files or more (all L0
  files participate, plus every overlapping L1 file);
* L → L+1 when level L holds its file budget
  (``level0_file_limit · multiplier^L``) or more; the file with the
  smallest ``min_key`` plus the overlapping files below participate.

A job with no file below it, whose upper files do not overlap each
other, is a *trivial move* (as in RocksDB): the upper files go one
level down as they are, keeping their file ID, fingerprint, cached
blocks and storage file. No SST is built and no ID is minted. The
paper's Theorem 1 ties collision risk to the IDs minted, so a rewrite
that changes no content would add risk and nothing else. The one
exception is a file holding a tombstone on its way to the bottom
level, which is merged so the bottom level stays tombstone-free. An
ascending-key load compacts by moves alone.

Merging resolves versions newest-wins: the runs go into one dict
oldest first, so a newer version overwrites an older one, and the
surviving keys are sorted once. Tombstones are dropped only when the
output lands on the last level (nothing older can hide beneath it).

Compaction merges *records* (``klen | key | vlen | value``, see
:class:`~repro.kvstore.sstable.Records`), never decoded values:
``SSTable.records`` slices each input record out whole and reads only
its key, and each output block is the winning records joined plus an
offset table accumulated from their lengths. A record holds a tombstone
exactly when its value length is ``len(TOMBSTONE)`` and it ends with
``TOMBSTONE``. The output bytes are those a decode and re-encode would
give. Each output SST's bloom filter hashes its keys in bulk
(``BloomFilter.add_all``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.kvstore.manifest import Manifest
from repro.kvstore.options import Options
from repro.kvstore.sstable import Records, SSTable, tombstone_keys


@dataclass(frozen=True)
class CompactionJob:
    """A picked compaction: inputs at two adjacent levels."""

    level: int
    inputs_upper: Tuple[SSTable, ...]
    inputs_lower: Tuple[SSTable, ...]
    #: Move ``inputs_upper`` down unchanged instead of merging (see the
    #: module docstring); only ever set with no ``inputs_lower``.
    trivial_move: bool

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
            upper: List[SSTable] = files  # all of L0 (ranges may overlap)
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
        to_bottom = level + 1 == manifest.num_levels - 1
        return CompactionJob(
            level=level,
            inputs_upper=tuple(upper),
            inputs_lower=tuple(lower),
            trivial_move=not lower and _can_move(upper, to_bottom),
        )
    return None


def _can_move(upper: Sequence[SSTable], to_bottom: bool) -> bool:
    """Whether ``upper`` can go down a level as it is: its files must
    not overlap each other, and none bound for the bottom level may
    hold a tombstone."""
    ordered = sorted(upper, key=lambda s: s.min_key)
    if any(a.overlaps(b) for a, b in zip(ordered, ordered[1:])):
        return False
    return not to_bottom or all(
        sst.live_entries == sst.entry_count for sst in upper
    )


def merge_tables(
    runs_newest_first: Iterable[Records], drop_tombstones: bool
) -> Records:
    """Newest-wins merge of sorted runs of records.

    Each run holds unique keys in ascending order; the first run
    shadows later runs on key ties. Tombstones are kept unless
    ``drop_tombstones``.
    """
    runs = list(runs_newest_first)
    newest: Dict[bytes, bytes] = {}
    for run in reversed(runs):  # oldest first: newer versions overwrite
        newest.update(zip(run.keys, run.records))
    if drop_tombstones:
        for key in tombstone_keys(newest, newest.values()):
            del newest[key]
    keys = sorted(newest)
    return Records(keys, list(map(newest.__getitem__, keys)))


def run_compaction(
    manifest: Manifest,
    options: Options,
    job: CompactionJob,
    build_sst: Callable[[Records], SSTable],
    on_file_dropped: Optional[Callable[[SSTable], None]] = None,
) -> List[SSTable]:
    """Execute ``job``: move or merge its inputs, update the manifest.

    A trivial move re-files the upper inputs one level down (their IDs
    were recorded when they were built) and drops nothing. A merge
    carries the winning input records into fresh SSTs, cut every
    ``max(block_entries × level0_file_limit, memtable_entries)``
    entries; ``build_sst`` assigns each its (uncoordinated) ID, which
    is why real deployments burn through the ID space far faster than
    the live-file count suggests. Returns the files installed at the
    output level.
    """
    if job.trivial_move:
        for sst in job.inputs_upper:
            manifest.remove_file(job.level, sst)
            manifest.add_file(job.output_level, sst, record_id=False)
        return list(job.inputs_upper)
    # Newest-first order: L0 list is already newest-first; upper level
    # shadows lower level.
    inputs = job.inputs_upper + job.inputs_lower
    is_bottom = job.output_level == manifest.num_levels - 1
    keys, records = merge_tables(
        [sst.records() for sst in inputs], drop_tombstones=is_bottom
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
    target_entries = max(
        options.block_entries * options.level0_file_limit,
        options.memtable_entries,
    )
    for start in range(0, len(keys), target_entries):
        stop = start + target_entries
        sst = build_sst(Records(keys[start:stop], records[start:stop]))
        manifest.add_file(job.output_level, sst)
        outputs.append(sst)
    return outputs
