"""MiniRocks: the RocksDB-style LSM substrate motivating the paper (§1)."""

from repro.kvstore.blockcache import BlockCache, CacheStats
from repro.kvstore.bloom import BloomFilter
from repro.kvstore.compaction import (
    CompactionJob,
    level_file_budget,
    merge_tables,
    pick_compaction,
    run_compaction,
)
from repro.kvstore.db import DBStats, MiniRocks
from repro.kvstore.iterators import iterate_db, range_count
from repro.kvstore.manifest import MANIFEST_NAME, Manifest
from repro.kvstore.memtable import TOMBSTONE, MemTable
from repro.kvstore.options import Options
from repro.kvstore.sstable import Block, SSTable, sst_filename
from repro.kvstore.storage import CrashPoint, SimulatedStorage
from repro.kvstore.wal import (
    OP_DELETE,
    OP_PUT,
    WALRecovery,
    WriteAheadLog,
    WriteMode,
    encode_record,
    decode_record_at,
    read_segments,
    segment_name,
)

__all__ = [
    "MiniRocks",
    "DBStats",
    "iterate_db",
    "range_count",
    "Options",
    "BlockCache",
    "CacheStats",
    "BloomFilter",
    "MemTable",
    "TOMBSTONE",
    "SSTable",
    "Block",
    "Manifest",
    "MANIFEST_NAME",
    "sst_filename",
    "WriteAheadLog",
    "WriteMode",
    "WALRecovery",
    "encode_record",
    "decode_record_at",
    "read_segments",
    "segment_name",
    "SimulatedStorage",
    "CrashPoint",
    "OP_PUT",
    "OP_DELETE",
    "CompactionJob",
    "pick_compaction",
    "run_compaction",
    "merge_tables",
    "level_file_budget",
]
