"""Configuration for the MiniRocks key-value store."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.kvstore.wal import WriteMode


@dataclass
class Options:
    """Tuning knobs for one MiniRocks instance.

    The defaults are sized for tests and simulations (hundreds of
    thousands of keys), not production workloads.
    """

    #: Flush the memtable after this many live entries.
    memtable_entries: int = 256
    #: Entries per SST data block (the block cache granularity).
    block_entries: int = 16
    #: Trigger L0 → L1 compaction at this many L0 files.
    level0_file_limit: int = 4
    #: Max files in level L is ``level0_file_limit * multiplier**L``.
    level_size_multiplier: int = 4
    #: Total number of levels (L0 .. L_max).
    num_levels: int = 5
    #: Bloom filter bits per key (0 disables blooms).
    bloom_bits_per_key: int = 10
    #: Universe size for SST file IDs (the UUIDP ``m``).
    id_universe: int = 1 << 64
    #: Algorithm spec of the uncoordinated per-instance file-ID
    #: generator (``"cluster"``, ``"random"``, ...).
    id_algorithm: str = "cluster"
    #: Raise on detected cache corruption instead of counting silently.
    paranoid_checks: bool = False
    #: WAL fsync policy when the store runs on durable storage
    #: (:class:`~repro.kvstore.wal.WriteMode`); ignored without one.
    write_mode: WriteMode = WriteMode.BATCH
    #: Initial group-commit size for ``WriteMode.BATCH`` (the adaptive
    #: size floats in ``[1, 8 * wal_batch_size]``).
    wal_batch_size: int = 8

    def __post_init__(self) -> None:
        if self.memtable_entries < 1:
            raise ConfigurationError("memtable_entries must be >= 1")
        if self.block_entries < 1:
            raise ConfigurationError("block_entries must be >= 1")
        if self.level0_file_limit < 1:
            raise ConfigurationError("level0_file_limit must be >= 1")
        if self.num_levels < 2:
            raise ConfigurationError("num_levels must be >= 2")
        if self.id_universe < 2:
            raise ConfigurationError("id_universe must be >= 2")
        if not isinstance(self.write_mode, WriteMode):
            raise ConfigurationError(
                f"write_mode must be a WriteMode, got {self.write_mode!r}"
            )
        if self.wal_batch_size < 1:
            raise ConfigurationError("wal_batch_size must be >= 1")
