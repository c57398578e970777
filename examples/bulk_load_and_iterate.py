#!/usr/bin/env python
"""MiniRocks as a library: bulk loading, cursors, and crash recovery.

Shows the storage-engine API surface beyond simple put/get — the parts
real applications use: external SST ingestion (which mints a fresh
uncoordinated ID, unlike migration), key-ordered cursors that start at
any key, and crash recovery from the durable write-ahead log.

Run:  python examples/bulk_load_and_iterate.py
"""

import random

from repro.kvstore import (
    MiniRocks,
    Options,
    SimulatedStorage,
    WriteMode,
    iterate_db,
    range_count,
)


def main() -> None:
    db = MiniRocks(
        Options(
            memtable_entries=32,
            block_entries=8,
            id_universe=1 << 64,
            id_algorithm="cluster",
        ),
        rng=random.Random(42),
        name="demo",
    )

    # --- normal writes --------------------------------------------------
    for i in range(100):
        db.put(f"user:{i:04d}".encode(), f"profile-{i}".encode())
    db.delete(b"user:0013")

    # --- bulk load: a sorted batch becomes one SST directly --------------
    batch = [
        (f"import:{i:04d}".encode(), b"bulk") for i in range(50)
    ]
    sst = db.ingest_external(batch)
    print(f"ingested SST file_id={sst.file_id} with {sst.entry_count} keys")
    print(f"file IDs minted so far: {len(db.assigned_file_ids())}")

    # --- cursors ----------------------------------------------------------
    iterator = iterate_db(db, b"user:0010")
    print("\nfirst 5 keys from user:0010 (note 0013 is deleted):")
    for _ in range(5):
        key, value = next(iterator)
        print("  ", key.decode(), "=", value.decode())

    print(
        "\nlive keys in [user:0000, user:0050):",
        range_count(db, b"user:0000", b"user:0050"),
    )

    # --- crash recovery ---------------------------------------------------
    # A store on (simulated) durable storage: every write is fsynced to
    # the WAL before it is acknowledged, so it survives a crash.
    storage = SimulatedStorage(seed=42)
    options = Options(
        memtable_entries=32, write_mode=WriteMode.SYNC_EVERY_WRITE
    )
    durable = MiniRocks.open(
        storage, options=options, rng=random.Random(43), name="durable"
    )
    durable.put(b"unflushed:1", b"precious")
    storage.crash()  # process death: memtable and page cache are lost
    storage.restart()
    recovered = MiniRocks.open(
        storage, options=options, rng=random.Random(44), name="recovered"
    )
    print(
        "\nrecovered from the WAL after the crash:",
        recovered.get(b"unflushed:1"),
    )


if __name__ == "__main__":
    main()
