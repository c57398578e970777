"""A node hosting one MiniRocks instance.

Nodes are the paper's "instances of A": each owns a private,
uncoordinated ID generator (inside its store) and shares nothing with
its peers except the block cache — exactly the deployment that makes
cross-instance ID uniqueness a correctness requirement once SSTs
migrate.

A node has no data path of its own and knows nothing of envelopes:
in a :class:`~repro.distributed.cluster.ClusterSimulator` the cluster
writes every row a node holds straight into the node's store
(:attr:`Node.db`), and the cluster's read paths decode and resolve
them (point reads through ``node.db.get``, scans by merging each live
node's :func:`~repro.kvstore.iterators.iterate_db` stream), so the
cluster's versioned tombstone is the only delete in a fleet.
Migration moves whole SSTs, IDs included, between nodes
(:meth:`Node.export_file` / :meth:`Node.import_file`).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, KVStoreError
from repro.kvstore.blockcache import BlockCache
from repro.kvstore.db import MiniRocks
from repro.kvstore.options import Options
from repro.kvstore.sstable import SSTable, sst_filename
from repro.kvstore.storage import SimulatedStorage


class Node:
    """One cluster member: a named MiniRocks with migration hooks."""

    def __init__(
        self,
        name: str,
        options: Options,
        cache: BlockCache,
        rng: Optional[random.Random] = None,
        storage: Optional[SimulatedStorage] = None,
    ):
        self.name = name
        self.options = options
        self.cache = cache
        #: Durable backend (durable clusters only). A node with one can
        #: die by *crash* — process death that loses the memtable and
        #: recovers from WAL replay — not just by outage.
        self.storage = storage
        self.db = MiniRocks(
            options=options, cache=cache, rng=rng, name=name,
            storage=storage,
        )
        #: Fault-injection state: a dead node is unreachable (skipped
        #: by quorum reads/writes, scans, and the balancer) but keeps
        #: its on-"disk" state — kill models a process/network outage,
        #: not a disk wipe. Toggled by ``ClusterSimulator.kill`` /
        #: ``recover``.
        self.alive: bool = True

    # -- crash/restart (durable nodes only) ---------------------------------

    def crash(self) -> None:
        """Kill the process: freeze the storage mid-flight.

        Unsynced WAL/file bytes become vulnerable (a torn tail will
        replace them at restart) and the memtable is gone — everything
        the next :meth:`reopen` knows comes from the storage.
        """
        if self.storage is None:
            raise ConfigurationError(
                f"{self.name} has no durable storage; only outage-style "
                "kills apply to in-memory nodes"
            )
        self.storage.crash()

    def reopen(self, rng: Optional[random.Random] = None) -> MiniRocks:
        """Crash-restart: apply torn-tail semantics and recover.

        Replaces :attr:`db` with a fresh MiniRocks opened on the
        restarted storage — committed SSTs + WAL replay reconstruct
        exactly the durable state. Operational counters
        (:attr:`MiniRocks.stats`) start over, as they would in a real
        restarted process.
        """
        if self.storage is None:
            raise ConfigurationError(
                f"{self.name} has no durable storage to reopen from"
            )
        if self.storage.crashed:
            self.storage.restart()
        self.db = MiniRocks(
            options=self.options,
            cache=self.cache,
            rng=rng,
            name=self.name,
            storage=self.storage,
        )
        return self.db

    # -- migration ----------------------------------------------------------

    def exportable_files(self) -> List[Tuple[int, SSTable]]:
        """(level, sst) pairs this node could hand to a peer.

        Only bottom-half levels are exported; L0 files churn too fast
        to be worth moving (mirrors production practice).
        """
        exportable = []
        for level, sst in self.db.manifest.live_files():
            if level >= 1:
                exportable.append((level, sst))
        return exportable

    def export_file(self, level: int, sst: SSTable) -> SSTable:
        """Detach ``sst`` for migration; it keeps its file ID.

        On a durable node the handoff is committed: the manifest drops
        the file atomically, then its bytes are removed (the importer
        holds its own copy).
        """
        self.db.manifest.remove_file(level, sst)
        if self.storage is not None:
            self.db._commit_manifest()
            name = sst_filename(sst.fingerprint)
            if self.storage.exists(name):
                self.storage.delete(name, label="sst-delete")
        return sst

    def import_file(self, level: int, sst: SSTable) -> None:
        """Attach a migrated file (ID assigned by the origin node).

        L1+ overlap conflicts are resolved by placing at L0, which
        tolerates overlap (again mirroring ingestion behaviour). On a
        durable node the file is persisted before the manifest names
        it, so a crash mid-migration never commits a dangling entry.

        Read precedence follows the file's position, not the age of
        its rows, so an imported file can shadow newer local rows of
        the same keys (a known defect, pinned by a strict ``xfail`` in
        ``tests/test_cluster_replication.py``).
        """
        if self.storage is not None:
            self.db._persist_sst(sst, label="migration")
        # The file's ID was assigned by its origin node.
        try:
            self.db.manifest.add_file(level, sst, record_id=False)
        except KVStoreError:
            self.db.manifest.add_file(0, sst, record_id=False)
        if self.storage is not None:
            self.db._commit_manifest()

    # -- introspection ---------------------------------------------------------

    def load(self) -> int:
        """Total live entries (the balancer's load metric)."""
        return self.db.manifest.total_entries()

    def __repr__(self) -> str:
        state = "" if self.alive else ", dead"
        return f"Node({self.name!r}, load={self.load()}{state})"
