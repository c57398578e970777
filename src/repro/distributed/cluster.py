"""The multi-node cluster simulator (end-to-end experiment E11).

``ClusterSimulator`` stands in for the production fleet in the paper's
introduction: ``n`` nodes, each with an uncoordinated ID generator,
one shared block cache, periodic load-balancing migrations, and an
auditor that reports both raw ID collisions and the corruption they
cause on the read path.

Since PR 5 the fleet is a *replicated, fault-tolerant* serving system:

* **Routing** — a consistent-hash ring with virtual nodes
  (:class:`~repro.distributed.ring.HashRing`) replaces the old static
  ``crc32(key) % n`` routing.
* **Replication** — every write goes to the key's ``replication_factor``
  preference-list nodes; a write is acknowledged once ``write_quorum``
  live replicas accepted it (default: majority of RF).
* **Quorum reads** — ``get`` consults ``read_quorum`` live replicas
  (default: majority), resolves divergence by last-write-wins
  versioning (a per-cluster logical clock stamped into each stored
  *envelope*), and read-repairs any stale/missing contacted replica.
* **Fault injection** — :meth:`kill` makes a node unreachable (state
  preserved: an outage, not a disk wipe); writes it misses are queued
  as *hints* and replayed on :meth:`recover` (hinted handoff).
* **Scans** — every live node's key-ordered stream goes through the
  store's own merge, and per key the highest envelope version wins, so
  stale migrated copies and dead replicas never surface old rows or
  resurrect deletes.

Row contract: every row a node holds is an *envelope* this cluster
wrote, ``MAGIC | version:8 (big-endian) | flag | payload``; ``flag``
distinguishes values from cluster-level tombstones (deletes are
versioned writes, so LWW applies to them too). The read paths enforce
the contract: a row without the envelope header, or versioned past
the cluster's logical clock, raises :class:`~repro.errors.KVStoreError`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.distributed.migration import (
    MigrationEvent,
    UniquenessAudit,
    audit_id_uniqueness,
    migrate_coldest_to_warmest,
    migrate_to_ring_owners,
)
from repro.distributed.node import Node
from repro.distributed.ring import HashRing
from repro.errors import (
    ClusterUnavailableError,
    ConfigurationError,
    KVStoreError,
)
from repro.kvstore.blockcache import BlockCache
from repro.kvstore.iterators import iterate_db, merge_rows
from repro.kvstore.options import Options
from repro.kvstore.storage import SimulatedStorage
from repro.simulation.seeds import derive_seed, rng_for

#: Seed-path labels for durable-node storage and crash-restart RNGs.
_STORAGE_LABEL = 0x57A9
_RESTART_LABEL = 0x9E0B

#: First byte of every envelope.
_ENVELOPE_MAGIC = 0xE4
#: Envelope header: magic, version:8, flag.
_HEADER_LEN = 10
_FLAG_VALUE = 0
_FLAG_TOMBSTONE = 1


def encode_envelope(version: int, flag: int, payload: bytes) -> bytes:
    """Pack one cluster-managed row."""
    return (
        bytes((_ENVELOPE_MAGIC,))
        + version.to_bytes(8, "big")
        + bytes((flag,))
        + payload
    )


def decode_envelope(stored: bytes) -> Tuple[int, int, bytes]:
    """Unpack ``(version, flag, payload)`` from one envelope.

    Raises :class:`~repro.errors.KVStoreError` on a row without the
    envelope header (too short, wrong magic byte, or an unknown flag).
    This is the *syntactic* decode; cluster read paths go through
    ``ClusterSimulator._decode``, which also rejects versions beyond
    the cluster's logical clock.
    """
    if (
        len(stored) < _HEADER_LEN
        or stored[0] != _ENVELOPE_MAGIC
        or stored[9] > _FLAG_TOMBSTONE
    ):
        raise KVStoreError(
            f"row is not a cluster envelope: {stored[:_HEADER_LEN]!r}"
        )
    return int.from_bytes(stored[1:9], "big"), stored[9], stored[10:]


def majority(replication_factor: int) -> int:
    """The default quorum: a majority of RF (``R + W > RF`` holds when
    both sides use it, so reads see every acknowledged write)."""
    return replication_factor // 2 + 1


def resolve_quorums(
    num_nodes: int,
    replication_factor: int,
    read_quorum: Optional[int] = None,
    write_quorum: Optional[int] = None,
) -> Tuple[int, int]:
    """Validate a fleet's replication settings and return the resolved
    ``(read_quorum, write_quorum)`` (``None`` means a majority of RF).

    Raises :class:`~repro.errors.ConfigurationError` unless
    ``1 <= RF <= num_nodes`` and both quorums lie in ``[1, RF]``.
    """
    if num_nodes < 1:
        raise ConfigurationError("need >= 1 node")
    if not 1 <= replication_factor <= num_nodes:
        raise ConfigurationError(
            f"replication_factor must be in [1, {num_nodes}]"
        )
    default_quorum = majority(replication_factor)
    read = default_quorum if read_quorum is None else read_quorum
    write = default_quorum if write_quorum is None else write_quorum
    for label, quorum in (("read_quorum", read), ("write_quorum", write)):
        if not 1 <= quorum <= replication_factor:
            raise ConfigurationError(
                f"{label} must be in [1, replication_factor]"
            )
    return read, write


@dataclass
class ClusterReport:
    """Aggregate health/corruption report after a simulation run."""

    operations: int
    migrations: int
    audit: UniquenessAudit
    corrupt_block_reads: int
    corrupt_results: int
    cache_cross_file_hits: int
    cache_hit_rate: float
    #: Fault-tolerance counters (all zero on an RF=1, no-chaos run).
    dead_nodes: int = 0
    hints_outstanding: int = 0
    hints_replayed: int = 0
    read_repairs: int = 0
    #: Quorum reads that missed every contacted replica and had to
    #: widen the search (stranded copies after load-policy migration).
    read_escalations: int = 0
    #: The chaos audit trail: ``(action, node name, operation count)``
    #: per kill, crash, recover and decommission, in order.
    fault_events: List[Tuple[str, str, int]] = field(default_factory=list)

    @property
    def corrupted(self) -> bool:
        """Did an ID collision manifest anywhere?"""
        return self.audit.collided or self.corrupt_block_reads > 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready view: ``kind`` plus every field, with the audit
        reduced to ``id_collisions`` and each fault event as a list (the
        shape a JSON round trip gives it)."""
        payload: Dict[str, Any] = {"kind": "cluster", **vars(self)}
        payload["id_collisions"] = payload.pop("audit").collision_count
        payload["fault_events"] = [list(event) for event in self.fault_events]
        return payload


class ClusterSimulator:
    """n uncoordinated MiniRocks nodes with a shared block cache.

    Parameters
    ----------
    num_nodes:
        Fleet size (the paper's ``n``).
    options_factory:
        Builds each node's :class:`Options` — supply the ID algorithm
        and (small!) ``id_universe`` here to make collisions observable.
    cache_blocks:
        Capacity of the shared block cache.
    seed:
        Root seed; node ``i`` derives its own RNG.
    replication_factor:
        Copies per key (``RF``): writes go to the key's first RF
        ring successors.
    read_quorum / write_quorum:
        Replicas a read/write must reach (``R``/``W``); default is a
        majority of RF. ``R + W > RF`` makes reads see every
        acknowledged write even through a single-node outage.
    vnodes:
        Virtual nodes per member on the ring.
    durable:
        Give every node its own fault-injecting
        :class:`~repro.kvstore.storage.SimulatedStorage` (seeded per
        node from the cluster seed). Durable fleets run the group-
        commit WAL data path (``options.write_mode``) and support
        ``kill(mode="crash")`` — true process death with WAL-replay
        recovery — in addition to plain outages.
    """

    def __init__(
        self,
        num_nodes: int,
        options_factory: Callable[[], Options],
        cache_blocks: int = 8192,
        seed: int = 0,
        replication_factor: int = 1,
        read_quorum: Optional[int] = None,
        write_quorum: Optional[int] = None,
        vnodes: int = 64,
        durable: bool = False,
    ):
        self.read_quorum, self.write_quorum = resolve_quorums(
            num_nodes, replication_factor, read_quorum, write_quorum
        )
        self.replication_factor = replication_factor
        self.cache = BlockCache(cache_blocks)
        self.seed = seed
        #: Durable fleets give every node its own fault-injecting
        #: storage (seeded per node), unlocking ``kill(mode="crash")``.
        self.durable = durable
        self._options_factory = options_factory
        self.nodes: List[Node] = [
            Node(
                name=f"node{i}",
                options=options_factory(),
                cache=self.cache,
                rng=rng_for(seed, i),
                storage=self._make_storage(i),
            )
            for i in range(num_nodes)
        ]
        self._by_name: Dict[str, Node] = {
            node.name: node for node in self.nodes
        }
        self.ring = HashRing([node.name for node in self.nodes], vnodes=vnodes)
        #: The ring's replica-name tuples mapped to their nodes; names
        #: never change owner, and membership changes empty it so it
        #: holds only the current ring's sets.
        self._replica_sets: Dict[Tuple[str, ...], Tuple[Node, ...]] = {}
        self.migration_events: List[MigrationEvent] = []
        #: (action, node name, operation count at the time) — the
        #: chaos audit trail.
        self.fault_events: List[Tuple[str, str, int]] = []
        #: Writes addressed to dead replicas: node name -> {key: latest
        #: envelope}. Coalesced per key at enqueue time — under LWW
        #: only the newest missed version matters, so a long outage
        #: over a hot Zipfian keyset queues O(distinct keys), not
        #: O(missed writes), and replay does one put per key.
        self._hints: Dict[str, Dict[bytes, bytes]] = {}
        self._operations = 0
        self._clock = 0
        self.read_repairs = 0
        self.read_escalations = 0
        self.hints_replayed = 0

    def _make_storage(self, index: int) -> Optional[SimulatedStorage]:
        if not self.durable:
            return None
        return SimulatedStorage(
            seed=derive_seed(self.seed, _STORAGE_LABEL, index)
        )

    # -- routing -----------------------------------------------------------

    def _next_version(self) -> int:
        self._clock += 1
        return self._clock

    def _decode(self, stored: bytes) -> Tuple[int, int, bytes]:
        """:func:`decode_envelope` plus a structural bound: this
        cluster never issued a version beyond its logical clock, so a
        row claiming one breaks the row contract and raises
        :class:`~repro.errors.KVStoreError` instead of winning LWW."""
        decoded = decode_envelope(stored)
        if decoded[0] > self._clock:
            raise KVStoreError(
                f"envelope version {decoded[0]} is past the cluster "
                f"clock {self._clock}"
            )
        return decoded

    def preference_nodes(self, key: bytes) -> Tuple[Node, ...]:
        """The key's replica set, primary first (alive or not)."""
        names = self.ring.preference_list(key, self.replication_factor)
        nodes = self._replica_sets.get(names)
        if nodes is None:
            nodes = self._replica_sets[names] = tuple(
                self._by_name[name] for name in names
            )
        return nodes

    def live_nodes(self) -> List[Node]:
        """The nodes currently alive, in declaration order."""
        return [node for node in self.nodes if node.alive]

    # -- replicated data path ----------------------------------------------

    def _quorum_write(self, key: bytes, envelope: bytes) -> None:
        replicas = self.preference_nodes(key)
        acked = 0
        for node in replicas:
            if node.alive:
                node.db.put(key, envelope)
                acked += 1
            else:
                self._hints.setdefault(node.name, {})[key] = envelope
        if acked < self.write_quorum:
            raise ClusterUnavailableError(
                f"write to {key!r} reached {acked} live replica(s); "
                f"write_quorum={self.write_quorum}"
            )

    def put(self, key: bytes, value: bytes) -> None:
        """Quorum-replicated LWW write of ``value`` under ``key``."""
        self._operations += 1
        self._quorum_write(
            key, encode_envelope(self._next_version(), _FLAG_VALUE, value)
        )

    def delete(self, key: bytes) -> None:
        """Delete = a versioned cluster-level tombstone write.

        Stored as a regular envelope row (not a MiniRocks tombstone)
        so LWW ordering applies to deletes exactly as to values — a
        delete can beat a stale replica's older value and vice versa.
        """
        self._operations += 1
        self._quorum_write(
            key,
            encode_envelope(self._next_version(), _FLAG_TOMBSTONE, b""),
        )

    def get(self, key: bytes) -> Optional[bytes]:
        """Quorum read with LWW resolution; ``None`` if absent or deleted."""
        self._operations += 1
        replicas = self.preference_nodes(key)
        live = [node for node in replicas if node.alive]
        if len(live) < self.read_quorum:
            raise ClusterUnavailableError(
                f"read of {key!r} has {len(live)} live replica(s); "
                f"read_quorum={self.read_quorum}"
            )
        contacted = live[: self.read_quorum]
        responses = []
        best = None  # (version, flag, payload, envelope)
        for node in contacted:
            stored = node.db.get(key)
            decoded = None
            if stored is not None:
                version, flag, payload = self._decode(stored)
                decoded = (version, flag, payload, stored)
                if best is None or version > best[0]:
                    best = decoded
            responses.append((node, decoded))
        if best is None:
            # Every contacted replica came up empty. Before answering
            # "missing", escalate: first the rest of the preference
            # list, then the whole live fleet — load-policy SST
            # migration can strand a key's only copies on nodes a
            # quorum read would never consult. A hit found this way is
            # read-repaired onto the quorum replicas, so escalation
            # self-heals placement instead of recurring per read.
            for node in itertools.chain(
                live[self.read_quorum:],
                (
                    other
                    for other in self.nodes
                    if other.alive and other not in replicas
                ),
            ):
                stored = node.db.get(key)
                if stored is not None:
                    version, flag, payload = self._decode(stored)
                    if best is None or version > best[0]:
                        best = (version, flag, payload, stored)
            if best is None:
                return None
            self.read_escalations += 1
        # Read-repair: bring every contacted stale/missing replica up
        # to the winning version before answering.
        for node, decoded in responses:
            if decoded is None or decoded[0] < best[0]:
                node.db.put(key, best[3])
                self.read_repairs += 1
        return None if best[1] == _FLAG_TOMBSTONE else best[2]

    def scan(
        self, start: bytes, end: Optional[bytes] = None,
        limit: Optional[int] = None,
    ) -> List[tuple]:
        """Scatter-gather range scan: every live node, one winner per key.

        A contiguous key range spans all nodes (keys are hash-routed),
        and after replication, SST migrations, and node churn a key
        can surface on several nodes at different versions. Per key
        the highest envelope version wins (see :meth:`_newest_rows`),
        so stale migrated copies lose to the owner's later writes and
        cluster-level tombstones keep deletions dead. Dead nodes are
        skipped; with ``replication_factor`` > 1 the surviving
        replicas cover their ranges (an RF=1 scan through an outage is
        best-effort and simply misses the dead node's keys). The merge
        streams, so a ``limit`` scan reads only the rows up to its
        last one. A ``limit`` below 1 returns no rows, as on a single
        store.
        """
        self._operations += 1
        if limit is not None and limit < 1:
            return []
        rows = (
            (key, payload)
            for key, (_version, flag, payload) in self._newest_rows(start, end)
            if flag != _FLAG_TOMBSTONE
        )
        return list(itertools.islice(rows, limit))

    def _newest_rows(self, start: bytes, end: Optional[bytes] = None):
        """Each key's winning decoded ``(version, flag, payload)``
        across the live nodes, in key order over ``[start, end)``
        (cluster tombstones included).

        The nodes' :func:`~repro.kvstore.iterators.iterate_db` streams
        go through the store's own merge, and every row passed on the
        way is decoded, so a row outside the contract fails the scan.
        """
        streams = [
            iterate_db(node.db, start) for node in self.nodes if node.alive
        ]
        decode = self._decode
        key, newest = None, None
        for row_key, stored in merge_rows(streams):
            if row_key == key:
                # LWW by version. Equal versions mean the same cluster
                # write, so the copies are byte-identical and the first
                # one stands.
                decoded = decode(stored)
                if decoded[0] > newest[0]:
                    newest = decoded
                continue
            if newest is not None:
                yield key, newest
            if end is not None and row_key >= end:
                return
            key, newest = row_key, decode(stored)
        if newest is not None:
            yield key, newest

    # -- fault injection ----------------------------------------------------

    def _resolve(self, node: Union[Node, str, int]) -> Node:
        if isinstance(node, Node):
            return node
        if isinstance(node, int):
            if not 0 <= node < len(self.nodes):
                raise ConfigurationError(
                    f"node index {node} out of range"
                )
            return self.nodes[node]
        found = self._by_name.get(node)
        if found is None:
            raise ConfigurationError(f"unknown node {node!r}")
        return found

    def kill(
        self, node: Union[Node, str, int], mode: str = "outage"
    ) -> Node:
        """Take ``node`` down. Two failure models:

        * ``mode="outage"`` (default, the pre-durability behaviour):
          the node is unreachable but its process state — memtable
          included — is preserved; it resumes exactly where it was.
        * ``mode="crash"`` (durable fleets only): process death. The
          memtable is lost, unsynced storage bytes become a torn tail,
          and :meth:`recover` must rebuild the store by WAL replay —
          so only writes that were durable *on that node* survive
          locally, and the cluster's zero-lost-acked-writes guarantee
          rests on the quorum, exactly as in production.

        Either way quorum reads/writes, scans, and the balancer skip
        the node, and writes it misses queue as hints.
        """
        if mode not in ("outage", "crash"):
            raise ConfigurationError(
                f"unknown kill mode {mode!r}; use 'outage' or 'crash'"
            )
        target = self._resolve(node)
        if not target.alive:
            raise ConfigurationError(f"{target.name} is already dead")
        if mode == "crash":
            if target.storage is None:
                raise ConfigurationError(
                    "kill(mode='crash') needs a durable cluster "
                    "(ClusterSimulator(durable=True)); in-memory nodes "
                    "can only suffer outages"
                )
            target.crash()
        target.alive = False
        action = "crash" if mode == "crash" else "kill"
        self.fault_events.append((action, target.name, self._operations))
        return target

    def recover(
        self, node: Union[Node, str, int], replay_hints: bool = True
    ) -> int:
        """Bring a dead node back; replay its hinted-handoff queue.

        A *crashed* node first restarts its storage (torn-tail
        semantics applied) and reopens its store — committed SSTs plus
        WAL replay, with a deterministically re-seeded ID generator —
        before hints land on top. An *outage* node simply resumes.

        The queue holds one latest envelope per key (coalesced at
        enqueue time) and replays with an LWW guard (a hint never
        overwrites a newer local row), so replay is idempotent and
        safe after repeated kill/recover cycles. Pass
        ``replay_hints=False`` to model lost hints (the queue is
        discarded) — the node then serves stale data until read-repair
        or :meth:`repair_replicas` converges it. Returns the number of
        hints applied. A decommissioned node owns no keys and cannot
        come back: recovering one raises
        :class:`~repro.errors.ConfigurationError`.
        """
        target = self._resolve(node)
        if target.alive:
            raise ConfigurationError(f"{target.name} is already alive")
        if target.name not in self.ring.members:
            raise ConfigurationError(
                f"{target.name} was decommissioned; it is no longer a "
                "ring member"
            )
        if target.storage is not None and target.storage.crashed:
            index = self.nodes.index(target)
            target.reopen(
                rng=rng_for(
                    self.seed, index, _RESTART_LABEL,
                    target.storage.restarts,
                )
            )
        target.alive = True
        hints = self._hints.pop(target.name, {})
        applied = 0
        if replay_hints:
            for key, envelope in hints.items():
                applied += self._write_if_newer(
                    target, key, decode_envelope(envelope)[0], envelope
                )
            self.hints_replayed += applied
        self.fault_events.append(
            ("recover", target.name, self._operations)
        )
        return applied

    def _write_if_newer(
        self, node: Node, key: bytes, version: int, envelope: bytes
    ) -> bool:
        """Put ``envelope`` (at ``version``) on ``node`` unless the node
        already holds ``key`` at that version or newer — the LWW guard
        every hint replay and repair copy goes through. True if it
        wrote."""
        current = node.db.get(key)
        if current is not None and self._decode(current)[0] >= version:
            return False
        node.db.put(key, envelope)
        return True

    def hints_outstanding(self) -> int:
        """Distinct keys still queued for dead replicas."""
        return sum(len(queue) for queue in self._hints.values())

    # -- cluster operations --------------------------------------------------

    def rebalance(
        self, max_moves: int = 1, policy: Optional[str] = None
    ) -> List[MigrationEvent]:
        """Run the balancer once.

        ``policy="load"`` moves files from the most- to the
        least-loaded live node (the seed behaviour);
        ``policy="ring"`` moves misplaced SSTs toward their key
        range's preference-list owners. The default is ``"load"`` for
        single-copy fleets and ``"ring"`` for replicated
        clusters: load-chasing migration can strand a replica's SST on
        a node outside the key's preference list, where quorum reads
        no longer look first — placement-preserving maintenance is the
        only safe default once RF > 1 (reads that do miss every
        contacted replica escalate and self-heal, see :meth:`get`, but
        that is the recovery path, not the plan). With fewer than two
        live nodes the balancer stands down (returns ``[]``) — outages
        must not turn routine maintenance into a crash.
        """
        if policy is None:
            policy = "ring" if self.replication_factor > 1 else "load"
        live = self.live_nodes()
        if len(live) < 2:
            return []
        rng = rng_for(self.seed, 0xB417, len(self.migration_events))
        if policy == "ring":
            events = migrate_to_ring_owners(
                live, self.preference_nodes, rng, max_moves=max_moves
            )
        elif policy == "load":
            events = migrate_coldest_to_warmest(
                live, rng, max_moves=max_moves
            )
        else:
            raise ConfigurationError(
                f"unknown rebalance policy {policy!r}"
            )
        self.migration_events.extend(events)
        return events

    def repair_replicas(self) -> int:
        """Full anti-entropy sweep; returns the number of copies fixed.

        Scatter-gathers every live node's rows, picks the LWW winner
        per key, and writes it to any *live* preference-list replica
        that is missing it or holds an older version. This is the
        convergence pass a real system runs after membership changes
        (see :meth:`add_node`) or lost hints; dead nodes catch up via
        hinted handoff / read-repair after they return.
        """
        repaired = 0
        # Drained before any write: a node's stream reads its live
        # memtable.
        for key, (version, flag, payload) in list(self._newest_rows(b"")):
            envelope = encode_envelope(version, flag, payload)
            for node in self.preference_nodes(key):
                if node.alive:
                    repaired += self._write_if_newer(
                        node, key, version, envelope
                    )
        return repaired

    def add_node(self, name: Optional[str] = None) -> Node:
        """Join a fresh node to the ring and re-converge replicas.

        The new member claims ~``1/(n+1)`` of the key space (ring
        stability); :meth:`repair_replicas` then copies the rows whose
        preference lists now include it.
        """
        index = len(self.nodes)
        node = Node(
            name=name or f"node{index}",
            options=self._options_factory(),
            cache=self.cache,
            rng=rng_for(self.seed, index),
            storage=self._make_storage(index),
        )
        if node.name in self._by_name:
            raise ConfigurationError(f"duplicate node name {node.name!r}")
        self.nodes.append(node)
        self._by_name[node.name] = node
        self.ring.add_node(node.name)
        self._replica_sets.clear()
        self.repair_replicas()
        return node

    def decommission(self, node: Union[Node, str, int]) -> Node:
        """Retire a live node from the ring with a hint-safe drain.

        The inverse of :meth:`add_node`, used by the autoscaler's
        scale-down path (:mod:`repro.distributed.autoscaler`). The
        drain sequence keeps every acked write readable throughout:

        1. **Membership first** — the node leaves the ring, so new
           writes route around it and its arcs fall to ring
           successors.
        2. **Hint safety** — any hinted-handoff envelopes queued *for*
           the leaver are re-homed through the keys' current
           preference lists instead of retiring with it (written to
           live owners under the LWW guard, or re-queued as hints for
           owners that are currently down).
        3. **Drain** — :meth:`repair_replicas` runs while the leaver
           is still readable, copying its rows to their new owners.
        4. **Retire** — only then is the node marked dead, so quorum
           paths, scans, and the balancer skip it for good.

        Refuses to shrink below ``replication_factor`` live nodes and
        records a ``("decommission", name, ops)`` fault event.
        """
        target = self._resolve(node)
        if not target.alive:
            raise ConfigurationError(
                f"{target.name} is dead; decommission drains a live "
                "node (recover it first, or leave it to hinted handoff)"
            )
        remaining = len(self.live_nodes()) - 1
        if remaining < self.replication_factor:
            raise ConfigurationError(
                f"decommissioning {target.name} would leave "
                f"{remaining} live node(s), fewer than "
                f"replication_factor={self.replication_factor}"
            )
        self.ring.remove_node(target.name)
        self._replica_sets.clear()
        for key, envelope in self._hints.pop(target.name, {}).items():
            version = decode_envelope(envelope)[0]
            for owner in self.preference_nodes(key):
                if owner.alive:
                    self._write_if_newer(owner, key, version, envelope)
                else:
                    queue = self._hints.setdefault(owner.name, {})
                    queued = queue.get(key)
                    if (
                        queued is None
                        or decode_envelope(queued)[0] < version
                    ):
                        queue[key] = envelope
        self.repair_replicas()
        target.alive = False
        self.fault_events.append(
            ("decommission", target.name, self._operations)
        )
        return target

    def flush_all(self) -> None:
        """Flush every node's memtable (outage nodes included — their
        buffered writes still mint file IDs for the audit). A crashed
        node lost its memtable with its process, so nothing is flushed
        for it."""
        for node in self.nodes:
            if node.storage is None or not node.storage.crashed:
                node.db.flush()

    # -- reporting ---------------------------------------------------------

    def report(self) -> ClusterReport:
        """Collect the cluster-wide collision/corruption report."""
        audit = audit_id_uniqueness(self.nodes)
        return ClusterReport(
            operations=self._operations,
            migrations=len(self.migration_events),
            audit=audit,
            corrupt_block_reads=sum(
                node.db.stats.corrupt_block_reads for node in self.nodes
            ),
            corrupt_results=sum(
                node.db.stats.corrupt_results for node in self.nodes
            ),
            cache_cross_file_hits=self.cache.stats.cross_file_hits,
            cache_hit_rate=self.cache.stats.hit_rate,
            dead_nodes=sum(1 for node in self.nodes if not node.alive),
            hints_outstanding=self.hints_outstanding(),
            hints_replayed=self.hints_replayed,
            read_repairs=self.read_repairs,
            read_escalations=self.read_escalations,
            fault_events=list(self.fault_events),
        )
