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
* **Scans** — the scatter-gather merge is replica-divergence-aware:
  per-key winners are chosen by envelope version, so stale migrated
  copies and dead replicas never surface old rows or resurrect
  deletes.

Envelope format: cluster-managed rows are stored in each node's
MiniRocks as ``MAGIC | version:8 (big-endian) | flag | payload``;
``flag`` distinguishes values from cluster-level tombstones (deletes
are versioned writes, so LWW applies to them too). Rows written
directly to a node (bypassing the cluster) decode as version ``-1``
legacy values and lose to any cluster-managed copy.
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
from repro.errors import ClusterUnavailableError, ConfigurationError
from repro.kvstore.blockcache import BlockCache
from repro.kvstore.memtable import TOMBSTONE
from repro.kvstore.options import Options
from repro.kvstore.storage import SimulatedStorage
from repro.simulation.seeds import derive_seed, rng_for

#: Seed-path labels for durable-node storage and crash-restart RNGs.
_STORAGE_LABEL = 0x57A9
_RESTART_LABEL = 0x9E0B

#: First byte of every cluster-managed envelope.
_ENVELOPE_MAGIC = 0xE4
_FLAG_VALUE = 0
_FLAG_TOMBSTONE = 1
#: Version reported for rows that predate envelopes (direct node
#: writes); they lose LWW to any cluster-managed copy.
_LEGACY_VERSION = -1


def encode_envelope(version: int, flag: int, payload: bytes) -> bytes:
    """Pack one cluster-managed row."""
    return (
        bytes((_ENVELOPE_MAGIC,))
        + version.to_bytes(8, "big")
        + bytes((flag,))
        + payload
    )


def decode_envelope(stored: bytes) -> Tuple[int, int, bytes]:
    """Unpack ``(version, flag, payload)``; legacy raw rows come back
    as ``(_LEGACY_VERSION, _FLAG_VALUE, stored)``.

    This is the *syntactic* decode. Cluster read paths go through
    ``ClusterSimulator._decode``, which additionally rejects versions
    beyond the cluster's logical clock — a raw row that merely starts
    with the magic byte (1 in 256 of random values) would otherwise
    parse as an astronomically-versioned envelope and win LWW forever.
    """
    if len(stored) >= 10 and stored[0] == _ENVELOPE_MAGIC:
        return (
            int.from_bytes(stored[1:9], "big"),
            stored[9],
            stored[10:],
        )
    return _LEGACY_VERSION, _FLAG_VALUE, stored


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
        """Decode with a structural sanity bound: this cluster never
        issued a version beyond its logical clock, so anything higher
        is a raw row that happens to start with the magic byte — treat
        it as legacy (version −1) rather than letting a forged header
        win LWW forever. (A direct node write that mimics the header
        *within* the clock range remains indistinguishable; cluster-
        managed data should be written through the cluster.)"""
        version, flag, payload = decode_envelope(stored)
        if version > self._clock:
            return _LEGACY_VERSION, _FLAG_VALUE, stored
        return version, flag, payload

    def preference_nodes(self, key: bytes) -> List[Node]:
        """The key's replica set, primary first (alive or not)."""
        return [
            self._by_name[name]
            for name in self.ring.preference_list(
                key, self.replication_factor
            )
        ]

    def node_for_key(self, key: bytes) -> Node:
        """Back-compat shim: the key's *primary* owner.

        Pre-ring code used this for single-copy routing; it now
        returns the first node on the ring preference list, regardless
        of aliveness. Replicated reads/writes go through the quorum paths
        instead.
        """
        return self.preference_nodes(key)[0]

    def live_nodes(self) -> List[Node]:
        """The nodes currently alive, in declaration order."""
        return [node for node in self.nodes if node.alive]

    # -- replicated data path ----------------------------------------------

    def _quorum_write(self, key: bytes, envelope: bytes) -> None:
        replicas = self.preference_nodes(key)
        acked = 0
        for node in replicas:
            if node.alive:
                node.put(key, envelope)
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
            stored = node.get(key)
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
                stored = node.get(key)
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
                node.put(key, best[3])
                self.read_repairs += 1
        return None if best[1] == _FLAG_TOMBSTONE else best[2]

    def scan(
        self, start: bytes, end: Optional[bytes] = None,
        limit: Optional[int] = None,
    ) -> List[tuple]:
        """Scatter-gather range scan: every live node, one winner per key.

        A contiguous key range spans all nodes (keys are hash-routed),
        and after replication, SST migrations, and node churn a key
        can surface on several nodes at different versions. The merge
        is replica-divergence-aware: per key, the highest envelope
        version wins — so stale migrated copies lose to the owner's
        later writes and cluster-level tombstones keep deletions dead.
        Dead nodes are skipped; with ``replication_factor`` > 1 the
        surviving replicas cover their ranges (an RF=1 scan through an
        outage is best-effort and simply misses the dead node's keys).

        With a ``limit``, per-node windows are only trusted up to the
        smallest key at which any node's window was cut (the
        *frontier*): beyond it a node might still hold an unseen
        winning row or tombstone. If the frontier cuts the result
        short, the coordinator retries with doubled per-node windows —
        the pagination loop a production scatter-gather coordinator
        runs.
        """
        self._operations += 1
        if limit is None:
            merged, _ = self._merge_node_scans(start, end, None)
            return [
                (key, payload)
                for key, (_version, flag, payload) in sorted(merged.items())
                if flag != _FLAG_TOMBSTONE
            ]
        per_node = limit
        while True:
            merged, frontier = self._merge_node_scans(start, end, per_node)
            rows = [
                (key, payload)
                for key, (_version, flag, payload) in sorted(merged.items())
                if flag != _FLAG_TOMBSTONE
                and (frontier is None or key <= frontier)
            ]
            if frontier is None or len(rows) >= limit:
                return rows[:limit]
            per_node *= 2

    def _merge_node_scans(
        self, start: bytes, end: Optional[bytes], per_node: Optional[int]
    ):
        """One scatter-gather round with LWW merge semantics.

        Returns ``(merged, frontier)``: ``merged`` maps each key to
        its winning decoded ``(version, flag, payload)`` (cluster
        tombstones included), ``frontier`` is the largest key up to
        which **every** live node's contribution is complete (None
        when no node's window was cut).
        """
        merged: Dict[bytes, Tuple[int, int, bytes]] = {}
        frontier: Optional[bytes] = None
        # Ask for one extra live row so a full window is
        # distinguishable from an exactly-exhausted node.
        request = None if per_node is None else per_node + 1
        for node in self.nodes:
            if not node.alive:
                continue
            # include_tombstones: a *node-level* MiniRocks tombstone
            # (legacy direct delete) must reach the merge, or a stale
            # migrated copy would resurrect the key.
            rows = node.scan(start, end, request, include_tombstones=True)
            if request is not None:
                live = sum(1 for _, v in rows if v != TOMBSTONE)
                if live >= request:
                    last_key = rows[-1][0]
                    if frontier is None or last_key < frontier:
                        frontier = last_key
            for key, stored in rows:
                if stored == TOMBSTONE:
                    decoded = (_LEGACY_VERSION, _FLAG_TOMBSTONE, b"")
                else:
                    decoded = self._decode(stored)
                current = merged.get(key)
                # LWW by version; the seed's owner-wins rule survives
                # as the tie-break for *legacy* rows only (direct node
                # writes, all version −1). Enveloped ties are skipped
                # on purpose: equal versions mean the same cluster
                # write, so the copies are byte-identical and a ring
                # lookup per tie would only slow replicated scans.
                if (
                    current is None
                    or decoded[0] > current[0]
                    or (
                        decoded[0] == current[0]
                        and decoded[0] == _LEGACY_VERSION
                        and self.node_for_key(key) is node
                    )
                ):
                    merged[key] = decoded
        return merged, frontier

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
        hints applied.
        """
        target = self._resolve(node)
        if target.alive:
            raise ConfigurationError(f"{target.name} is already alive")
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
                current = target.get(key)
                if (
                    current is None
                    or self._decode(current)[0]
                    < decode_envelope(envelope)[0]
                ):
                    target.put(key, envelope)
                    applied += 1
            self.hints_replayed += applied
        self.fault_events.append(
            ("recover", target.name, self._operations)
        )
        return applied

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
        merged, _ = self._merge_node_scans(b"", None, None)
        repaired = 0
        for key, (version, flag, payload) in merged.items():
            if version == _LEGACY_VERSION:
                continue  # direct node writes are not cluster-managed
            envelope = encode_envelope(version, flag, payload)
            for node in self.preference_nodes(key):
                if not node.alive:
                    continue
                current = node.get(key)
                if (
                    current is None
                    or self._decode(current)[0] < version
                ):
                    node.put(key, envelope)
                    repaired += 1
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
        for key, envelope in self._hints.pop(target.name, {}).items():
            version = decode_envelope(envelope)[0]
            for owner in self.preference_nodes(key):
                if owner.alive:
                    current = owner.get(key)
                    if (
                        current is None
                        or self._decode(current)[0] < version
                    ):
                        owner.put(key, envelope)
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
        """Flush every node's memtable (dead nodes included — their
        buffered writes still mint file IDs for the audit)."""
        for node in self.nodes:
            node.db.flush()

    def run_workload(
        self,
        operations,
        rebalance_every: Optional[int] = None,
        moves_per_rebalance: int = 2,
    ) -> None:
        """Drive a sequence of ``(op, key, value)`` operations.

        ``op`` is ``"put" | "get" | "delete" | "rmw" | "scan"``; the
        composite-op semantics (``rmw`` = get + put pair, ``scan`` =
        up to ``int(value)`` rows from ``key``) come from the shared
        executor :func:`repro.workloads.driver.execute_op`. With
        ``rebalance_every=k`` the balancer runs after every k logical
        ops — interleaving migrations with traffic, as production
        does. For chaos schedules (kill/recover at fixed op ticks) use
        the :class:`~repro.workloads.driver.WorkloadDriver`.
        """
        # Deferred import: workloads.driver imports this module.
        from repro.workloads.driver import execute_op

        for index, (op, key, value) in enumerate(operations, start=1):
            execute_op(self, op, key, value)
            if (
                rebalance_every is not None
                and index % rebalance_every == 0
                and len(self.live_nodes()) >= 2
            ):
                self.rebalance(max_moves=moves_per_rebalance)

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

    def total_files_assigned(self) -> int:
        """IDs minted across the fleet so far."""
        return sum(len(node.db.assigned_file_ids()) for node in self.nodes)
