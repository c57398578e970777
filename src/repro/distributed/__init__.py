"""Multi-node deployment simulator: migration makes IDs global (§1).

Since PR 5 the fleet is replicated and fault-tolerant: consistent-hash
ring routing with virtual nodes, quorum reads/writes with last-write-
wins versioning and read-repair, hinted handoff across outages, and a
fault-injection API (``kill``/``recover``) for chaos experiments.
Since PR 6 it also serves over real sockets: ``uuidp serve`` exposes
any target behind the framed asyncio RPC layer of
:mod:`repro.distributed.protocol` / :mod:`repro.distributed.rpc`.
The fleet is also elastic: :mod:`repro.distributed.autoscaler` scales
membership up and down (``add_node``/``decommission``) against an SLO
under deterministic time-varying demand.
"""

from repro.distributed.cluster import (
    ClusterReport,
    ClusterSimulator,
    decode_envelope,
    encode_envelope,
)

# Must come after the cluster import: the autoscaler pulls in
# repro.workloads.demand, whose package __init__ imports the driver,
# which needs repro.distributed.cluster already in sys.modules.
from repro.distributed.autoscaler import (
    Autoscaler,
    AutoscalerConfig,
    ScaleEvent,
    summarize_shards,
)
from repro.distributed.migration import (
    MigrationEvent,
    UniquenessAudit,
    audit_id_uniqueness,
    migrate_coldest_to_warmest,
    migrate_random,
    migrate_to_ring_owners,
)
from repro.distributed.node import Node
from repro.distributed.ring import HashRing
from repro.distributed.rpc import (
    NetworkTarget,
    RPCClient,
    RPCServer,
    ServerThread,
    network_flush_and_report,
    network_target_factory,
)

__all__ = [
    "Node",
    "HashRing",
    "ClusterSimulator",
    "ClusterReport",
    "Autoscaler",
    "AutoscalerConfig",
    "ScaleEvent",
    "summarize_shards",
    "MigrationEvent",
    "NetworkTarget",
    "RPCClient",
    "RPCServer",
    "ServerThread",
    "UniquenessAudit",
    "audit_id_uniqueness",
    "decode_envelope",
    "encode_envelope",
    "migrate_coldest_to_warmest",
    "migrate_random",
    "migrate_to_ring_owners",
    "network_flush_and_report",
    "network_target_factory",
]
