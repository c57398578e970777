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

The re-exports below are imported on first use (:mod:`repro._lazy`),
so ``import repro.distributed.cluster`` loads neither the RPC layer
(and asyncio) nor the autoscaler.
"""

from repro._lazy import lazy_getattr

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
    "migrate_to_ring_owners",
    "network_flush_and_report",
    "network_target_factory",
]

__getattr__ = lazy_getattr(
    globals(),
    {
        "repro.distributed.autoscaler": (
            "Autoscaler",
            "AutoscalerConfig",
            "ScaleEvent",
            "summarize_shards",
        ),
        "repro.distributed.cluster": (
            "ClusterReport",
            "ClusterSimulator",
            "decode_envelope",
            "encode_envelope",
        ),
        "repro.distributed.migration": (
            "MigrationEvent",
            "UniquenessAudit",
            "audit_id_uniqueness",
            "migrate_coldest_to_warmest",
            "migrate_to_ring_owners",
        ),
        "repro.distributed.node": ("Node",),
        "repro.distributed.ring": ("HashRing",),
        "repro.distributed.rpc": (
            "NetworkTarget",
            "RPCClient",
            "RPCServer",
            "ServerThread",
            "network_flush_and_report",
            "network_target_factory",
        ),
    },
)
