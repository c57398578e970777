"""SST migration policies and cluster-wide uniqueness auditing.

Migration is *why* uncoordinated IDs must be globally unique: a file
minted on node A, cached under ``(file_id, block)`` keys, moves to node
B while node C may independently mint the same ``file_id``. The audit
functions here measure exactly that.

Two policies move files, both behind
:meth:`~repro.distributed.cluster.ClusterSimulator.rebalance`:
:func:`migrate_coldest_to_warmest` chases load, and
:func:`migrate_to_ring_owners` moves files back to their keys'
replica sets.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.distributed.node import Node
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MigrationEvent:
    """A completed file move."""

    file_id: int
    fingerprint: int
    source: str
    destination: str
    level: int


def migrate_coldest_to_warmest(
    nodes: Sequence[Node], rng: random.Random, max_moves: int = 1
) -> List[MigrationEvent]:
    """Balance load: move files from the most- to the least-loaded node.

    Returns the performed moves (possibly fewer than ``max_moves`` if
    the donor has nothing exportable).
    """
    if len(nodes) < 2:
        raise ConfigurationError("migration needs >= 2 nodes")
    events: List[MigrationEvent] = []
    for _ in range(max_moves):
        donor = max(nodes, key=lambda n: n.load())
        receiver = min(nodes, key=lambda n: n.load())
        if donor is receiver or donor.load() == 0:
            break
        exportable = donor.exportable_files()
        if not exportable:
            break
        level, sst = exportable[rng.randrange(len(exportable))]
        donor.export_file(level, sst)
        receiver.import_file(level, sst)
        events.append(
            MigrationEvent(
                file_id=sst.file_id,
                fingerprint=sst.fingerprint,
                source=donor.name,
                destination=receiver.name,
                level=level,
            )
        )
    return events


def migrate_to_ring_owners(
    nodes: Sequence[Node],
    owners_of: Callable[[bytes], Sequence[Node]],
    rng: random.Random,
    max_moves: int = 1,
) -> List[MigrationEvent]:
    """Ring-aware rebalance: move SSTs back to their keys' replica set.

    After ring membership changes (or load-balancing churn) a file can
    sit on a node that is no longer in its key range's preference
    list. This policy scans every live node's live files — L0
    included, because migrated files usually land there via the
    overlap fallback — and judges each by its ``min_key``: if the
    holder is not among ``owners_of(min_key)`` (typically
    ``ClusterSimulator.preference_nodes``), the file is *misplaced*
    and is moved to the first live owner. Up to ``max_moves`` files
    move per call, chosen by ``rng`` for parity with the other
    policies; the policy reaches a fixed point once every file sits
    with one of its owners. Placement here is correctness-driven
    (serve reads where routing looks), unlike
    :func:`migrate_coldest_to_warmest`, which chases load.
    """
    if len(nodes) < 2:
        raise ConfigurationError("migration needs >= 2 nodes")
    # One fleet scan: moving a file to one of its owners can never
    # make another file misplaced (ownership is a pure function of
    # min_key), so the list only shrinks as moves pop from it.
    misplaced = []
    for node in nodes:
        if not node.alive:
            continue
        for level, sst in node.db.manifest.live_files():
            owners = owners_of(sst.min_key)
            if node in owners:
                continue
            destination = next(
                (owner for owner in owners if owner.alive), None
            )
            if destination is not None:
                misplaced.append((node, destination, level, sst))
    events: List[MigrationEvent] = []
    for _ in range(min(max_moves, len(misplaced))):
        donor, destination, level, sst = misplaced.pop(
            rng.randrange(len(misplaced))
        )
        donor.export_file(level, sst)
        destination.import_file(level, sst)
        events.append(
            MigrationEvent(
                file_id=sst.file_id,
                fingerprint=sst.fingerprint,
                source=donor.name,
                destination=destination.name,
                level=level,
            )
        )
    return events


@dataclass(frozen=True)
class UniquenessAudit:
    """Result of a cluster-wide file-ID uniqueness check."""

    total_ids_assigned: int
    distinct_ids: int
    #: file_id -> number of times it was assigned (only entries > 1).
    duplicates: Dict[int, int]

    @property
    def collided(self) -> bool:
        """True when any file id was assigned to more than one owner."""
        return bool(self.duplicates)

    @property
    def collision_count(self) -> int:
        """Number of extra assignments beyond the first per ID."""
        return sum(count - 1 for count in self.duplicates.values())


def audit_id_uniqueness(nodes: Sequence[Node]) -> UniquenessAudit:
    """Check every ID ever assigned anywhere in the cluster.

    This is the UUIDP collision event itself: the same ID minted by two
    (or more) uncoordinated generator instances.
    """
    counts: Counter = Counter()
    for node in nodes:
        counts.update(node.db.assigned_file_ids())
    duplicates = {
        file_id: count for file_id, count in counts.items() if count > 1
    }
    return UniquenessAudit(
        total_ids_assigned=sum(counts.values()),
        distinct_ids=len(counts),
        duplicates=duplicates,
    )
