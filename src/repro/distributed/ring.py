"""Consistent-hash ring with virtual nodes.

The ring replaces the seed repo's static ``crc32(key) % n`` routing:
each member owns ``vnodes`` points on a 64-bit circle, a key belongs
to the first point strictly after its own hash (wrapping; a key that
hashes exactly onto a point belongs to the next one), and a key's
**preference list** is the first ``rf`` *distinct* members clockwise
from that point — the replica set used by quorum reads and writes.
The lists are precomputed: per replication factor, a table holds each
point's list, built on first use and dropped whenever membership
changes, so a lookup is one hash and one bisect.

Why a ring:

* **Stability** — adding one member to an ``n``-member ring remaps
  only ~``1/(n+1)`` of the key space (each new virtual point claims
  the arc behind it); modulo routing remaps ~``n/(n+1)`` of all keys.
* **Replication** — "the next ``rf`` distinct members clockwise" is a
  well-defined, membership-stable replica set; modulo routing has no
  natural successor notion.

Hashing uses BLAKE2b (8-byte digests), never the builtin ``hash``,
whose per-process salting (``PYTHONHASHSEED``) would make routing —
and therefore every simulated collision and chaos outcome —
unreproducible across runs.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError


def _hash64(data: bytes) -> int:
    """Deterministic 64-bit point on the ring for ``data``."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


class HashRing:
    """A consistent-hash ring over named members.

    Parameters
    ----------
    members:
        Initial member names (order-insensitive; the ring is a pure
        function of the name set and ``vnodes``).
    vnodes:
        Virtual nodes per member. More points flatten per-member load
        variance (relative std ~ ``1/sqrt(vnodes)``) at the cost of a
        larger sorted point table.
    """

    def __init__(self, members: Sequence[str] = (), vnodes: int = 64):
        if vnodes < 1:
            raise ConfigurationError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._members: set = set()
        #: Sorted, parallel arrays: ring point -> owning member name.
        self._points: List[int] = []
        self._owners: List[str] = []
        #: rf -> the preference list starting at each point (see
        #: :meth:`_build_table`); emptied on every membership change.
        self._tables: Dict[int, List[Tuple[str, ...]]] = {}
        for name in members:
            self.add_node(name)

    # -- membership ---------------------------------------------------------

    def add_node(self, name: str) -> None:
        """Insert ``name``'s virtual points into the ring."""
        if name in self._members:
            raise ConfigurationError(f"ring already contains {name!r}")
        self._members.add(name)
        for replica in range(self.vnodes):
            point = _hash64(f"{name}#{replica}".encode())
            index = bisect.bisect_left(self._points, point)
            # 64-bit point collisions across names are ~impossible at
            # simulator scale; break ties by name for determinism.
            if (
                index < len(self._points)
                and self._points[index] == point
                and self._owners[index] < name
            ):
                index += 1
            self._points.insert(index, point)
            self._owners.insert(index, name)
        self._tables.clear()

    def remove_node(self, name: str) -> None:
        """Remove ``name``'s virtual points (its arcs fall to successors)."""
        if name not in self._members:
            raise ConfigurationError(f"ring does not contain {name!r}")
        self._members.remove(name)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != name
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]
        self._tables.clear()

    @property
    def members(self) -> List[str]:
        """Member names, sorted for presentation."""
        return sorted(self._members)

    def __len__(self) -> int:
        return len(self._members)

    # -- routing ------------------------------------------------------------

    def preference_list(self, key: bytes, rf: int = 1) -> Tuple[str, ...]:
        """The first ``rf`` distinct members clockwise from ``key``.

        The first entry is the key's *primary*; the rest are its
        replica successors. Pure in (member set, vnodes, key, rf).
        """
        table = self._tables.get(rf)
        if table is None:
            if rf < 1:
                raise ConfigurationError("rf must be >= 1")
            if rf > len(self._members):
                raise ConfigurationError(
                    f"rf={rf} exceeds ring membership ({len(self._members)})"
                )
            table = self._tables[rf] = self._build_table(rf)
        return table[bisect.bisect_right(self._points, _hash64(key))]

    def _build_table(self, rf: int) -> List[Tuple[str, ...]]:
        """Entry ``i`` is the first ``rf`` distinct owners walking
        clockwise from point ``i``; one extra entry past the last point
        wraps to the first, so a bisect result indexes it directly."""
        owners = self._owners
        total = len(owners)
        table: List[Tuple[str, ...]] = []
        for start in range(total):
            seen: List[str] = []
            for step in range(total):
                owner = owners[(start + step) % total]
                if owner not in seen:
                    seen.append(owner)
                    if len(seen) == rf:
                        break
            table.append(tuple(seen))
        table.append(table[0])
        return table

    def primary(self, key: bytes) -> str:
        """The member owning ``key`` (first on the preference list)."""
        return self.preference_list(key, 1)[0]
