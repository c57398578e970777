"""Fault-injecting simulated storage for crash-recovery testing.

:class:`SimulatedStorage` is an in-memory file system with the one
property real durability code cares about and ordinary fakes lack: it
distinguishes **buffered** bytes (written, visible to readers, but
held in the OS page cache) from **fsynced** bytes (forced to the
platter). A simulated crash keeps every file's synced prefix and
replaces the unsynced suffix with a deterministically-seeded *torn
tail* — a partial prefix of the buffered bytes, optionally followed by
garbage — which is exactly the failure surface torn-write/partial-
fsync bugs live on.

Semantics, chosen to mirror a journaling file system:

* **Data pages** are at risk: only :meth:`fsync` makes appended bytes
  durable. Readers always see buffered data (the page cache serves
  writes-in-flight).
* **Metadata is journaled**: create, delete, and rename are ordered
  and durable once the call returns. :meth:`write_atomic` (write temp,
  fsync, rename) is therefore all-or-nothing — after a crash the file
  holds either its old content or the complete new content, never a
  prefix.
* **Crash points** are injected with :meth:`plan_crash`: trigger at
  the Nth occurrence of a labeled operation (``wal-append``,
  ``fsync``, ``flush``, ``compaction``, ``manifest-commit``, ...) or
  at the Nth mutating storage op overall. The op raises
  :class:`~repro.errors.SimulatedCrashError` *without* taking effect
  and the storage freezes until :meth:`restart`.

The torn tail is a pure function of ``(seed, restart count, file
name)``, so a crash matrix run is bit-reproducible under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, KVStoreError, SimulatedCrashError
from repro.simulation.seeds import rng_for

#: Seed-path label for torn-tail randomness (fixed constant — part of
#: the reproducibility contract, never change it).
_TORN_TAIL_LABEL = 0x70A4

#: Max garbage bytes appended to a torn tail (a partial sector of
#: whatever the in-flight write was carrying).
_MAX_GARBAGE = 8


@dataclass(frozen=True)
class CrashPoint:
    """When to crash: the ``at``-th occurrence of ``label`` (1-based),
    or the ``at``-th mutating storage op overall when ``label`` is
    None. Occurrences are counted from the start of the current
    storage lifetime (counts reset at :meth:`SimulatedStorage.restart`).
    """

    at: int
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.at < 1:
            raise ConfigurationError("crash point 'at' must be >= 1")


class _File:
    """One simulated file: buffered bytes + durable prefix length."""

    __slots__ = ("data", "synced")

    def __init__(self, data: bytes = b"", synced: int = 0):
        self.data = bytearray(data)
        self.synced = synced


class SimulatedStorage:
    """An in-memory file system with fsync semantics and crash points."""

    def __init__(self, seed: int = 0, crash_plan: Optional[CrashPoint] = None):
        self.seed = seed
        self._files: Dict[str, _File] = {}
        self._plan = crash_plan
        self._label_counts: Dict[str, int] = {}
        self.crashed = False
        #: Completed restarts (crash lifetimes survived).
        self.restarts = 0
        #: Mutating ops this lifetime (what ``CrashPoint(label=None)``
        #: counts).
        self.op_count = 0
        self.fsync_count = 0
        self.bytes_written = 0

    # -- crash machinery ----------------------------------------------------

    def plan_crash(
        self, at: int, label: Optional[str] = None
    ) -> CrashPoint:
        """Arm a crash at the ``at``-th occurrence of ``label`` (or at
        the ``at``-th mutating op overall when ``label`` is None).
        Occurrences are counted from the start of the current storage
        lifetime, so arm the plan before driving the workload."""
        plan = CrashPoint(at=at, label=label)
        self._plan = plan
        return plan

    def crash(self) -> None:
        """Crash immediately (manual trigger, e.g. a cluster killing a
        node's process). Freezes the storage; call :meth:`restart`."""
        self.crashed = True

    def _check_live(self) -> None:
        if self.crashed:
            raise KVStoreError(
                "storage is crashed; restart() it before further ops"
            )

    def _op(self, label: str) -> None:
        """Count one mutating op; fire the crash plan if it matches.

        A triggered crash raises *before* the op takes effect — the
        most adversarial interleaving (the op's bytes never reached
        even the page cache)."""
        self._check_live()
        self.op_count += 1
        self._label_counts[label] = self._label_counts.get(label, 0) + 1
        plan = self._plan
        if plan is None:
            return
        hit = (
            self.op_count == plan.at
            if plan.label is None
            else (
                plan.label == label
                and self._label_counts[label] == plan.at
            )
        )
        if hit:
            self.crash()
            raise SimulatedCrashError(
                f"injected crash at {label!r} "
                f"(occurrence {self._label_counts[label]}, "
                f"storage op {self.op_count})"
            )

    def restart(self) -> List[str]:
        """Apply crash semantics and bring the storage back.

        Every file keeps its synced prefix; the unsynced suffix is
        replaced by a deterministic torn tail — a random-length prefix
        of the buffered bytes, optionally followed by 1–8 garbage
        bytes (the partial sector an interrupted write left behind).
        Returns the names of files that lost or gained bytes.
        """
        if not self.crashed:
            raise KVStoreError("restart() without a crash")
        rng = rng_for(self.seed, _TORN_TAIL_LABEL, self.restarts)
        torn: List[str] = []
        for name in sorted(self._files):
            handle = self._files[name]
            if handle.synced >= len(handle.data):
                continue
            suffix = len(handle.data) - handle.synced
            keep = rng.randrange(suffix + 1)
            del handle.data[handle.synced + keep :]
            if rng.random() < 0.5:
                handle.data.extend(
                    rng.randrange(256)
                    for _ in range(rng.randrange(1, _MAX_GARBAGE + 1))
                )
            # Whatever survived the crash is, by definition, on disk.
            handle.synced = len(handle.data)
            torn.append(name)
        self.crashed = False
        self.restarts += 1
        self.op_count = 0
        self._label_counts.clear()
        self._plan = None
        return torn

    # -- mutating ops (all labeled, all crash-point eligible) ---------------

    def append(self, name: str, data: bytes, label: str = "append") -> None:
        """Buffered append (page cache only until :meth:`fsync`)."""
        self._op(label)
        handle = self._files.get(name)
        if handle is None:
            handle = self._files[name] = _File()
        handle.data.extend(data)
        self.bytes_written += len(data)

    def fsync(self, name: str, label: str = "fsync") -> None:
        """Force ``name``'s buffered bytes to durable storage."""
        self._op(label)
        handle = self._require(name)
        handle.synced = len(handle.data)
        self.fsync_count += 1

    def write_atomic(
        self, name: str, data: bytes, label: str = "atomic-write"
    ) -> None:
        """Write-then-rename: on return the full new content is
        durable; a crash at this op leaves the old content intact."""
        self._op(label)
        self._files[name] = _File(bytes(data), synced=len(data))
        self.bytes_written += len(data)

    def rename(self, old: str, new: str, label: str = "rename") -> None:
        """Atomic rename (journaled metadata: durable, all-or-nothing)."""
        self._op(label)
        handle = self._require(old)
        del self._files[old]
        self._files[new] = handle

    def delete(self, name: str, label: str = "delete") -> None:
        """Remove a file (journaled metadata: durable on return)."""
        self._op(label)
        self._require(name)
        del self._files[name]

    # -- reads / introspection (never crash-point eligible) -----------------

    def read(self, name: str) -> bytes:
        """Full buffered content (the page cache serves unsynced data)."""
        self._check_live()
        return bytes(self._require(name).data)

    def exists(self, name: str) -> bool:
        """True when ``name`` exists in this storage."""
        self._check_live()
        return name in self._files

    def list(self, prefix: str = "") -> List[str]:
        """Sorted names of files starting with ``prefix``."""
        self._check_live()
        return sorted(n for n in self._files if n.startswith(prefix))

    def size(self, name: str) -> int:
        """Current size of ``name`` in bytes."""
        self._check_live()
        return len(self._require(name).data)

    def unsynced_bytes(self, name: str) -> int:
        """Bytes of ``name`` that a crash right now could lose/tear."""
        self._check_live()
        handle = self._require(name)
        return len(handle.data) - handle.synced

    def _require(self, name: str) -> _File:
        handle = self._files.get(name)
        if handle is None:
            raise KVStoreError(f"no such file {name!r}")
        return handle

    def __repr__(self) -> str:
        state = "crashed" if self.crashed else "live"
        return (
            f"SimulatedStorage(files={len(self._files)}, {state}, "
            f"restarts={self.restarts})"
        )
