"""Per-path policy: which rule families apply where, and rule knobs.

The engine classifies every linted file against glob-style patterns
(matched on the POSIX form of the path, so policies written here work
for both repo-relative and absolute invocations). Each
:class:`FamilyScope` turns one rule family on for the paths its
``include`` patterns match, minus its ``exclude`` patterns; files a
family does not cover simply skip that family's rules.

:data:`DEFAULT_POLICY` encodes this repository's contracts:

* **REPRO1xx determinism** — everything under ``repro`` is declared
  deterministic (simulation, workloads, routing, storage), except the
  devtools package itself (the linter and sanitizer name the banned
  entry points in order to police them).
* **REPRO2xx decoder bounds** — the binary decoders: the RPC wire
  protocol, the WAL record framing, the SST container, the bloom
  filter serialization, and the cluster's row envelopes.
* **REPRO3xx asyncio hygiene** and **REPRO4xx exception discipline**
  — everywhere (3xx only fires inside ``async def`` anyway).
* **REPRO5xx API invariants** — everywhere; the config-dataclass and
  stats-contract targets below name the concrete classes.
* **REPRO6xx documentation** — the library's public surface under
  ``repro`` (tests excluded) must carry docstrings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from typing import FrozenSet, Tuple


def _posix(path: str) -> str:
    return path.replace("\\", "/")


@dataclass(frozen=True)
class FamilyScope:
    """One rule family's include/exclude path patterns."""

    family: str
    include: Tuple[str, ...]
    exclude: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        """True when ``path`` matches an include and no exclude pattern."""
        posix = _posix(path)
        if not any(fnmatch(posix, pattern) for pattern in self.include):
            return False
        return not any(fnmatch(posix, pattern) for pattern in self.exclude)


@dataclass(frozen=True)
class Policy:
    """The full per-path configuration one engine run uses."""

    scopes: Tuple[FamilyScope, ...]
    #: REPRO201 applies inside functions whose name matches this
    #: (decoders / deserializers / buffer readers).
    decoder_function_pattern: str = (
        r"(decode|deserialize|from_bytes|read_|unpack|parse|scan"
        r"|record_at|key_at)"
    )
    #: REPRO402 sanctions ``contextlib.suppress(Exception)`` inside
    #: functions whose name matches this (best-effort teardown).
    cleanup_function_pattern: str = (
        r"(close|stop|shutdown|teardown|release|__exit__|__del__)"
    )
    #: REPRO501: dataclasses whose every public field must be consumed
    #: (attribute-read) somewhere in the linted tree.
    config_dataclasses: Tuple[str, ...] = (
        "Options",
        "DriverConfig",
        "AutoscalerConfig",
        "SimulationPlan",
        "ExperimentConfig",
    )
    #: REPRO502: (class, methods) whose bodies must route through the
    #: stats attribute below.
    stats_contracts: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
        ("MiniRocks", ("put", "get", "delete", "scan", "flush")),
    )
    stats_attribute: str = "stats"

    def families_for(self, path: str) -> FrozenSet[str]:
        """The rule families enabled for ``path`` (REPRO0 is always on:
        suppression discipline is not opt-out-able)."""
        families = {"REPRO0"}
        for scope in self.scopes:
            if scope.applies_to(path):
                families.add(scope.family)
        return frozenset(families)


DEFAULT_POLICY = Policy(
    scopes=(
        # Determinism: the whole library is contract-bound, except the
        # linter/sanitizer that polices the contract.
        FamilyScope(
            family="REPRO1",
            include=("*",),
            exclude=("*/devtools/*", "*/devtools"),
        ),
        # Decoder bounds: the binary parsers.
        FamilyScope(
            family="REPRO2",
            include=(
                "*/protocol.py",
                "*/wal.py",
                "*/sstable.py",
                "*/bloom.py",
                "*/distributed/cluster.py",
            ),
        ),
        FamilyScope(family="REPRO3", include=("*",)),
        FamilyScope(family="REPRO4", include=("*",)),
        FamilyScope(family="REPRO5", include=("*",)),
        # Documentation discipline: the library's public surface (not
        # tests, not example scripts) must stay documented.
        FamilyScope(
            family="REPRO6",
            include=("*/repro/*",),
            exclude=("*/tests/*",),
        ),
    ),
)
