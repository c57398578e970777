"""YCSB-style workload generators for the KV substrate.

Generates streams of ``(op, key, value)`` tuples, which the
:class:`~repro.workloads.driver.WorkloadDriver` executes against a
:class:`~repro.kvstore.db.MiniRocks` store or a
:class:`~repro.distributed.cluster.ClusterSimulator` fleet. The
standard mixes:

====  ======================  =====================
name  mix                     distribution
====  ======================  =====================
A     50% read / 50% update   zipfian
B     95% read / 5% update    zipfian
C     100% read               zipfian
D     95% read / 5% insert    latest
E     95% scan / 5% insert    zipfian (scan starts)
F     50% read / 50% RMW      zipfian
====  ======================  =====================

Every stream emits **exactly** ``operation_count`` logical operations.
Two ops are composite at execution time:

* ``("rmw", key, new_value)`` — read-modify-write, one logical op;
  the executor performs its get + put pair.
* ``("scan", start_key, ascii-length)`` — range scan of up to
  ``int(value)`` rows starting at ``start_key``; the executor runs it
  through the store's scan/iterator path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.errors import ConfigurationError
from repro.workloads.distributions import (
    KeyPicker,
    LatestPicker,
    ScrambledZipfianPicker,
)

Operation = Tuple[str, bytes, bytes]

_MIXES = {
    "a": (0.5, 0.0, 0.5, 0.0, 0.0),
    "b": (0.95, 0.0, 0.05, 0.0, 0.0),
    "c": (1.0, 0.0, 0.0, 0.0, 0.0),
    "d": (0.95, 0.05, 0.0, 0.0, 0.0),
    "e": (0.0, 0.05, 0.0, 0.0, 0.95),
    "f": (0.5, 0.0, 0.0, 0.5, 0.0),
}  # (read, insert, update, read-modify-write, scan)

#: Workloads whose reads target recently inserted keys.
_LATEST_WORKLOADS = frozenset({"d"})


def encode_key(index: int, width: int = 12) -> bytes:
    """Fixed-width decimal key encoding (sortable, like YCSB's)."""
    return b"user" + str(index).zfill(width).encode()


def make_value(rng: random.Random, size: int = 32) -> bytes:
    """A random printable value of ``size`` bytes."""
    return bytes(rng.randrange(32, 127) for _ in range(size))


@dataclass
class WorkloadSpec:
    """Parameters of a YCSB-style run."""

    workload: str = "b"
    record_count: int = 1000
    operation_count: int = 5000
    value_size: int = 32
    zipf_theta: float = 0.99
    #: Scan lengths (workload E) are uniform in ``[1, max_scan_length]``.
    max_scan_length: int = 100


def load_phase(
    spec: WorkloadSpec, rng: random.Random
) -> Iterator[Operation]:
    """The initial bulk load: one put per record."""
    for index in range(spec.record_count):
        yield "put", encode_key(index), make_value(rng, spec.value_size)


def run_phase(
    spec: WorkloadSpec, rng: random.Random
) -> Iterator[Operation]:
    """The measured phase: exactly ``operation_count`` logical ops.

    Read-modify-write is budgeted as **one** logical op — it is emitted
    as a single ``"rmw"`` tuple whose executor performs the get + put
    pair — so every workload's stream length equals the requested
    operation count (a prior version emitted the pair inline, making
    workload F overshoot by ~25%).
    """
    mix = _MIXES.get(spec.workload.lower())
    if mix is None:
        raise ConfigurationError(
            f"unknown workload {spec.workload!r}; known: {sorted(_MIXES)}"
        )
    read_p, insert_p, update_p, rmw_p, scan_p = mix
    if spec.max_scan_length < 1:
        raise ConfigurationError("max_scan_length must be >= 1")
    latest: Optional[LatestPicker] = None
    if spec.workload.lower() in _LATEST_WORKLOADS:
        latest = LatestPicker(spec.record_count, spec.zipf_theta)
    # Only build the base-distribution picker when some branch consults
    # it — workload D reads through LatestPicker, so paying the exact
    # CDF build there would be pure setup waste.
    needs_picker = (
        (read_p > 0 and latest is None)
        or update_p > 0 or rmw_p > 0 or scan_p > 0
    )
    picker: Optional[KeyPicker] = None
    if needs_picker:
        picker = ScrambledZipfianPicker(spec.record_count, spec.zipf_theta)
    # Keys [0, record_count + inserted) exist; the insert branch below
    # is the only place `inserted` (and the latest window) advances, so
    # the two cannot drift even when insert_p rounds to zero ops.
    inserted = 0
    for _ in range(spec.operation_count):
        roll = rng.random()
        if roll < read_p:
            if latest is not None:
                index = latest.pick(rng)
                # Pin the picker's contract: reads may only name keys
                # that exist (the window advances solely through the
                # insert branch below).
                assert 0 <= index < spec.record_count + inserted, (
                    f"LatestPicker picked {index}, outside "
                    f"[0, {spec.record_count + inserted})"
                )
            else:
                index = picker.pick(rng)
            yield "get", encode_key(index), b""
        elif roll < read_p + insert_p:
            index = spec.record_count + inserted
            inserted += 1
            if latest is not None:
                latest.record_insert()
            yield "put", encode_key(index), make_value(rng, spec.value_size)
        elif roll < read_p + insert_p + update_p:
            index = picker.pick(rng)
            yield "put", encode_key(index), make_value(rng, spec.value_size)
        elif roll < read_p + insert_p + update_p + rmw_p:
            # One logical op; executors perform the get + put pair.
            index = picker.pick(rng)
            yield "rmw", encode_key(index), make_value(rng, spec.value_size)
        else:  # scan: zipfian start key, uniform length
            index = picker.pick(rng)
            length = rng.randrange(1, spec.max_scan_length + 1)
            yield "scan", encode_key(index), str(length).encode()
