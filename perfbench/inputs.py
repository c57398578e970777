"""Seeded benchmark inputs: scrambled-Zipfian key streams and random values.

The generator belongs to the benchmark, not to the library: it never
imports ``repro.workloads``, so a change to the library's own YCSB
generator cannot change what the benchmark feeds the system. Every
stream is a pure function of the ``--seed`` argument and is fully
materialized before any timed phase starts.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: One workload op: ``(is_get, key, value)``; ``value`` is None for gets.
Op = Tuple[bool, bytes, Optional[bytes]]

#: Bytes per value, and the Zipf skew of every key stream.
VALUE_BYTES = 100
THETA = 0.99

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def sub_rng(seed: int, label: str) -> random.Random:
    """An independent RNG for one input stream of the run.

    ``random.Random`` seeds a ``str`` through SHA-512, so the stream
    does not depend on ``PYTHONHASHSEED`` or the platform.
    """
    return random.Random(f"perfbench:{seed}:{label}")


def fnv1a64(value: int) -> int:
    """FNV-1a over the 8 little-endian bytes of ``value`` (YCSB's scrambler)."""
    digest = _FNV_OFFSET
    for _ in range(8):
        digest = ((digest ^ (value & 0xFF)) * _FNV_PRIME) & _MASK64
        value >>= 8
    return digest


class ScrambledZipfian:
    """YCSB's scrambled Zipfian picker over ``[0, items)``.

    Ranks follow Zipf(:data:`THETA`) by the Gray et al. rejection-free method;
    each rank is then hashed (FNV-1a) onto the key space, so popular keys
    are spread over the whole key range instead of clustering at its
    start.
    """

    def __init__(self, items: int):
        theta = THETA
        if items < 2:
            raise ValueError("need at least two items")
        self.items = items
        zeta_n = sum(1.0 / (i ** theta) for i in range(1, items + 1))
        zeta_2 = 1.0 + 0.5 ** theta
        self._zeta_n = zeta_n
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1.0 - (2.0 / items) ** (1.0 - theta)) / (
            1.0 - zeta_2 / zeta_n
        )
        self._half_pow_theta = 0.5 ** theta

    def rank(self, rng: random.Random) -> int:
        """One Zipf-distributed rank (0 is the most popular)."""
        u = rng.random()
        uz = u * self._zeta_n
        if uz < 1.0:
            return 0
        if uz < 1.0 + self._half_pow_theta:
            return 1
        rank = int(self.items * (self._eta * u - self._eta + 1.0) ** self._alpha)
        return min(rank, self.items - 1)

    def pick(self, rng: random.Random) -> int:
        """One scrambled key index."""
        return fnv1a64(self.rank(rng)) % self.items


def make_key(index: int) -> bytes:
    """The benchmark's key format (fixed width, so keys sort by index)."""
    return b"user%010d" % index


@dataclass(frozen=True)
class KVInputs:
    """Records to bulk-load and the op stream to run afterwards."""

    records: List[Tuple[bytes, bytes]]
    ops: List[Op]


def make_kv_inputs(
    seed: int,
    label: str,
    records: int,
    ops: int,
    get_fraction: float,
) -> KVInputs:
    """Materialize a YCSB-style load plus a get/update op stream."""
    rng = sub_rng(seed, label)
    loaded = [
        (make_key(index), rng.randbytes(VALUE_BYTES))
        for index in range(records)
    ]
    picker = ScrambledZipfian(records)
    stream: List[Op] = []
    for _ in range(ops):
        key = make_key(picker.pick(rng))
        if rng.random() < get_fraction:
            stream.append((True, key, None))
        else:
            stream.append((False, key, rng.randbytes(VALUE_BYTES)))
    return KVInputs(records=loaded, ops=stream)


def check_gets(
    ops: List[Op],
    answers: List[Optional[bytes]],
    expected: Dict[bytes, bytes],
    problems: List[str],
    found: bytes = b"",
) -> None:
    """Replay ``ops`` in order into ``expected``; each get's answer must
    be ``found`` + the latest value written before it (a server reply
    carries a one-byte status prefix, an in-process answer none)."""
    for index, (is_get, key, value) in enumerate(ops):
        if is_get:
            if answers[index] != found + expected[key] and len(problems) < 5:
                problems.append(f"get {key!r} returned a stale or wrong value")
        else:
            expected[key] = value


def stream_digest(inputs: KVInputs) -> str:
    """BLAKE2b over the records and ops, for reproducibility checks."""
    digest = hashlib.blake2b(digest_size=16)
    for key, value in inputs.records:
        digest.update(key)
        digest.update(value)
    for is_get, key, value in inputs.ops:
        digest.update(b"g" if is_get else b"p")
        digest.update(key)
        if value is not None:
            digest.update(value)
    return digest.hexdigest()
