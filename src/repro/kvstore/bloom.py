"""Bloom filter for SST point lookups.

Standard Bloom filter with the Kirsch–Mitzenmacher double-hashing
scheme: two independent 64-bit hashes ``h1, h2`` derived from
``blake2b`` simulate ``k`` hash functions as ``h1 + i·h2`` (mod 2^64).
This is the same construction RocksDB's full-filter blocks use.

Two probe backends share one bit layout:

* ``python`` — the portable loop over a ``bytearray``.
* ``numpy`` — batch ``add_all``/``may_contain_hashes`` compute every
  probe position of a whole key batch as one ``(keys, probes)`` uint64
  array op over the *same* bit array (the numpy view aliases the
  ``bytearray``), so membership answers are **bit-identical** between
  backends; only wall-clock differs. Without numpy installed the class
  degrades to the python loop.

``add_all`` is the SST builder's path, run once per key on every flush
and compaction output. Under numpy it hashes the whole batch into one
packed buffer of 16-byte blake2b digests and reads ``(h1, h2)`` straight
out of it with ``np.frombuffer("<u8")`` — no per-key Python ints or
tuples — then sets every probed bit through one boolean mask packed
little-endian onto the bit array.

The bit array serializes via :meth:`to_bytes`/:meth:`from_bytes` so an
SST reopen restores the filter without re-hashing every key.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError, KVStoreError

try:  # soft dependency: probes degrade to the python loop
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free hosts
    _np = None

_MASK64 = (1 << 64) - 1

#: Magic + version prefix of :meth:`BloomFilter.to_bytes`.
_BLOOM_MAGIC = b"BF\x01"
_HEADER_LEN = len(_BLOOM_MAGIC) + 8 + 1 + 8  # + num_bits, probes, count


def numpy_available() -> bool:
    """Is the vectorized probe backend usable on this host?"""
    return _np is not None


def hash_pair(key: bytes) -> Tuple[int, int]:
    """The Kirsch–Mitzenmacher (h1, h2) pair of one key."""
    digest = hashlib.blake2b(key, digest_size=16).digest()
    return (
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:], "little") | 1,  # odd => full cycle
    )


_hash_pair = hash_pair  # internal alias

#: Below this many keys the vectorized probe loses to per-call numpy
#: overhead (array building + ufunc dispatch); measured crossover on
#: CPython 3.11 sits near a dozen keys.
_BATCH_CUTOVER = 8


def hash_pairs(keys: Iterable[bytes]) -> List[Tuple[int, int]]:
    """Precompute the (h1, h2) pair of every key.

    Pairs depend only on the key — not on any filter's size — so one
    batch of pairs can probe many filters (the ``multi_get`` path
    hashes each key once and probes every candidate SST's bloom).
    """
    return [_hash_pair(key) for key in keys]


class BloomFilter:
    """Fixed-size bit array sized from bits-per-key at build time.

    ``backend`` selects the probe implementation: ``"auto"`` (numpy
    when available), ``"numpy"`` (raises without numpy), or
    ``"python"``. The bit array itself is backend-independent — a
    filter built by one backend answers identically under the other.
    """

    def __init__(
        self, num_keys: int, bits_per_key: int, backend: str = "auto"
    ):
        if num_keys < 0:
            raise ConfigurationError("num_keys must be >= 0")
        if bits_per_key < 1:
            raise ConfigurationError("bits_per_key must be >= 1")
        self.num_bits = max(64, num_keys * bits_per_key)
        # Optimal k = ln2 * bits/key, clamped to [1, 30] like RocksDB.
        self.num_probes = min(30, max(1, round(0.69 * bits_per_key)))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self._count = 0
        self._init_backend(backend)

    def _init_backend(self, backend: str) -> None:
        if backend not in ("auto", "numpy", "python"):
            raise ConfigurationError(
                f"bloom backend must be auto/numpy/python, got {backend!r}"
            )
        if backend == "numpy" and _np is None:
            raise ConfigurationError(
                "bloom backend 'numpy' requested but numpy is not installed"
            )
        self.backend = (
            "numpy" if backend == "auto" and _np is not None else
            "python" if backend == "auto" else backend
        )
        #: Writable uint8 view aliasing ``self._bits`` (numpy only):
        #: vector ops mutate the same bytes the python loop reads.
        self._view = (
            _np.frombuffer(self._bits, dtype=_np.uint8)
            if self.backend == "numpy"
            else None
        )

    @property
    def count(self) -> int:
        """Number of keys added."""
        return self._count

    # -- single-key path (kept scalar: per-key numpy overhead loses) ---------

    def add(self, key: bytes) -> None:
        """Insert ``key`` into the filter."""
        h1, h2 = _hash_pair(key)
        bits = self._bits
        num_bits = self.num_bits
        for i in range(self.num_probes):
            bit = ((h1 + i * h2) & _MASK64) % num_bits
            bits[bit >> 3] |= 1 << (bit & 7)
        self._count += 1

    def may_contain(self, key: bytes) -> bool:
        """False ⇒ definitely absent; True ⇒ probably present."""
        return self.may_contain_hash(_hash_pair(key))

    def may_contain_hash(self, pair: Tuple[int, int]) -> bool:
        """Scalar probe over a precomputed (h1, h2) pair.

        Point lookups hash the key once and probe every candidate
        SST's filter with this — always the python loop, because a
        one-row numpy dispatch costs more than ~7 probe iterations.
        """
        return self._probe_one(pair)

    def _probe_one(self, pair: Tuple[int, int]) -> bool:
        h1, h2 = pair
        bits = self._bits
        num_bits = self.num_bits
        for i in range(self.num_probes):
            bit = ((h1 + i * h2) & _MASK64) % num_bits
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

    # -- batch path ----------------------------------------------------------

    def add_all(self, keys: Iterable[bytes]) -> None:
        """Insert every key from ``keys`` (vectorized under numpy)."""
        keys = list(keys)
        if self.backend == "numpy" and len(keys) >= _BATCH_CUTOVER:
            blake2b = hashlib.blake2b
            digests = _np.frombuffer(
                b"".join(
                    [blake2b(key, digest_size=16).digest() for key in keys]
                ),
                dtype="<u8",
            ).reshape(-1, 2)
            positions = self._positions(
                digests[:, 0:1], digests[:, 1:2] | _np.uint64(1)
            )
            probed = _np.zeros(self.num_bits, dtype=bool)
            probed[positions.ravel()] = True
            self._view |= _np.packbits(probed, bitorder="little")
            self._count += len(keys)
            return
        for key in keys:
            self.add(key)

    def may_contain_batch(self, keys: Sequence[bytes]) -> List[bool]:
        """Batch :meth:`may_contain`; one vector op under numpy."""
        return self.may_contain_hashes(hash_pairs(keys))

    def may_contain_hashes(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> List[bool]:
        """Batch probe over precomputed (h1, h2) pairs.

        Vectorizes under numpy once the batch amortizes the dispatch
        overhead; tiny batches take the scalar loop (bit-identical
        answers either way).
        """
        if not pairs:
            return []
        if self.backend == "numpy" and len(pairs) >= _BATCH_CUTOVER:
            pairs_array = _np.asarray(pairs, dtype=_np.uint64)
            positions = self._positions(
                pairs_array[:, 0:1], pairs_array[:, 1:2]
            )  # (keys, probes)
            probed = (
                self._view[positions >> 3]
                >> (positions & 7).astype(_np.uint8)
            ) & 1
            return [bool(x) for x in probed.all(axis=1)]
        return [self._probe_one(pair) for pair in pairs]

    def _positions(self, h1, h2):
        """(keys, probes) uint64 array of probe bit positions from
        ``(keys, 1)`` uint64 columns of h1 and (odd) h2.

        uint64 arithmetic wraps mod 2^64 — exactly the ``& _MASK64`` in
        the python loop — so both backends probe identical bits.
        """
        i = _np.arange(self.num_probes, dtype=_np.uint64)
        return (h1 + i * h2) % _np.uint64(self.num_bits)

    # -- durable round-trip --------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the filter (bit array + probe parameters)."""
        return b"".join(
            (
                _BLOOM_MAGIC,
                self.num_bits.to_bytes(8, "big"),
                self.num_probes.to_bytes(1, "big"),
                self._count.to_bytes(8, "big"),
                bytes(self._bits),
            )
        )

    @classmethod
    def from_bytes(
        cls, payload: bytes, backend: str = "auto"
    ) -> "BloomFilter":
        """Inverse of :meth:`to_bytes` — no key re-hashing involved."""
        if payload[: len(_BLOOM_MAGIC)] != _BLOOM_MAGIC:
            raise KVStoreError("bad bloom filter magic/version")
        if len(payload) < _HEADER_LEN:
            raise KVStoreError("truncated bloom filter header")
        offset = len(_BLOOM_MAGIC)
        num_bits = int.from_bytes(payload[offset : offset + 8], "big")
        offset += 8
        num_probes = payload[offset]
        offset += 1
        count = int.from_bytes(payload[offset : offset + 8], "big")
        offset += 8
        bits = payload[offset:]
        if num_bits < 64 or not 1 <= num_probes <= 30:
            raise KVStoreError("corrupt bloom filter parameters")
        if len(bits) != (num_bits + 7) // 8:
            raise KVStoreError(
                f"bloom bit array is {len(bits)} bytes, "
                f"expected {(num_bits + 7) // 8} for {num_bits} bits"
            )
        bloom = cls.__new__(cls)
        bloom.num_bits = num_bits
        bloom.num_probes = num_probes
        bloom._bits = bytearray(bits)
        bloom._count = count
        bloom._init_backend(backend)
        return bloom

    def expected_false_positive_rate(self) -> float:
        """Theoretical FP rate for the current load."""
        if self._count == 0:
            return 0.0
        exponent = -self.num_probes * self._count / self.num_bits
        return (1.0 - math.exp(exponent)) ** self.num_probes

