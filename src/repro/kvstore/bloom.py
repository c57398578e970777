"""Bloom filter for SST point lookups.

Standard Bloom filter with the Kirsch–Mitzenmacher double-hashing
scheme: two independent 64-bit hashes ``h1, h2`` derived from
``blake2b`` simulate ``k`` hash functions as ``h1 + i·h2`` (mod 2^64).
This is the same construction RocksDB's full-filter blocks use.

A filter is built one way and probed one way:

* :meth:`BloomFilter.add_all` is the SST builder's path, run once per
  key on every flush and compaction output. With numpy installed and
  a batch of at least ``_BATCH_CUTOVER`` keys it hashes the whole
  batch into one packed buffer of 16-byte blake2b digests, reads
  ``(h1, h2)`` straight out of it with ``np.frombuffer("<u8")`` — no
  per-key Python ints or tuples — and sets every probed bit through
  one boolean mask packed little-endian onto the bit array. Otherwise
  it loops :meth:`BloomFilter.add`; both set exactly the same bits.
* A point lookup hashes its key once (:func:`hash_pair`) and probes
  each candidate SST's filter with
  :meth:`BloomFilter.may_contain_hash`, a scalar loop: a one-row
  numpy dispatch costs more than ~7 probe iterations.

The bit array serializes via :meth:`to_bytes`/:meth:`from_bytes` so an
SST reopen restores the filter without re-hashing every key.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Tuple

from repro.errors import ConfigurationError, KVStoreError

try:  # soft dependency: add_all degrades to looped add
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free hosts
    _np = None

_MASK64 = (1 << 64) - 1

#: Magic + version prefix of :meth:`BloomFilter.to_bytes`.
_BLOOM_MAGIC = b"BF\x01"
_HEADER_LEN = len(_BLOOM_MAGIC) + 8 + 1 + 8  # + num_bits, probes, count


def numpy_available() -> bool:
    """Does :meth:`BloomFilter.add_all` build with numpy on this host?"""
    return _np is not None


def hash_pair(key: bytes) -> Tuple[int, int]:
    """The Kirsch–Mitzenmacher (h1, h2) pair of one key."""
    digest = hashlib.blake2b(key, digest_size=16).digest()
    return (
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:], "little") | 1,  # odd => full cycle
    )


#: Below this many keys the numpy build loses to per-call numpy
#: overhead (array building + ufunc dispatch); measured crossover on
#: CPython 3.11 sits near a dozen keys.
_BATCH_CUTOVER = 8


class BloomFilter:
    """Fixed-size bit array sized from bits-per-key at build time."""

    def __init__(self, num_keys: int, bits_per_key: int):
        if num_keys < 0:
            raise ConfigurationError("num_keys must be >= 0")
        if bits_per_key < 1:
            raise ConfigurationError("bits_per_key must be >= 1")
        self.num_bits = max(64, num_keys * bits_per_key)
        # Optimal k = ln2 * bits/key, clamped to [1, 30] like RocksDB.
        self.num_probes = min(30, max(1, round(0.69 * bits_per_key)))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self._count = 0

    @property
    def count(self) -> int:
        """Number of keys added."""
        return self._count

    def add(self, key: bytes) -> None:
        """Insert ``key`` into the filter."""
        h1, h2 = hash_pair(key)
        bits = self._bits
        num_bits = self.num_bits
        for i in range(self.num_probes):
            bit = ((h1 + i * h2) & _MASK64) % num_bits
            bits[bit >> 3] |= 1 << (bit & 7)
        self._count += 1

    def may_contain(self, key: bytes) -> bool:
        """False ⇒ definitely absent; True ⇒ probably present."""
        return self.may_contain_hash(hash_pair(key))

    def may_contain_hash(self, pair: Tuple[int, int]) -> bool:
        """Probe with a precomputed (h1, h2) pair.

        Point lookups hash the key once and probe every candidate
        SST's filter with this.
        """
        h1, h2 = pair
        bits = self._bits
        num_bits = self.num_bits
        for i in range(self.num_probes):
            bit = ((h1 + i * h2) & _MASK64) % num_bits
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

    def add_all(self, keys: Iterable[bytes]) -> None:
        """Insert every key from ``keys`` (one numpy batch when numpy
        is installed and the batch is large enough)."""
        keys = list(keys)
        if _np is None or len(keys) < _BATCH_CUTOVER:
            for key in keys:
                self.add(key)
            return
        blake2b = hashlib.blake2b
        digests = _np.frombuffer(
            b"".join([blake2b(key, digest_size=16).digest() for key in keys]),
            dtype="<u8",
        ).reshape(-1, 2)
        # (keys, probes) bit positions. uint64 arithmetic wraps mod
        # 2^64 — exactly the ``& _MASK64`` in :meth:`add` — so both
        # paths set identical bits.
        probe = _np.arange(self.num_probes, dtype=_np.uint64)
        positions = (
            digests[:, 0:1] + probe * (digests[:, 1:2] | _np.uint64(1))
        ) % _np.uint64(self.num_bits)
        probed = _np.zeros(self.num_bits, dtype=bool)
        probed[positions.ravel()] = True
        # A writable uint8 view aliasing ``self._bits``.
        view = _np.frombuffer(self._bits, dtype=_np.uint8)
        view |= _np.packbits(probed, bitorder="little")
        self._count += len(keys)

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
    def from_bytes(cls, payload: bytes) -> "BloomFilter":
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
        return bloom
