"""Fixed-width renderings of ``[m]`` IDs.

The paper's IDs are abstract integers; real systems render them as
fixed-width hex blobs or RFC-4122-shaped strings. ``uuidp generate
--hex`` prints :func:`id_to_hex`, and the quickstart example prints
:func:`id_to_uuid_string`.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def id_to_bytes(value: int, m: int) -> bytes:
    """Big-endian bytes of an ID, in the fewest whole bytes any ID of
    ``range(m)`` fits."""
    if not 0 <= value < m:
        raise ConfigurationError(f"id {value} outside universe [0, {m})")
    return value.to_bytes(max(1, ((m - 1).bit_length() + 7) // 8), "big")


def id_to_hex(value: int, m: int) -> str:
    """Fixed-width lowercase hex (the RocksDB cache-key style)."""
    return id_to_bytes(value, m).hex()


def id_to_uuid_string(value: int) -> str:
    """Render a 128-bit ID in the 8-4-4-4-12 RFC-4122 layout.

    Purely cosmetic: no version/variant bits are forced, because the
    paper's point is that such metadata carries no collision guarantee.
    """
    if not 0 <= value < 1 << 128:
        raise ConfigurationError("uuid rendering needs a 128-bit value")
    raw = f"{value:032x}"
    return f"{raw[:8]}-{raw[8:12]}-{raw[12:16]}-{raw[16:20]}-{raw[20:]}"
