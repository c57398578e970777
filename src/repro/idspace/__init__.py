"""Fixed-width renderings of integer IDs (hex and UUID-shaped)."""

from repro.idspace.encoding import id_to_bytes, id_to_hex, id_to_uuid_string

__all__ = ["id_to_bytes", "id_to_hex", "id_to_uuid_string"]
