"""Unit tests for the fixed-width ID renderings."""

import pytest

from repro.errors import ConfigurationError
from repro.idspace.encoding import id_to_bytes, id_to_hex, id_to_uuid_string


class TestEncoding:
    def test_width(self):
        assert len(id_to_bytes(0, 256)) == 1
        assert len(id_to_bytes(0, 257)) == 2
        assert len(id_to_bytes(0, 1 << 128)) == 16

    def test_bytes_roundtrip(self):
        for m in (100, 1 << 20, 1 << 128):
            for value in (0, 1, m - 1):
                assert int.from_bytes(id_to_bytes(value, m), "big") == value

    def test_hex_roundtrip(self):
        assert int(id_to_hex(0xDEAD, 1 << 32), 16) == 0xDEAD
        assert id_to_hex(0xDEAD, 1 << 32) == "0000dead"

    def test_uuid_string_roundtrip(self):
        value = (1 << 127) | 12345
        text = id_to_uuid_string(value)
        assert len(text) == 36 and text.count("-") == 4
        assert int(text.replace("-", ""), 16) == value

    def test_uuid_string_validation(self):
        with pytest.raises(ConfigurationError):
            id_to_uuid_string(1 << 128)
        with pytest.raises(ConfigurationError):
            id_to_uuid_string(-1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            id_to_bytes(100, 100)
        with pytest.raises(ConfigurationError):
            id_to_hex(-1, 100)
