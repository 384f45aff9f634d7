"""Unit tests for the canonical serialization format."""

import pytest

from repro.errors import SerializationError
from repro.hashing import Digest, sha256
from repro.serialization import decode, decode_stream, encode


class TestRoundTrip:
    @pytest.mark.parametrize("value", [
        None,
        True,
        False,
        0,
        1,
        -1,
        2**70,
        -(2**70),
        b"",
        b"\x00\xff" * 10,
        "",
        "héllo wörld",
        0.0,
        -2.5,
        1e300,
        [],
        [1, "two", b"three", None],
        {"a": 1, "nested": {"b": [True, 2.0]}},
    ])
    def test_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_digest_roundtrip(self):
        digest = sha256(b"payload")
        decoded = decode(encode(digest))
        assert isinstance(decoded, Digest)
        assert decoded == digest

    def test_tuple_decodes_as_list(self):
        assert decode(encode((1, 2))) == [1, 2]


class TestDeterminism:
    def test_dict_key_order_irrelevant(self):
        a = {"x": 1, "y": 2, "z": 3}
        b = {"z": 3, "x": 1, "y": 2}
        assert encode(a) == encode(b)

    def test_int_vs_float_distinct(self):
        assert encode(1) != encode(1.0)

    def test_bytes_vs_str_distinct(self):
        assert encode(b"ab") != encode("ab")

    def test_bool_vs_int_distinct(self):
        assert encode(True) != encode(1)
        assert decode(encode(True)) is True


class TestRejections:
    def test_non_string_dict_keys(self):
        with pytest.raises(SerializationError):
            encode({1: "x"})

    def test_unsupported_type(self):
        with pytest.raises(SerializationError):
            encode(object())

    def test_trailing_garbage(self):
        with pytest.raises(SerializationError):
            decode(encode(1) + b"\x00")

    def test_truncated_input(self):
        data = encode([1, 2, 3])
        with pytest.raises(SerializationError):
            decode(data[:-1])

    def test_unknown_tag(self):
        with pytest.raises(SerializationError):
            decode(b"\xfe")

    def test_noncanonical_dict_order_rejected(self):
        # Hand-craft a dict encoding with keys out of order.
        good = encode({"a": 1, "b": 2})
        a_entry = encode("a") + encode(1)
        b_entry = encode("b") + encode(2)
        swapped = good[:2] + b_entry + a_entry
        with pytest.raises(SerializationError):
            decode(swapped)

    def test_duplicate_dict_keys_rejected(self):
        good = encode({"a": 1})
        a_entry = encode("a") + encode(1)
        duplicated = good[0:1] + bytes([2]) + a_entry + a_entry
        with pytest.raises(SerializationError):
            decode(duplicated)

    @pytest.mark.parametrize("value", [
        "\ud800",
        ["ok", "\udcff"],
        {"\ud800": 1},
        {"key": "a\udfffb"},
    ], ids=["str", "list-item", "dict-key", "dict-value"])
    def test_unencodable_str_rejected(self, value):
        # Lone surrogates (what Python makes of undecodable argv bytes)
        # have no UTF-8 form.
        with pytest.raises(SerializationError, match="UTF-8"):
            encode(value)

    def test_invalid_utf8_rejected(self):
        bad = bytes([0x05, 0x01, 0xff])  # str, len 1, invalid byte
        with pytest.raises(SerializationError):
            decode(bad)


class TestStream:
    def test_decode_stream(self):
        data = encode(1) + encode("two") + encode([3])
        assert list(decode_stream(data)) == [1, "two", [3]]

    def test_empty_stream(self):
        assert list(decode_stream(b"")) == []
