"""Reference canonical codec: the test oracle for :mod:`repro.serialization`.

This is the straightforward codec the optimized one replaced — an
``isinstance``-chain encoder and a reader-object decoder that slices one
byte at a time.  It is kept here, outside the program, so the property
tests (``tests/property/test_hotpath_props.py``,
``tests/property/test_serialization_props.py``) can require that
:func:`repro.serialization.encode` emits the same bytes, and
:func:`repro.serialization.decode` returns the same values and raises the
same :class:`~repro.errors.SerializationError` messages, and so
``benchmarks/bench_zkvm_hotpath.py`` has a reference to time against.

One deliberate difference: encoding a ``str`` that is not valid UTF-8
(a lone surrogate, as Python makes of undecodable command-line bytes)
raises a bare ``UnicodeEncodeError`` here, where the program raises
``SerializationError``.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator

from repro.errors import SerializationError
from repro.hashing import DIGEST_SIZE, Digest

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_BYTES = 0x04
_TAG_STR = 0x05
_TAG_LIST = 0x06
_TAG_DICT = 0x07
_TAG_DIGEST = 0x08
_TAG_FLOAT = 0x09


def _zigzag_big(value: int) -> int:
    # Arbitrary-precision zigzag: non-negative -> 2n, negative -> -2n - 1.
    return value * 2 if value >= 0 else -value * 2 - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) if value % 2 == 0 else -((value + 1) >> 1)


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise SerializationError("varint must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _encode(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        _write_varint(out, _zigzag_big(value))
    elif isinstance(value, Digest):
        out.append(_TAG_DIGEST)
        out.extend(value.raw)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out.append(_TAG_BYTES)
        _write_varint(out, len(data))
        out.extend(data)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(_TAG_STR)
        _write_varint(out, len(data))
        out.extend(data)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.extend(struct.pack(">d", value))
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        _write_varint(out, len(value))
        for item in value:
            _encode(out, item)
    elif isinstance(value, dict):
        keys = list(value.keys())
        if not all(isinstance(k, str) for k in keys):
            raise SerializationError("dict keys must be str for canonical "
                                     "encoding")
        out.append(_TAG_DICT)
        _write_varint(out, len(keys))
        for key in sorted(keys):
            _encode(out, key)
            _encode(out, value[key])
    else:
        raise SerializationError(
            f"cannot canonically encode {type(value).__name__}"
        )


def encode(value: Any) -> bytes:
    """Canonically encode ``value`` to bytes."""
    out = bytearray()
    _encode(out, value)
    return bytes(out)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise SerializationError("truncated input")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def byte(self) -> int:
        return self.take(1)[0]

    def varint(self) -> int:
        shift = 0
        result = 0
        while True:
            byte = self.byte()
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 1024:
                raise SerializationError("varint too long")


def _decode(reader: _Reader) -> Any:
    tag = reader.byte()
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_INT:
        return _unzigzag(reader.varint())
    if tag == _TAG_BYTES:
        return reader.take(reader.varint())
    if tag == _TAG_STR:
        raw = reader.take(reader.varint())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError("invalid UTF-8 in string") from exc
    if tag == _TAG_FLOAT:
        return struct.unpack(">d", reader.take(8))[0]
    if tag == _TAG_LIST:
        count = reader.varint()
        return [_decode(reader) for _ in range(count)]
    if tag == _TAG_DICT:
        count = reader.varint()
        result = {}
        prev_key: str | None = None
        for _ in range(count):
            key = _decode(reader)
            if not isinstance(key, str):
                raise SerializationError("dict key must decode to str")
            if prev_key is not None and key <= prev_key:
                raise SerializationError("dict keys not in canonical order")
            prev_key = key
            result[key] = _decode(reader)
        return result
    if tag == _TAG_DIGEST:
        return Digest(reader.take(DIGEST_SIZE))
    raise SerializationError(f"unknown type tag 0x{tag:02x}")


def decode(data: bytes) -> Any:
    """Decode a canonically encoded value, rejecting trailing garbage."""
    if not isinstance(data, bytes):
        data = bytes(data)
    reader = _Reader(data)
    value = _decode(reader)
    if reader.pos != len(data):
        raise SerializationError(
            f"{len(data) - reader.pos} trailing bytes after value"
        )
    return value


def decode_stream(data: bytes) -> Iterator[Any]:
    """Decode a back-to-back concatenation of encoded values."""
    if not isinstance(data, bytes):
        data = bytes(data)
    reader = _Reader(data)
    while reader.pos < len(data):
        yield _decode(reader)
