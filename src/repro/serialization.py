"""Canonical, deterministic byte serialization.

Anything that gets hashed or committed in this system must serialize the
same way on every machine and every run, so we define a small canonical
encoding instead of relying on ``pickle`` (non-deterministic, unsafe) or
``json`` (no bytes, float ambiguity).  The format is a type-tagged binary
encoding:

===========  ===========================================================
tag byte     payload
===========  ===========================================================
``0x00``     ``None``
``0x01``     ``False``
``0x02``     ``True``
``0x03``     int — zigzag LEB128 varint
``0x04``     bytes — varint length + raw bytes
``0x05``     str — varint length + UTF-8 bytes
``0x06``     list/tuple — varint count + encoded items
``0x07``     dict — varint count + (str key, value) pairs in sorted order
``0x08``     :class:`~repro.hashing.Digest` — 32 raw bytes
``0x09``     float — 8-byte IEEE-754 big-endian
===========  ===========================================================

Dictionaries are encoded with keys sorted lexicographically so two
semantically equal dicts always hash identically.

Every record, CLog entry and witness op crosses this codec on the
measured clock, so both directions take one fast path for every caller:

* **Encoding** dispatches on the exact ``type(value)`` through a table;
  any other type (``IntEnum``, namedtuples, ``str``/``dict`` subclasses)
  goes through an ``isinstance`` chain in the format's order — ``bool``
  before ``int`` — so it emits the same bytes.  A dict is written from a
  *plan* cached per key tuple: its keys checked, sorted and pre-encoded
  once.  The plan cache is bounded, so dicts with data-dependent keys
  cannot grow it.  A ``str`` that is not encodable as UTF-8 raises
  :class:`~repro.errors.SerializationError`.
* **Decoding** is one index-based walk with the varint loops inlined for
  dict keys and int values.  Before it, :func:`decode` tries the
  *layouts* declared with :func:`register_layout` (the CLog payload and
  the scan frame, in :mod:`repro.core.clog`): a layout is one compiled
  pattern over the whole canonical encoding of a dict with fixed keys,
  and only its varint groups are converted.  A layout that does not
  match exactly — another tag, a non-minimal length, a short buffer —
  returns nothing, never raises, and the general walk runs instead.
  The general walk defines every decoded value and every error.
"""

from __future__ import annotations

import re
import struct
from typing import Any, Iterator, Mapping

from .errors import SerializationError
from .hashing import DIGEST_SIZE, Digest

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

_TRUNCATED = "truncated input"
_pack_double = struct.Struct(">d").pack
_unpack_double = struct.Struct(">d").unpack_from


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

# Varints below _SMALL (one or two bytes) come from tables: lengths and
# counts as bare varints, ints (zigzagged) with their tag in front.
_SMALL = 1 << 10
_VARINT = tuple([bytes((n,)) for n in range(0x80)]
                + [bytes((n & 0x7F | 0x80, n >> 7))
                   for n in range(0x80, _SMALL)])
_SMALL_INT = tuple([bytes((_TAG_INT,)) + v for v in _VARINT])


def _put_varint(out: bytearray, value: int) -> None:
    if value < _SMALL:
        out += _VARINT[value]
        return
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _put_int(out: bytearray, value: int) -> None:
    zigzag = value * 2 if value >= 0 else -value * 2 - 1
    if zigzag < _SMALL:
        out += _SMALL_INT[zigzag]
    else:
        out.append(_TAG_INT)
        _put_varint(out, zigzag)


def _put_str(out: bytearray, value: str) -> None:
    try:
        data = value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SerializationError(
            f"cannot encode str as UTF-8: {exc.reason}") from None
    out.append(_TAG_STR)
    _put_varint(out, len(data))
    out += data


def _put_bytes(out: bytearray, value: Any) -> None:
    data = bytes(value)
    out.append(_TAG_BYTES)
    _put_varint(out, len(data))
    out += data


def _put_digest(out: bytearray, value: Digest) -> None:
    out.append(_TAG_DIGEST)
    out += value.raw


def _put_float(out: bytearray, value: float) -> None:
    out.append(_TAG_FLOAT)
    out += _pack_double(value)


def _put_list(out: bytearray, value: Any) -> None:
    out.append(_TAG_LIST)
    _put_varint(out, len(value))
    table = _PUT
    for item in value:
        cls = type(item)
        if cls is int:
            _put_int(out, item)
        else:
            table.get(cls, _put_other)(out, item)


# A dict plan: the tag-and-count header, then (key, encoded key) in
# canonical order.  Cached per key tuple (insertion order) while every
# key is an exact str; cleared when full.
_PLAN_LIMIT = 512
_PLANS: dict[tuple, tuple[bytes, tuple[tuple[str, bytes], ...]]] = {}


def _plan(keys: tuple) -> tuple[bytes, tuple[tuple[str, bytes], ...]]:
    if not all(isinstance(k, str) for k in keys):
        raise SerializationError("dict keys must be str for canonical "
                                 "encoding")
    header = bytearray((_TAG_DICT,))
    _put_varint(header, len(keys))
    items = []
    for key in sorted(keys):
        encoded = bytearray()
        _put_str(encoded, key)
        items.append((key, bytes(encoded)))
    plan = (bytes(header), tuple(items))
    if all(type(k) is str for k in keys):
        if len(_PLANS) >= _PLAN_LIMIT:
            _PLANS.clear()
        _PLANS[keys] = plan
    return plan


def _put_dict(out: bytearray, value: Any, keys: tuple) -> None:
    plan = _PLANS.get(keys)
    if plan is None:
        plan = _plan(keys)
    header, items = plan
    out += header
    table = _PUT
    for key, encoded in items:
        out += encoded
        item = value[key]
        cls = type(item)
        if cls is int:
            zigzag = item * 2 if item >= 0 else -item * 2 - 1
            if zigzag < _SMALL:
                out += _SMALL_INT[zigzag]
            else:
                out.append(_TAG_INT)
                _put_varint(out, zigzag)
        else:
            table.get(cls, _put_other)(out, item)


def _put_other(out: bytearray, value: Any) -> None:
    """Types outside the table, tested in the format's order."""
    if value is None:
        out.append(_TAG_NONE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif isinstance(value, int):
        _put_int(out, value)
    elif isinstance(value, Digest):
        _put_digest(out, value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        _put_bytes(out, value)
    elif isinstance(value, str):
        _put_str(out, value)
    elif isinstance(value, float):
        _put_float(out, value)
    elif isinstance(value, (list, tuple)):
        _put_list(out, value)
    elif isinstance(value, dict):
        _put_dict(out, value, tuple(value.keys()))
    else:
        raise SerializationError(
            f"cannot canonically encode {type(value).__name__}"
        )


_PUT = {
    type(None): lambda out, value: out.append(_TAG_NONE),
    bool: lambda out, value: out.append(_TAG_TRUE if value
                                        else _TAG_FALSE),
    int: _put_int,
    str: _put_str,
    bytes: _put_bytes,
    bytearray: _put_bytes,
    memoryview: _put_bytes,
    Digest: _put_digest,
    float: _put_float,
    list: _put_list,
    tuple: _put_list,
    dict: lambda out, value: _put_dict(out, value, tuple(value)),
}


def encode(value: Any) -> bytes:
    """Canonically encode ``value`` to bytes."""
    out = bytearray()
    _PUT.get(type(value), _put_other)(out, value)
    return bytes(out)


# ---------------------------------------------------------------------------
# Decoding: the general walk
# ---------------------------------------------------------------------------
# Reads index into the buffer; a read past its end raises IndexError,
# which decode() and decode_stream() turn into "truncated input" at the
# same point the format says the input ends.  Slices do not raise, so
# every slice is bounds-checked.


def _varint(data: bytes, pos: int) -> tuple[int, int]:
    result = data[pos]
    pos += 1
    if result < 0x80:
        return result, pos
    result &= 0x7F
    shift = 7
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7
        if shift > 1024:
            raise SerializationError("varint too long")


def _walk(data: bytes, pos: int) -> tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == _TAG_INT:
        raw, pos = _varint(data, pos)
        return (raw >> 1) ^ -(raw & 1), pos
    if tag == _TAG_STR:
        length, pos = _varint(data, pos)
        stop = pos + length
        if stop > len(data):
            raise SerializationError(_TRUNCATED)
        try:
            return data[pos:stop].decode("utf-8"), stop
        except UnicodeDecodeError as exc:
            raise SerializationError("invalid UTF-8 in string") from exc
    if tag == _TAG_DICT:
        return _walk_dict(data, pos)
    if tag == _TAG_LIST:
        count, pos = _varint(data, pos)
        items = []
        append = items.append
        for _ in range(count):
            item, pos = _walk(data, pos)
            append(item)
        return items, pos
    if tag == _TAG_BYTES:
        length, pos = _varint(data, pos)
        stop = pos + length
        if stop > len(data):
            raise SerializationError(_TRUNCATED)
        return data[pos:stop], stop
    if tag == _TAG_DIGEST:
        stop = pos + DIGEST_SIZE
        if stop > len(data):
            raise SerializationError(_TRUNCATED)
        return Digest(data[pos:stop]), stop
    if tag == _TAG_FLOAT:
        if pos + 8 > len(data):
            raise SerializationError(_TRUNCATED)
        return _unpack_double(data, pos)[0], pos + 8
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_TRUE:
        return True, pos
    raise SerializationError(f"unknown type tag 0x{tag:02x}")


def _walk_dict(data: bytes, pos: int) -> tuple[dict, int]:
    count, pos = _varint(data, pos)
    end = len(data)
    result = {}
    prev_key = None
    for _ in range(count):
        if data[pos] == _TAG_STR:
            length = data[pos + 1]
            pos += 2
            if length >= 0x80:  # a key of 128 bytes or more
                length, pos = _varint(data, pos - 1)
            stop = pos + length
            if stop > end:
                raise SerializationError(_TRUNCATED)
            try:
                key = data[pos:stop].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SerializationError(
                    "invalid UTF-8 in string") from exc
            pos = stop
        else:
            # Decoded in full first: its own errors come before this one.
            _, pos = _walk(data, pos)
            raise SerializationError("dict key must decode to str")
        if prev_key is not None and key <= prev_key:
            raise SerializationError("dict keys not in canonical order")
        prev_key = key
        if data[pos] == _TAG_INT:
            raw = data[pos + 1]
            pos += 2
            if raw >= 0x80:
                raw &= 0x7F
                shift = 7
                while True:
                    byte = data[pos]
                    pos += 1
                    raw |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
                    if shift > 1024:
                        raise SerializationError("varint too long")
            result[key] = (raw >> 1) ^ -(raw & 1)
        else:
            result[key], pos = _walk(data, pos)
    return result, pos


# ---------------------------------------------------------------------------
# Decoding: layout fast paths
# ---------------------------------------------------------------------------

# A varint group the fast path converts: at most ten bytes (70 bits).
_VARINT_GROUP = rb"([\x80-\xff]{0,9}[\x00-\x7f])"

# Layout field kinds.
_INT, _BLOB, _STRS, _FIXED = range(4)


def _group_value(group: bytes) -> int:
    result = 0
    shift = 0
    for byte in group:
        result |= (byte & 0x7F) << shift
        shift += 7
    return result


def _str_items(body: bytes, count: int) -> list[str] | None:
    """A list body of ``count`` short strs, or None on any mismatch."""
    items = []
    pos = 0
    end = len(body)
    for _ in range(count):
        if pos + 2 > end or body[pos] != _TAG_STR or body[pos + 1] >= 0x80:
            return None
        stop = pos + 2 + body[pos + 1]
        if stop > end:
            return None
        try:
            items.append(body[pos + 2:stop].decode("utf-8"))
        except UnicodeDecodeError:
            return None
        pos = stop
    return items if pos == end else None


class _Layout:
    """A dict with fixed str keys, matched by one compiled pattern.

    Each field is an int (tag and varint group), a fixed-size bytes
    value, or one *open* field — bytes of any length or a list of strs —
    whose body the pattern leaves open and :meth:`match` checks against
    its length or count.  One open field at most: the pattern then has a
    single unbounded group, so a failed match costs linear time even on
    hostile input, and an accepted match is exactly the general walk's
    parse.
    """

    __slots__ = ("fields", "_pattern")

    def __init__(self, fields: Mapping[str, Any]) -> None:
        steps = []
        for key in sorted(fields):
            kind = fields[key]
            if kind is int:
                steps.append((key, _INT, 0))
            elif kind is bytes:
                steps.append((key, _BLOB, 0))
            elif kind == list[str]:
                steps.append((key, _STRS, 0))
            elif type(kind) is int and kind >= 0:
                steps.append((key, _FIXED, kind))
            else:
                raise ValueError(f"layout field {key!r}: unsupported kind "
                                 f"{kind!r}")
        if sum(kind in (_BLOB, _STRS) for _, kind, _ in steps) > 1:
            raise ValueError("a layout has at most one open field")
        if len(steps) >= 0x80:
            raise ValueError("a layout has at most 127 fields")
        self.fields = tuple(steps)
        self._pattern: re.Pattern[bytes] | None = None

    def _compile(self) -> re.Pattern[bytes]:
        parts = [re.escape(bytes((_TAG_DICT, len(self.fields))))]
        for key, kind, size in self.fields:
            literal = bytearray()
            _put_str(literal, key)
            if kind == _INT:
                literal.append(_TAG_INT)
                tail = _VARINT_GROUP
            elif kind == _FIXED:
                literal.append(_TAG_BYTES)
                _put_varint(literal, size)
                tail = b"(.{%d})" % size
            else:
                literal.append(_TAG_BYTES if kind == _BLOB else _TAG_LIST)
                tail = _VARINT_GROUP + rb"(.*)"
            parts.append(re.escape(bytes(literal)) + tail)
        return re.compile(b"".join(parts), re.DOTALL)

    def match(self, data: bytes) -> dict | None:
        """The decoded dict, or None; never raises."""
        pattern = self._pattern
        if pattern is None:
            pattern = self._pattern = self._compile()
        found = pattern.fullmatch(data)
        if found is None:
            return None
        groups = found.groups()
        result = {}
        index = 0
        for key, kind, _ in self.fields:
            group = groups[index]
            index += 1
            if kind == _FIXED:
                result[key] = group
                continue
            raw = group[0] if len(group) == 1 else _group_value(group)
            if kind == _INT:
                result[key] = (raw >> 1) ^ -(raw & 1)
                continue
            body = groups[index]
            index += 1
            if kind == _BLOB:
                if len(body) != raw:
                    return None
                result[key] = body
            else:
                items = _str_items(body, raw)
                if items is None:
                    return None
                result[key] = items
        return result


# Registered layouts, by their first two bytes (dict tag and key count).
_LAYOUTS: dict[bytes, _Layout] = {}


def register_layout(fields: Mapping[str, Any]) -> None:
    """Declare a hot dict shape for :func:`decode` to match directly.

    ``fields`` maps each key to ``int``, ``bytes``, ``list[str]`` or a
    size ``n`` for bytes of exactly that length; at most one field may be
    ``bytes`` or ``list[str]``.  There is one layout per field count: a
    later one replaces an earlier one.  The pattern is compiled on first
    use.  Declaring a layout changes no decoded value and no error: a
    dict that does not match it exactly is decoded by the general walk.
    """
    layout = _Layout(fields)
    prefix = bytes((_TAG_DICT, len(layout.fields)))
    _LAYOUTS[prefix] = layout


def decode(data: bytes) -> Any:
    """Decode a canonically encoded value, rejecting trailing garbage."""
    if not isinstance(data, bytes):
        data = bytes(data)
    layout = _LAYOUTS.get(data[:2])
    if layout is not None:
        value = layout.match(data)
        if value is not None:
            return value
    try:
        value, pos = _walk(data, 0)
    except IndexError:
        raise SerializationError(_TRUNCATED) from None
    if pos != len(data):
        raise SerializationError(
            f"{len(data) - pos} trailing bytes after value"
        )
    return value


def decode_stream(data: bytes) -> Iterator[Any]:
    """Decode a back-to-back concatenation of encoded values."""
    if not isinstance(data, bytes):
        data = bytes(data)
    pos = 0
    while pos < len(data):
        try:
            value, pos = _walk(data, pos)
        except IndexError:
            raise SerializationError(_TRUNCATED) from None
        yield value


# ---------------------------------------------------------------------------
# Typed wire codecs
# ---------------------------------------------------------------------------
# Canonical byte forms for the structures that cross the network
# boundary (repro.net).  Imports are local: the domain modules import
# this one for the primitive codec.  Shape errors from hostile bytes
# (missing keys, wrong types) surface as SerializationError, never as
# bare KeyError/TypeError.


def _decode_wire_dict(data: bytes, what: str) -> dict:
    wire = decode(data)
    if not isinstance(wire, dict):
        raise SerializationError(
            f"{what} encoding must be a dict, got "
            f"{type(wire).__name__}")
    return wire


def encode_commitment(commitment: Any) -> bytes:
    """Canonical bytes for a :class:`~repro.commitments.Commitment`."""
    return encode(commitment.to_wire())


def decode_commitment(data: bytes) -> Any:
    from .commitments import Commitment
    wire = _decode_wire_dict(data, "commitment")
    try:
        return Commitment.from_wire(wire)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed commitment: {exc}") from exc


def encode_receipt(receipt: Any) -> bytes:
    """Canonical bytes for a :class:`~repro.zkvm.Receipt` (equal to
    ``receipt.to_bytes()``; provided here so wire code has one
    codec module for every shipped structure)."""
    return encode(receipt.to_wire())


def decode_receipt(data: bytes) -> Any:
    from .zkvm import Receipt
    wire = _decode_wire_dict(data, "receipt")
    try:
        return Receipt.from_wire(wire)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed receipt: {exc}") from exc


def query_response_to_wire(response: Any) -> dict[str, Any]:
    """Wire dict for a :class:`~repro.core.query_proof.QueryResponse`.

    Field-for-field, with the receipt nested in its own wire form and
    tuples lowered to lists (the canonical codec's sequence type).
    """
    return {
        "sql": response.sql,
        "labels": list(response.labels),
        "values": list(response.values),
        "matched": response.matched,
        "scanned": response.scanned,
        "round": response.round,
        "root": response.root,
        "receipt": response.receipt.to_wire(),
        "group_by": response.group_by,
        "groups": [[key, list(values)]
                   for key, values in response.groups],
    }


def query_response_from_wire(wire: dict[str, Any]) -> Any:
    from .core.query_proof import QueryResponse
    from .zkvm import Receipt
    try:
        return QueryResponse(
            sql=wire["sql"],
            labels=tuple(wire["labels"]),
            values=tuple(wire["values"]),
            matched=wire["matched"],
            scanned=wire["scanned"],
            round=wire["round"],
            root=wire["root"],
            receipt=Receipt.from_wire(wire["receipt"]),
            group_by=wire["group_by"],
            groups=tuple((key, tuple(values))
                         for key, values in wire["groups"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"malformed query response: {exc}") from exc


def encode_query_response(response: Any) -> bytes:
    return encode(query_response_to_wire(response))


def decode_query_response(data: bytes) -> Any:
    return query_response_from_wire(
        _decode_wire_dict(data, "query response"))
