"""Property tests: canonical serialization invariants."""

from collections import OrderedDict, namedtuple
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.clog  # noqa: F401  (declares the CLog layouts)
from repro import serialization
from repro.errors import SerializationError
from repro.hashing import Digest
from repro.serialization import decode, encode

from .. import codec_oracle as oracle


def digests():
    return st.binary(min_size=32, max_size=32).map(Digest)


def values(max_leaves: int = 30):
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**100), max_value=2**100),
        st.binary(max_size=64),
        st.text(max_size=32),
        st.floats(allow_nan=False),
        digests(),
    )
    return st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=6),
            st.dictionaries(st.text(max_size=8), children, max_size=6),
        ),
        max_leaves=max_leaves,
    )


class TestRoundTrip:
    @given(values())
    @settings(max_examples=300)
    def test_decode_inverts_encode(self, value):
        assert decode(encode(value)) == value

    @given(values())
    def test_encoding_deterministic(self, value):
        assert encode(value) == encode(value)

    @given(st.dictionaries(st.text(max_size=6),
                           st.integers(), max_size=8))
    def test_dict_insertion_order_irrelevant(self, mapping):
        reversed_insertion = dict(reversed(list(mapping.items())))
        assert encode(mapping) == encode(reversed_insertion)


class TestInjectivity:
    @given(values(max_leaves=10), values(max_leaves=10))
    @settings(max_examples=300)
    def test_distinct_values_distinct_encodings(self, a, b):
        if encode(a) == encode(b):
            assert a == b

    @given(st.lists(values(max_leaves=5), max_size=5))
    def test_concatenation_framing_unambiguous(self, items):
        from repro.serialization import decode_stream
        stream = b"".join(encode(item) for item in items)
        assert list(decode_stream(stream)) == items


# -- the codec against the reference codec -----------------------------------
#
# decode() matches the CLog payload and the scan frame by layout before it
# falls back to the general walk; encode() writes dicts from cached plans.
# Both must agree with tests/codec_oracle.py byte for byte, value for
# value and error message for error message, on canonical encodings and on
# every mutation of them.

# A few multi-byte characters, and runs long enough for a str of 128
# UTF-8 bytes or more (a two-byte length varint).
_router_names = st.one_of(
    st.text(max_size=6),
    st.builds(lambda char, n: char * n,
              st.sampled_from(["r", "é", "€", "𝄞"]),
              st.integers(30, 70)),
)
_wire_ints = st.one_of(st.integers(0, 300),
                       st.integers(-(2**70), 2**70))


def clog_wires():
    """Wire dicts in the shape ``CLogEntry.to_wire`` emits (and, through
    the key size, a few that miss the layout)."""
    return st.fixed_dictionaries({
        "key": st.binary(min_size=12, max_size=14),
        "packets": _wire_ints,
        "octets": _wire_ints,
        "lost_packets": _wire_ints,
        "hop_count": _wire_ints,
        "first_ms": _wire_ints,
        "last_ms": _wire_ints,
        "rtt_sum_us": _wire_ints,
        "jitter_sum_us": _wire_ints,
        "record_count": _wire_ints,
        "routers": st.lists(_router_names, max_size=4),
    })


def scan_frames():
    """``{"key", "payload"}`` frames as ``CLogState.leaf_rows`` builds."""
    payloads = st.one_of(st.binary(max_size=300),
                         clog_wires().map(oracle.encode))
    return st.fixed_dictionaries({
        "key": st.binary(min_size=12, max_size=14),
        "payload": payloads,
    })


def _outcome(decoder, data):
    try:
        return ("ok", decoder(data))
    except SerializationError as exc:
        return ("err", str(exc))


def _assert_agrees(data):
    got = _outcome(decode, data)
    want = _outcome(oracle.decode, data)
    assert got == want
    if got[0] == "ok":
        # Same insertion order too: callers iterate decoded dicts.
        assert repr(got[1]) == repr(want[1])


def _varint(value, pad=0):
    """LEB128 with ``pad`` redundant bytes (a non-minimal encoding)."""
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    for _ in range(pad):
        out[-1] |= 0x80
        out.append(0)
    return bytes(out)


def _loose(value, pads, shifts=None):
    """Canonical bytes for ``value`` except that the i-th varint written
    (counts, lengths and ints alike, in emission order) carries
    ``pads.get(i, 0)`` redundant bytes and is off by ``shifts.get(i, 0)``
    (kept non-negative)."""
    shifts = shifts or {}
    out = bytearray()
    index = 0

    def varint(n):
        nonlocal index
        n = max(0, n + shifts.get(index, 0))
        out.extend(_varint(n, pads.get(index, 0)))
        index += 1

    def walk(item):  # the types of the hot shapes
        if isinstance(item, int):
            out.append(0x03)
            varint(item * 2 if item >= 0 else -item * 2 - 1)
        elif isinstance(item, bytes):
            out.append(0x04)
            varint(len(item))
            out.extend(item)
        elif isinstance(item, str):
            raw = item.encode("utf-8")
            out.append(0x05)
            varint(len(raw))
            out.extend(raw)
        elif isinstance(item, list):
            out.append(0x06)
            varint(len(item))
            for child in item:
                walk(child)
        else:
            out.append(0x07)
            varint(len(item))
            for key in sorted(item):
                walk(key)
                walk(item[key])

    walk(value)
    return bytes(out), index


def _layout_for(data):
    layout = serialization._LAYOUTS.get(data[:2])
    return [] if layout is None else [layout]


hot_shapes = st.one_of(clog_wires(), scan_frames())


class TestLayoutFastPaths:
    @given(hot_shapes)
    @settings(max_examples=150)
    def test_canonical_encodings_decode_like_the_oracle(self, wire):
        data = oracle.encode(wire)
        _assert_agrees(data)
        assert decode(data) == wire

    def test_hot_shapes_take_a_layout(self):
        # Each declared layout accepts its canonical encoding outright
        # (a layout that never matched would leave these tests blind).
        frame = {"key": bytes(13), "payload": b"\x00"}
        wire = {"key": bytes(range(13)), "packets": 1, "octets": 2,
                "lost_packets": 3, "hop_count": 4, "first_ms": 5,
                "last_ms": 6, "rtt_sum_us": 7, "jitter_sum_us": 8,
                "record_count": 9, "routers": ["r1", "r2"]}
        for value in (frame, wire):
            data = oracle.encode(value)
            matched = [layout.match(data) for layout in _layout_for(data)]
            assert value in matched

    @given(hot_shapes)
    @settings(max_examples=60)
    def test_every_truncation(self, wire):
        data = oracle.encode(wire)
        for end in range(len(data)):
            _assert_agrees(data[:end])

    @given(hot_shapes, st.data())
    @settings(max_examples=100)
    def test_single_byte_flips(self, wire, draw):
        data = oracle.encode(wire)
        for _ in range(8):
            pos = draw.draw(st.integers(0, len(data) - 1))
            byte = draw.draw(st.integers(0, 255))
            _assert_agrees(data[:pos] + bytes([byte]) + data[pos + 1:])

    @given(hot_shapes, st.data())
    @settings(max_examples=100)
    def test_non_minimal_varints(self, wire, draw):
        _, count = _loose(wire, {})
        index = draw.draw(st.integers(0, count - 1))
        pad = draw.draw(st.integers(1, 3))
        data, _ = _loose(wire, {index: pad})
        assert data != oracle.encode(wire)
        _assert_agrees(data)

    @given(hot_shapes)
    @settings(max_examples=60)
    def test_counts_and_lengths_off_by_one(self, wire):
        # Every count, length and int, one at a time, one up and one
        # down: bodies that end early or run on past their declared
        # size.
        _, count = _loose(wire, {})
        for index in range(count):
            for shift in (-1, 1):
                data, _ = _loose(wire, {}, {index: shift})
                _assert_agrees(data)

    @given(hot_shapes, st.data())
    @settings(max_examples=100)
    def test_swapped_keys(self, wire, draw):
        # Re-assemble the dict with two adjacent (key, value) pairs
        # exchanged: keys out of canonical order.
        pairs = [oracle.encode(key) + oracle.encode(wire[key])
                 for key in sorted(wire)]
        i = draw.draw(st.integers(0, len(pairs) - 2))
        pairs[i], pairs[i + 1] = pairs[i + 1], pairs[i]
        header = bytes([0x07, len(pairs)])
        _assert_agrees(header + b"".join(pairs))

    @given(hot_shapes, st.binary(min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_trailing_bytes(self, wire, tail):
        _assert_agrees(oracle.encode(wire) + tail)

    @given(st.binary(max_size=40))
    @settings(max_examples=200)
    def test_layout_prefixed_garbage(self, tail):
        for prefix in (b"\x07\x02\x05\x03key\x04",
                       b"\x07\x0b\x05\x08first_ms\x03"):
            data = prefix + tail
            for layout in _layout_for(data):
                layout.match(data)  # never raises
            _assert_agrees(data)


class _Colour(IntEnum):
    RED = 1
    DEEP = 2**70


class _Label(str):
    pass


_Point = namedtuple("_Point", "x y")


class TestEncoderAgainstOracle:
    @given(values())
    @settings(max_examples=200)
    def test_same_bytes(self, value):
        assert encode(value) == oracle.encode(value)

    @pytest.mark.parametrize("value", [
        _Colour.RED,
        [_Colour.DEEP, -_Colour.RED],
        [True, False, 1, 0, None],
        {"flags": [True, 1]},
        _Point(1, "two"),
        [_Point(x=[True], y={"a": _Point(0, 0)})],
        OrderedDict([("b", 1), ("a", 2)]),
        _Label("label"),
        {"k": _Label("v")},
        {_Label("b"): 1, "a": 2},
        bytearray(b"\x00\xff"),
        memoryview(b"view"),
        {"blob": bytearray(b"x"), "view": memoryview(b"yz")},
        (1, (2, (3,))),
        {"": 0, "é": 1, "e": 2},
    ], ids=lambda value: type(value).__name__)
    def test_subclasses_and_buffers(self, value):
        assert encode(value) == oracle.encode(value)

    @pytest.mark.parametrize("value", [
        {1: "x"},
        {"a": 1, 2: "b"},
        {True: 1},
        [{"ok": 1}, {None: 2}],
        object(),
        {"a": {1.5: 0}},
    ], ids=lambda value: type(value).__name__)
    def test_same_rejections(self, value):
        with pytest.raises(SerializationError) as got:
            encode(value)
        with pytest.raises(SerializationError) as want:
            oracle.encode(value)
        assert str(got.value) == str(want.value)

    def test_more_key_sets_than_the_plan_cache_holds(self):
        bound = serialization._PLAN_LIMIT
        for i in range(bound * 2 + 3):
            value = {f"k{i}": i, "shared": [i], f"z{i % 7}": None}
            assert encode(value) == oracle.encode(value)
            assert len(serialization._PLANS) <= bound
        # Plans made before and after the cache was cleared agree.
        again = {"k0": 0, "shared": [0], "z0": None}
        assert encode(again) == oracle.encode(again)

    @given(st.dictionaries(st.text(max_size=6), st.integers(), max_size=6))
    def test_insertion_order_shares_bytes_not_plans(self, mapping):
        reordered = dict(reversed(list(mapping.items())))
        assert encode(mapping) == encode(reordered) \
            == oracle.encode(mapping)


class TestLongFields:
    """Inputs past the 60-byte garbage budget: keys of 128 bytes or
    more, and varints at the 147-byte "too long" limit, in a dict and in
    a CLog-shaped payload."""

    @pytest.mark.parametrize("continuations", [146, 147])
    def test_varint_limit(self, continuations):
        varint = b"\x80" * continuations + b"\x00"
        clog = oracle.encode({"first_ms": 1})[:-1]
        _assert_agrees(clog + varint)
        _assert_agrees(b"\x07\x01\x05" + varint)
        payload = bytearray(oracle.encode(
            {"key": bytes(13), "packets": 1, "octets": 2,
             "lost_packets": 3, "hop_count": 4, "first_ms": 5,
             "last_ms": 6, "rtt_sum_us": 7, "jitter_sum_us": 8,
             "record_count": 9, "routers": []}))
        _assert_agrees(bytes(payload[:-1]) + varint)

    @pytest.mark.parametrize("size", [127, 128, 300])
    def test_long_keys(self, size):
        data = oracle.encode({"k" * size: 1, "z": ["r" * size]})
        for end in range(len(data) + 1):
            _assert_agrees(data[:end])
