"""zkVM hot-path micro-benchmarks: optimized vs reference, per path.

Five optimized paths: buffered guest I/O, the canonical codec's decoder
and encoder, the memoized Merkle digest cache, and vectorized predicate
scans.  Each gets:

* a pytest-benchmark entry for the *optimized* path, feeding the
  calibration-normalized regression gate in ``check_regression.py``;
* a seat in ``test_hotpath_speedup_floor``, which times optimized vs
  reference in-process and asserts the acceptance criterion — >= 1.5x
  median wall-clock on at least two of the paths.  The reference is the
  same thunk under ``hotpath.disabled()``, except for the codec, which
  has one path in the program: its reference is the codec kept in
  ``tests/codec_oracle.py``.  The property suites
  (``tests/property/test_hotpath_props.py``,
  ``tests/property/test_serialization_props.py``) pin identity, so these
  numbers are speedups of *the same computation*.
"""

from __future__ import annotations

import pathlib
import statistics
import sys
import time

from repro import hotpath
from repro.core.clog import CLogEntry
from repro.hashing import sha256
from repro.merkle import MerkleTree, clear_memos
from repro.netflow.records import FlowKey
from repro.query import evaluate, parse_query
from repro.serialization import decode, encode
from repro.zkvm.guest import GuestEnv

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests import codec_oracle  # noqa: E402  (repository root, above)

IO_VALUES = 4_000
DECODE_ENTRIES = 2_000
ENCODE_ENTRIES = 2_000
MERKLE_LEAVES = 4_096
SCAN_ENTRIES = 20_000

SCAN_SQL = ("SELECT SUM(hop_count), COUNT(*) FROM clogs "
            'WHERE src_ip = "10.0.1.3" AND packets >= 10')


def _wire_entry(i: int) -> dict:
    return {
        "src_ip": f"10.0.{i % 4}.{i % 7}",
        "dst_ip": f"10.1.{i % 3}.{i % 5}",
        "packets": (i * 37) % 211,
        "octets": (i * 911) % 10_000,
        "hop_count": i % 6,
        "protocol": 6 if i % 2 else 17,
    }


# -- the paths, as zero-argument thunks --------------------------------------

_IO_FRAMES = None


def _io_roundtrip():
    global _IO_FRAMES
    if _IO_FRAMES is None:
        _IO_FRAMES = tuple(encode(_wire_entry(i))
                           for i in range(IO_VALUES))
    env = GuestEnv(_IO_FRAMES)
    values = env.read_batch(IO_VALUES)
    env.commit_many(values)
    return env.journal_data


_DECODE_BLOB = None


def _decode_blob() -> bytes:
    global _DECODE_BLOB
    if _DECODE_BLOB is None:
        _DECODE_BLOB = encode([_wire_entry(i)
                               for i in range(DECODE_ENTRIES)])
    return _DECODE_BLOB


def _decode_stream():
    return decode(_decode_blob())


def _oracle_decode_stream():
    return codec_oracle.decode(_decode_blob())


_ENCODE_WIRES = None


def _clog_wire(i: int) -> dict:
    key = FlowKey(f"10.0.{i % 4}.{i % 7}", f"10.1.{i % 3}.{i % 5}",
                  1024 + i % 5000, 443, 6 if i % 2 else 17)
    return CLogEntry(
        key=key, packets=(i * 37) % 211, octets=(i * 911) % 100_000,
        lost_packets=i % 3, hop_count=i % 6,
        first_ms=1_700_000_000_000 + i, last_ms=1_700_000_005_000 + i,
        rtt_sum_us=(i * 131) % 90_000, jitter_sum_us=(i * 17) % 5_000,
        record_count=1 + i % 4,
        routers=tuple(f"r{j}" for j in range(1 + i % 4)),
    ).to_wire()


def _encode_wires() -> list[dict]:
    global _ENCODE_WIRES
    if _ENCODE_WIRES is None:
        _ENCODE_WIRES = [_clog_wire(i) for i in range(ENCODE_ENTRIES)]
    return _ENCODE_WIRES


def _encode_entries():
    return encode(_encode_wires())


def _oracle_encode_entries():
    return codec_oracle.encode(_encode_wires())


_MERKLE_LEAF_DIGESTS = None


def _merkle_rebuild():
    global _MERKLE_LEAF_DIGESTS
    if _MERKLE_LEAF_DIGESTS is None:
        _MERKLE_LEAF_DIGESTS = [sha256(i.to_bytes(4, "big"))
                                for i in range(MERKLE_LEAVES)]
    return MerkleTree(_MERKLE_LEAF_DIGESTS).root


_SCAN_VIEWS = None
_SCAN_QUERY = None


def _vector_scan():
    global _SCAN_VIEWS, _SCAN_QUERY
    if _SCAN_VIEWS is None:
        _SCAN_VIEWS = [_wire_entry(i) for i in range(SCAN_ENTRIES)]
        _SCAN_QUERY = parse_query(SCAN_SQL)
    return evaluate(_SCAN_QUERY, _SCAN_VIEWS)


PATHS = {
    "guest-io": _io_roundtrip,
    "decode": _decode_stream,
    "encode": _encode_entries,
    "merkle-memo": _merkle_rebuild,
    "vector-scan": _vector_scan,
}

# Paths whose reference is not the same thunk with the gate off.
REFERENCES = {
    "decode": _oracle_decode_stream,
    "encode": _oracle_encode_entries,
}


# -- regression-gate entries (optimized path only) ---------------------------

def test_hotpath_guest_io(benchmark):
    with hotpath.force(True):
        benchmark.pedantic(_io_roundtrip, rounds=5, iterations=1,
                           warmup_rounds=1)


def test_hotpath_decode(benchmark):
    benchmark.pedantic(_decode_stream, rounds=5, iterations=1,
                       warmup_rounds=1)


def test_hotpath_encode(benchmark):
    benchmark.pedantic(_encode_entries, rounds=5, iterations=1,
                       warmup_rounds=1)


def test_hotpath_merkle_memo(benchmark):
    with hotpath.force(True):
        clear_memos()
        _merkle_rebuild()  # warm the digest memo once
        benchmark.pedantic(_merkle_rebuild, rounds=5, iterations=1,
                           warmup_rounds=1)


def test_hotpath_vector_scan(benchmark):
    with hotpath.force(True):
        benchmark.pedantic(_vector_scan, rounds=5, iterations=1,
                           warmup_rounds=1)


# -- the acceptance-criterion floor ------------------------------------------

def _median_seconds(thunk, rounds: int = 5) -> float:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        thunk()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_hotpath_speedup_floor(report):
    """>= 1.5x median speedup on at least two of the paths."""
    report.table(
        "zkvm-hotpath",
        "zkVM hot-path sweep: optimized vs reference medians",
        ["path", "reference_ms", "optimized_ms", "speedup"],
    )
    ratios = {}
    for name, thunk in PATHS.items():
        with hotpath.force(True):
            clear_memos()
            thunk()  # warm caches/templates; parity with steady state
            optimized = _median_seconds(thunk)
        if name in REFERENCES:
            reference = _median_seconds(REFERENCES[name])
        else:
            with hotpath.disabled():
                reference = _median_seconds(thunk)
        ratios[name] = reference / optimized
        report.row("zkvm-hotpath", name, reference * 1e3,
                   optimized * 1e3, ratios[name])
    fast_paths = [name for name, ratio in ratios.items()
                  if ratio >= 1.5]
    assert len(fast_paths) >= 2, (
        f"expected >= 1.5x on at least two paths, got {ratios}")
