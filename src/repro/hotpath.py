"""Global switch for the zkVM hot-path optimizations.

PR 9 optimized the simulated zkVM interpreter and its feeders — buffered
guest I/O, batched SHA accelerator accounting, memoized Merkle subtree
hashing, vectorized slot scans.  Every optimization is *observationally
identical* to the reference implementation it replaced: journal bytes,
cycle totals, segment digests, and receipt claims do not change.  The
canonical codec (:mod:`repro.serialization`) is not behind this gate: it
has one path, and its reference lives in ``tests/codec_oracle.py``.  The
remaining reference paths are kept, behind this gate, for two reasons:

* the byte-identity property suite (``tests/property/test_hotpath_props``)
  runs every workload both ways and asserts equality, so the equivalence
  is machine-checked, not just argued;
* ``benchmarks/bench_zkvm_hotpath.py`` measures each optimization
  against its reference honestly, in the same process.

The gate is process-global and read from ``REPRO_HOTPATH`` once at
import (``0``/``off``/``false`` disable); tests and benchmarks flip it
with :func:`force` / :func:`disabled`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

_OFF_VALUES = {"0", "off", "false", "no"}

_enabled = os.environ.get("REPRO_HOTPATH", "1").strip().lower() not in _OFF_VALUES


def enabled() -> bool:
    """Are the hot-path optimizations active in this process?"""
    return _enabled


def set_enabled(value: bool) -> bool:
    """Set the gate; returns the previous value (for restoration)."""
    global _enabled
    previous = _enabled
    _enabled = bool(value)
    return previous


@contextmanager
def force(value: bool) -> Iterator[None]:
    """Scoped override: run a block with the gate pinned to ``value``."""
    previous = set_enabled(value)
    try:
        yield
    finally:
        set_enabled(previous)


@contextmanager
def disabled() -> Iterator[None]:
    """Scoped convenience for the reference (unoptimized) paths."""
    with force(False):
        yield
