"""Probe normalisation: timings in units of a fixed reference probe.

The host's speed drifts by up to 2x within seconds, so raw wall time does
not hold still.  A fixed probe runs immediately before and after each timed
segment, while no request is outstanding, and every operation timed inside
the segment is divided by the mean of its two probes and multiplied by the
probe's reference time.  A gated timing therefore reads "seconds on a host
whose probe takes the reference time".  Dividing a whole run by one median
probe does not work: the drift is faster than a run.

Two probes exist.  :func:`probe` is a ~10 ms pure-Python loop and brackets
every operation on a live server.  :func:`spawn_probe` starts a fresh
interpreter that imports a fixed set of standard-library modules and
brackets each server set-up, whose cost is process creation and imports
rather than bytecode; the loop probe tracks that cost poorly.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Any, Callable

# Reference probe times.  Constants of the benchmark: each scales every
# timing it normalises equally and is never re-tuned to move a result.
P_REF_S = 0.010
SPAWN_REF_S = 0.100
# Iterations of the probe loop (about P_REF_S on a shared 2-core x86 VM).
PROBE_ITERATIONS = 58_000
# What the spawn probe's interpreter imports: standard-library modules the
# server also loads, and nothing from the program or third parties.
SPAWN_IMPORTS = ("asyncio, sqlite3, json, hashlib, ipaddress, fractions, "
                 "decimal, argparse, logging, multiprocessing, ssl, csv, "
                 "pickle, subprocess, tempfile, zipfile, dataclasses, inspect")


def probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds taken by a fixed mix of the interpreter work the program
    does: integer arithmetic, dict and list updates, and builtin calls."""
    table: dict[int, int] = {}
    items: list[int] = []
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFFF
        table[acc & 1023] = i
        if i & 7 == 0:
            items.append(len(table))
    return time.perf_counter() - start


def spawn_probe(env: dict[str, str] | None = None) -> float:
    """Seconds to start an interpreter that imports :data:`SPAWN_IMPORTS`
    and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {SPAWN_IMPORTS}"],
                   env=env, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def normalise(seconds: float, before: float, after: float,
              ref: float = P_REF_S) -> float:
    """``seconds`` measured between probes ``before`` and ``after``,
    expressed on the reference host."""
    return seconds * ref / ((before + after) / 2)


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values`` (all of them below four).

    A median-like central value that averages more samples: operations of
    a fixed schedule grow with the state, and the median of such a series
    rests on the two or three samples nearest its middle."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


class ProbeClock:
    """Times operations in probe-bracketed segments.

    ``time(kind, fn)`` runs ``fn`` and records its raw duration in the
    open segment; ``cut()`` probes, closes the segment and normalises
    every operation in it by the probes on either side.  A caller cuts
    around each long operation and after every block of short ones.
    ``around(kind, fn)``, when set, runs each timed call (the traced run
    uses it to open an operation span).
    """

    def __init__(self, probe_fn: Callable[[], float] = probe,
                 around: Callable[[str, Callable[[], Any]], Any] | None = None,
                 ref: float = P_REF_S) -> None:
        self._probe = probe_fn
        self._around = around
        self._ref = ref
        self._last = probe_fn()
        self.probes = [self._last]
        self._open: list[tuple[str, float, float]] = []
        self.raw: dict[str, list[float]] = {}
        self.norm: dict[str, list[float]] = {}
        # (kind, start, end, normalisation factor) of every closed op.
        self.ops: list[tuple[str, float, float, float]] = []

    def time(self, kind: str, fn: Callable[[], Any]) -> Any:
        start = time.perf_counter()
        result = fn() if self._around is None else self._around(kind, fn)
        self._open.append((kind, start, time.perf_counter()))
        return result

    @property
    def pending(self) -> int:
        return len(self._open)

    def cut(self) -> None:
        after = self._probe()
        self.probes.append(after)
        factor = normalise(1.0, self._last, after, self._ref)
        for kind, start, end in self._open:
            self.raw.setdefault(kind, []).append(end - start)
            self.norm.setdefault(kind, []).append((end - start) * factor)
            self.ops.append((kind, start, end, factor))
        self._open = []
        self._last = after

    def median(self, kind: str) -> float:
        return statistics.median(self.norm[kind])

    def central(self, kind: str) -> float:
        return interquartile_mean(self.norm[kind])

    def total(self, kind: str) -> float:
        return sum(self.norm.get(kind, ()))

    def count(self, kind: str) -> int:
        return len(self.norm.get(kind, ()))
