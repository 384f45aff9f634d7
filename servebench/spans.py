"""In-memory span tracing by wrapping ``repro`` entry points.

:func:`install` replaces each target in :data:`SPANS` with a wrapper that
records ``(name, start, end, id, parent id, trace id, thread)``; the parent
is the innermost open span on the same thread and the trace id is the id
of the outermost one.  :data:`ASYNC_SPANS` wrap coroutines: they take no
part in parenthood (coroutines interleave on one thread) and also record
how many :data:`COUNTS` calls happened while they were open.  Work that a
coroutine hands to an executor thread starts a new tree there, so it is
attributed by time to the client operation in flight, not by parent link.

Nothing is written until :meth:`Recorder.dump`; the program under test is
not modified on disk.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Iterable

# (module, attribute, span name).  A span name is "<layer>.<what>"; the
# layer is the repro package the target lives in.
SPANS = (
    ("repro.serialization", "encode", "serialization.encode"),
    ("repro.serialization", "decode", "serialization.decode"),
    ("repro.netflow.records", "NetFlowRecord.from_wire", "netflow.decode"),
    ("repro.netflow.records", "NetFlowRecord.to_bytes", "netflow.encode"),
    ("repro.storage.sqlite", "SqliteLogStore.append_records", "storage.append"),
    ("repro.storage.sqlite", "SqliteLogStore.window_blobs", "storage.read"),
    ("repro.storage.sqlite", "SqliteLogStore.window_indices", "storage.read"),
    ("repro.storage.sqlite", "SqliteLogStore.router_ids", "storage.read"),
    ("repro.storage.sqlite", "SqliteLogStore.get_checkpoint",
     "storage.checkpoint_read"),
    ("repro.storage.sqlite", "SqliteLogStore.put_checkpoint",
     "storage.checkpoint_write"),
    ("repro.commitments.window", "window_digest", "commitments.digest"),
    ("repro.core.witness", "build_witness", "core.witness"),
    ("repro.core.prover_service", "ProverService.aggregate_windows",
     "core.round"),
    ("repro.core.prover_service", "ProverService.answer_query", "core.answer"),
    ("repro.core.prover_service", "ProverService.restore", "core.restore"),
    ("repro.core.verifier_client", "VerifierClient.verify_chain",
     "core.chain_verify"),
    ("repro.core.verifier_client", "VerifierClient.verify_aggregation",
     "core.chain_verify"),
    ("repro.core.verifier_client", "VerifierClient.verify_query",
     "core.query_verify"),
    ("repro.merkle.maptree", "MerkleMap.set", "merkle.update"),
    ("repro.merkle.maptree", "MerkleMap.update_many", "merkle.update"),
    ("repro.merkle.tree", "MerkleTree.extend", "merkle.update"),
    ("repro.merkle.tree", "MerkleTree.prove_many", "merkle.prove"),
    ("repro.merkle.proof", "InclusionProof.computed_root", "merkle.verify"),
    ("repro.merkle.proof", "MultiProof.verify", "merkle.verify"),
    ("repro.zkvm.executor", "Executor.execute", "zkvm.execute"),
    ("repro.zkvm.prover", "Prover.prove_session", "zkvm.prove"),
    ("repro.zkvm.verifier", "Verifier.verify", "zkvm.verify"),
    ("repro.zkvm.receipt", "Receipt.to_wire", "zkvm.receipt_wire"),
    ("repro.zkvm.receipt", "Receipt.from_wire", "zkvm.receipt_wire"),
    ("repro.query.parser", "parse_query", "query.parse"),
    ("repro.query.evaluator", "evaluate", "query.eval"),
    ("repro.query.evaluator", "evaluate_partial", "query.eval"),
    ("repro.net.messages", "Envelope.to_bytes", "net.envelope"),
    ("repro.net.messages", "Envelope.from_bytes", "net.envelope"),
    ("repro.net.framing", "encode_frame", "net.frame"),
    # Client stubs: containers for reply sizes; their time includes the
    # wait for the server, so no layer metric reads their self time.
    ("repro.net.client", "QueryClient.query", "client.query"),
    ("repro.net.client", "QueryClient.fetch_receipt_chain",
     "client.fetch_chain"),
)

ASYNC_SPANS = (
    # The server's per-request boundary (frame in -> response envelope).
    ("repro.net.server", "ProverServer._process", "server.request"),
    ("repro.qserve.service", "QueryService.submit", "qserve.submit"),
)

COUNTS = (
    ("repro.hashing", "tagged_hash", "hashing.sha"),
    ("repro.hashing", "sha256", "hashing.sha"),
    ("repro.hashing", "hash_many", "hashing.sha"),
    ("repro.hashing", "IncrementalHasher.digest", "hashing.sha"),
)

# Reply payload sizes, read from the framed bytes on the client.
SIZES = (("repro.net.framing", "read_frame_from", "net.reply"),)


class Recorder:
    """Holds every span, count and size of one process in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.sizes: list[tuple[float, int]] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             counted: bool = False) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent, trace = stack[-1] if stack else (0, sid)
        stack.append((sid, trace))
        before = dict(self.counts) if counted else None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((name, start, end, sid, parent, trace,
                               threading.get_ident(),
                               _delta(before, self.counts)))

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def async_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            sid = next(self._ids)
            before = dict(self.counts)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.spans.append((name, start, time.perf_counter(), sid, 0,
                                   sid, threading.get_ident(),
                                   _delta(before, self.counts)))
        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def size_wrapper(self, name: str, fn: Callable) -> Callable:
        sizes = self.sizes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            payload = fn(*args, **kwargs)
            sizes.append((time.perf_counter(), len(payload)))
            return payload
        return wrapper

    def dump(self, path: str, **extra: Any) -> None:
        with open(path, "w") as out:
            json.dump({"spans": self.spans, "sizes": self.sizes,
                       "counts": self.counts, **extra}, out)


def _delta(before: dict | None, after: dict) -> dict | None:
    if before is None:
        return None
    return {name: after[name] - before.get(name, 0) for name in after}


def install(recorder: Recorder) -> int:
    """Wrap every target in this process; returns how many were wrapped."""
    groups = ((SPANS, recorder.span_wrapper),
              (ASYNC_SPANS, recorder.async_wrapper),
              (COUNTS, recorder.count_wrapper),
              (SIZES, recorder.size_wrapper))
    wrapped = 0
    for targets, make in groups:
        for module_name, attribute, name in targets:
            _patch(importlib.import_module(module_name), attribute,
                   lambda fn, name=name, make=make: make(name, fn))
            wrapped += 1
    return wrapped


def _patch(module: Any, attribute: str,
           make: Callable[[Callable], Callable]) -> None:
    owner_name, _, leaf = attribute.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        raw = inspect.getattr_static(owner, leaf)
        if isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(make(raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(owner, leaf, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, leaf, make(raw))
        return
    original = getattr(module, leaf)
    replacement = make(original)
    # Modules that imported the function by name hold their own reference.
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, replacement)


# -- reduction ---------------------------------------------------------------

def self_times(spans: Iterable[tuple]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its child spans."""
    spans = list(spans)
    children: dict[int, float] = {}
    for span in spans:
        if span[4]:
            children[span[4]] = children.get(span[4], 0.0) + span[2] - span[1]
    return {span[3]: span[2] - span[1] - children.get(span[3], 0.0)
            for span in spans}


class Attribution:
    """Finds the client operation whose interval holds a span's start.
    An operation is a tuple that starts ``(kind, start, end, ...)``."""

    def __init__(self, ops: list[tuple]) -> None:
        self.ops = sorted(ops, key=lambda op: op[1])
        self._starts = [op[1] for op in self.ops]

    def index(self, t: float) -> int | None:
        """Position in :attr:`ops` of the operation open at ``t``."""
        i = bisect.bisect_right(self._starts, t) - 1
        if i >= 0 and t <= self.ops[i][2]:
            return i
        return None


def covered_share(requests: list[tuple[float, float]],
                  roots: list[tuple[float, float]]) -> float:
    """Share of the request intervals' total length covered by the union
    of the ``roots`` intervals."""
    merged: list[list[float]] = []
    for lo, hi in sorted(roots):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    starts = [interval[0] for interval in merged]
    total = covered = 0.0
    for lo, hi in requests:
        total += hi - lo
        i = max(0, bisect.bisect_right(starts, lo) - 1)
        while i < len(merged) and merged[i][0] < hi:
            covered += max(0.0, min(merged[i][1], hi) - max(merged[i][0], lo))
            i += 1
    return covered / total if total else 0.0
