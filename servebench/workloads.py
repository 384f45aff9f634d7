"""The three fixed-work workloads, driven through the public clients.

One thread and at most two connections (a ``RouterClient`` and a
``QueryClient``, each pooling one socket) drive one live ``repro serve``.
Every operation is a closed loop: the next starts when the previous one
has returned.  Each run does the same amount of work whatever the host's
speed, so the cold/hit mix never depends on timing.

Every workload reports every end-to-end metric, so each carries a small
fixed share of the path it does not stress: ``ingest`` reads back after
every third round and ``query`` closes a few windows after its asks.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

import inputs
from oracle import Reference, mismatch
from probe import SPAWN_REF_S, ProbeClock, spawn_probe
from server import Server, server_env

# -- fixed work ---------------------------------------------------------------

SETUP_SPAWNS = 7            # set-ups per untraced run; setup_s is their median
FAST_BLOCK = 16             # short operations per probe-bracketed segment
# Flow counts are multiples of len(inputs.PATHS), so every seed writes the
# same number of records.
INGEST_WINDOWS, INGEST_FLOWS = 24, 128
INGEST_READBACK_EVERY = 3
FIXTURE_WINDOWS, FIXTURE_FLOWS = 6, 512
CLOSE_WINDOWS, CLOSE_FLOWS = 16, 96   # query: windows closed after the asks
MIXED_CYCLES, MIXED_FLOWS = 12, 96
QUERY_ZIPF_SCALE = 100      # asks of the most popular text in ``query``
QUERY_MAX_INFLIGHT = 8
# Hot set of ``mixed`` and of the ingest read-back: ranks (0-based) and
# asks per block; the first ask of each text per round is cold.
MIXED_HOT, MIXED_COUNTS = (0, 2, 4), (10, 5, 3)
READBACK_HOT, READBACK_COUNTS = (0, 2, 4), (8, 5, 3)
TENANT = "bench"

KINDS = ("setup", "round", "cold", "hit", "verify")


class Conn:
    """The load generator's two connections to one server."""

    def __init__(self, host: str, port: int) -> None:
        from repro.net import NO_RETRY, QueryClient, RouterClient
        # No retries: a failed request is a failed operation, not hidden.
        self.router = RouterClient(host, port, pool_size=1, retry=NO_RETRY,
                                   timeout=120.0)
        self.query = QueryClient(host, port, pool_size=1, retry=NO_RETRY,
                                 timeout=120.0)

    def health(self) -> dict:
        return self.router.health()

    def close(self) -> None:
        self.router.close()
        self.query.close()


class Run:
    """State and results of one pass of one workload."""

    def __init__(self, root: Path, work: Path, seed: int,
                 around: Callable | None = None,
                 spans_dir: Path | None = None) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.spans_dir = spans_dir
        self.clock = ProbeClock(around=around)
        self.setup_clock = ProbeClock(
            probe_fn=lambda: spawn_probe(server_env(root)), around=around,
            ref=SPAWN_REF_S)
        self.failures: list[str] = []
        self.attempted = 0
        self.stops: list[float] = []
        self.stop_errors = 0
        self.spawned: list[Server] = []
        self.ranked = inputs.ask_set(seed)
        self.ref = Reference()
        self.bulletin = None
        self.chain: list = []
        self.prev = None          # verified view of the latest round
        self.answered: set[tuple[str, int]] = set()
        self.round_records: list[int] = []
        self.round_cycles: list[int] = []
        self.round_segments: list[int] = []
        self.round_receipt_bytes: list[int] = []
        self.cold_cycles: list[int] = []
        self.answer_receipt_bytes: list[int] = []
        self.rss_mb = 0.0
        self.cpu_s = 0.0
        self.metrics_body: dict | None = None
        self.verifier = None
        self.measured_s = 0.0
        self._began = (0.0, 0.0)

    def fail(self, message: str, exc: BaseException | None = None) -> None:
        """Count a failed operation; its traceback, if any, goes to stderr."""
        self.failures.append(message)
        if exc is not None:
            traceback.print_exception(exc, file=sys.stderr)

    # -- server lifecycle -----------------------------------------------------

    def setup(self, prepare: Callable[[], None], serve_args: list[str],
              spawns: int) -> tuple[Server, Conn]:
        """Start ``spawns`` servers from the same starting state, each
        timed from spawn to first health; all but the last are stopped."""
        for index in range(spawns):
            prepare()
            spans = None if self.spans_dir is None \
                else self.spans_dir / f"server-{index}.json"
            server = Server(self.root, serve_args,
                            self.work / f"server-{index}.err", spans)
            self.spawned.append(server)
            conn, _ = self.setup_clock.time(
                "setup", lambda: server.start(Conn))
            self.setup_clock.cut()
            if index < spawns - 1:
                conn.close()
                self.stop(server)
        return server, conn

    def stop(self, server: Server) -> None:
        stop_s, errors = server.stop()
        self.stops.append(stop_s)
        self.stop_errors += errors

    def begin(self, server: Server) -> None:
        """Mark the start of the measured phase."""
        self._began = (time.perf_counter(), server.cpu_s())

    def finish(self, server: Server, conn: Conn) -> None:
        """Read the server's footprint, close the clients, then stop it."""
        began_at, cpu_before = self._began
        self.measured_s = time.perf_counter() - began_at
        self.rss_mb = server.peak_rss_mb()
        self.cpu_s = (server.cpu_s() - cpu_before) / max(self.ops(), 1)
        if self.spans_dir is not None:
            self.metrics_body = conn.router.fetch_metrics()
        conn.close()
        self.stop(server)

    def kill_all(self) -> None:
        for server in self.spawned:
            server.kill()

    # -- operations -----------------------------------------------------------

    def round(self, conn: Conn, store: Any, window: int,
              records: list[inputs.Rec]) -> None:
        """Write one window's records for all routers, publish their
        commitments, prove the round and verify its chained receipt."""
        from repro.commitments import Commitment, window_digest
        split = [(router, [inputs.to_netflow(r) for r in recs])
                 for router, recs in inputs.by_router(records).items()]
        expected_round = len(self.chain)

        def op():
            for router, netflows in split:
                store.append_records(router, window, netflows)
            for router, netflows in split:
                commitment = Commitment(
                    router_id=router, window_index=window,
                    digest=window_digest([r.to_bytes() for r in netflows]),
                    record_count=len(netflows),
                    published_at_ms=(window + 1) * inputs.WINDOW_MS)
                conn.router.publish(commitment)
                self.bulletin.publish(commitment)
            summary = conn.router.run_round([window])
            chain = conn.query.fetch_receipt_chain()
            verified = self.verifier.verify_aggregation(chain[-1], self.prev)
            return summary, chain, verified

        self.attempted += 1
        try:
            summary, chain, verified = self.clock.time("round", op)
        except Exception as exc:  # any failure fails the run, never retried
            self.clock.cut()
            self.fail(f"round {expected_round}: {type(exc).__name__}: {exc}",
                      exc)
            return
        self.clock.cut()
        expected_records = self.ref.fold(records)
        flows = len(self.ref.entries)
        got = summary[0] if len(summary) == 1 else {}
        checks = {
            "round": (got.get("round"), expected_round),
            "records": (got.get("records"), expected_records),
            "flows": (got.get("flows"), flows),
            "verified round": (verified.round, expected_round),
            "verified root": (verified.new_root, got.get("new_root")),
            "verified size": (verified.size, flows),
            "chain length": (len(chain), expected_round + 1),
            "windows": (sorted(verified.windows),
                        sorted((router, window) for router, _ in split)),
        }
        for what, (value, want) in checks.items():
            if value != want:
                self.fail(f"round {expected_round}: {what} {value!r} "
                          f"!= {want!r}")
                return
        self.chain, self.prev = chain, verified
        receipt = chain[-1]
        self.round_records.append(expected_records)
        self.round_cycles.append(receipt.claim.total_cycles)
        self.round_segments.append(receipt.claim.segment_count)
        self.round_receipt_bytes.append(receipt.receipt_size)

    def asks(self, conn: Conn, specs: list[dict], tenant: str | None) -> None:
        """Ask the SQL texts in blocks of :data:`FAST_BLOCK`: the asks of a
        block back to back, then a fresh light client verifies each answer;
        the reference comparison is untimed."""
        from repro.core.verifier_client import VerifierClient
        clock = self.clock
        for first in range(0, len(specs), FAST_BLOCK):
            answers = []
            for spec in specs[first:first + FAST_BLOCK]:
                latest = len(self.chain) - 1
                cold = (spec["sql"], latest) not in self.answered
                if cold and clock.pending:
                    clock.cut()
                self.attempted += 1
                try:
                    response = clock.time(
                        "cold" if cold else "hit",
                        lambda: conn.query.query(spec["sql"], tenant=tenant))
                except Exception as exc:  # counted; the run fails
                    self.fail(f"{spec['sql']!r}: {type(exc).__name__}: {exc}",
                              exc)
                    continue
                finally:
                    if cold:
                        clock.cut()
                self.answered.add((spec["sql"], latest))
                answers.append((spec, response, cold, latest))
            if clock.pending:
                clock.cut()
            checked = []
            for spec, response, cold, latest in answers:
                try:
                    checked.append((spec, response, cold, latest, clock.time(
                        "verify", lambda: VerifierClient(self.bulletin)
                        .verify_response(response, self.chain))))
                except Exception as exc:  # counted; the run fails
                    self.fail(f"{spec['sql']!r}: verify: "
                              f"{type(exc).__name__}: {exc}", exc)
            clock.cut()
            for spec, response, cold, latest, verified in checked:
                self._check_answer(spec, response, cold, latest, verified)

    def _check_answer(self, spec: dict, response: Any, cold: bool,
                      latest: int, verified: Any) -> None:
        problem = mismatch(spec, self.ref.answer(spec), verified)
        if problem is None and verified.round != latest:
            problem = f"{spec['sql']!r}: answered round {verified.round}"
        if problem is not None:
            self.fail(problem)
        elif cold:
            self.cold_cycles.append(response.receipt.claim.total_cycles)
            self.answer_receipt_bytes.append(response.receipt.receipt_size)

    def hot_block(self, ranks: tuple, counts: tuple, stream: str) -> list:
        return inputs.ask_sequence(self.seed, [self.ranked[r] for r in ranks],
                                   list(counts), stream=stream)

    def adopt_served_state(self, conn: Conn) -> None:
        """Fetch the restored server's public material and check it."""
        from repro.core.verifier_client import VerifierClient
        self.bulletin = conn.query.fetch_bulletin()
        self.verifier = VerifierClient(self.bulletin)
        self.chain = conn.query.fetch_receipt_chain()
        self.prev = self.verifier.verify_chain(self.chain)[-1]
        if self.prev.size != len(self.ref.entries):
            self.fail(f"restored state holds {self.prev.size} flows, "
                      f"reference {len(self.ref.entries)}")

    # -- results ---------------------------------------------------------------

    def ops(self) -> int:
        """Requests that made the server work: rounds and asks."""
        return sum(self.clock.count(kind) for kind in ("round", "cold", "hit"))

    def end_to_end(self) -> dict[str, float]:
        """The gated metrics: the median set-up, and the interquartile
        mean of every other kind's normalised samples."""
        clock = self.clock
        return {
            "setup_s": self.setup_clock.median("setup"),
            "records_per_s": sum(self.round_records) / clock.total("round"),
            "round_s": clock.central("round"),
            "query_cold_s": clock.central("cold"),
            "verify_ms": clock.central("verify") * 1e3,
            "server_rss_mb": self.rss_mb,
        }

    def info(self) -> dict[str, Any]:
        """Ungated figures printed beside the metrics."""
        clock = self.clock
        raw = dict(clock.raw, setup=self.setup_clock.raw["setup"])
        return {
            "samples": {kind: len(raw.get(kind, ())) for kind in KINDS},
            "raw_median_s": {kind: statistics.median(raw[kind])
                             for kind in KINDS if raw.get(kind)},
            "probe_median_ms": statistics.median(clock.probes) * 1e3,
            "spawn_probe_median_ms":
                statistics.median(self.setup_clock.probes) * 1e3,
            "probes": len(clock.probes),
            # Sub-millisecond cache hits are dominated by wake-up latency,
            # which no probe tracks; they are reported, not gated.
            "query_hit_ms": clock.central("hit") * 1e3,
            "query_hit_ms_raw_median": statistics.median(raw["hit"]) * 1e3,
            "measured_s": self.measured_s,
            "server.stop_s": statistics.median(self.stops),
            "server.stop_errors": self.stop_errors,
            "server.cpu_s_per_op": self.cpu_s,
            "table1": {
                "records_per_round": _mean(self.round_records),
                "receipt_bytes_per_round": _mean(self.round_receipt_bytes),
                "receipt_bytes_per_answer": _mean(self.answer_receipt_bytes),
                "segments_per_round": _mean(self.round_segments),
            },
        }


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def _remove_store(db: Path) -> None:
    """Delete a sqlite store and its WAL side files, if present."""
    for suffix in ("", "-wal", "-shm"):
        Path(f"{db}{suffix}").unlink(missing_ok=True)


# -- starting states ----------------------------------------------------------

class Fixture:
    """The checkpoint ``query`` and ``mixed`` restore: about 3,000 flows
    proven in :data:`FIXTURE_WINDOWS` rounds through the program itself,
    built once per run before any timing."""

    def __init__(self, directory: Path, seed: int) -> None:
        from repro.cli.persistence import save_bulletin
        from repro.commitments import BulletinBoard, Commitment, window_digest
        from repro.core.prover_service import ProverService
        from repro.storage import SqliteLogStore
        directory.mkdir(parents=True, exist_ok=True)
        self.db = directory / "fixture.db"
        _remove_store(self.db)
        self.bulletin = directory / "fixture-bulletin.json"
        self.windows = inputs.generate_windows(
            seed, "fixture", 0, FIXTURE_WINDOWS, FIXTURE_FLOWS)
        store = SqliteLogStore(str(self.db))
        board = BulletinBoard()
        service = ProverService(store, board)
        for window, records in enumerate(self.windows):
            for router, recs in inputs.by_router(records).items():
                netflows = [inputs.to_netflow(r) for r in recs]
                store.append_records(router, window, netflows)
                board.publish(Commitment(
                    router_id=router, window_index=window,
                    digest=window_digest([r.to_bytes() for r in netflows]),
                    record_count=len(netflows),
                    published_at_ms=(window + 1) * inputs.WINDOW_MS))
            service.aggregate_windows([window])
        service.checkpoint()
        service.close()
        store.close()
        save_bulletin(board, self.bulletin)

    def keys(self) -> list:
        return [rec.key for records in self.windows for rec in records]

    def reference(self) -> Reference:
        ref = Reference()
        for records in self.windows:
            ref.fold(records)
        return ref

    def copy_to(self, db: Path) -> None:
        """A fresh copy of the fixture store at ``db``."""
        _remove_store(db)
        shutil.copyfile(self.db, db)


# -- workloads ----------------------------------------------------------------

def ingest(run: Run, spawns: int, fixture: Fixture | None) -> None:
    """Empty store, plain ``repro serve``: one round per window, with a
    short read-back (cold asks, hits, verifies) after every third round."""
    from repro.commitments import BulletinBoard
    from repro.core.verifier_client import VerifierClient
    from repro.storage import SqliteLogStore
    windows = inputs.generate_windows(run.seed, "ingest", 0, INGEST_WINDOWS,
                                      INGEST_FLOWS)
    db = run.work / "server.db"
    bulletin = run.work / "bulletin.json"

    def prepare() -> None:
        _remove_store(db)
        bulletin.write_text('{"commitments": []}')

    server, conn = run.setup(prepare, ["--db", str(db), "--bulletin",
                                       str(bulletin), "--port", "0"], spawns)
    run.bulletin = BulletinBoard()
    run.verifier = VerifierClient(run.bulletin)
    store = SqliteLogStore(str(db))
    run.begin(server)
    try:
        for window, records in enumerate(windows):
            run.round(conn, store, window, records)
            if (window + 1) % INGEST_READBACK_EVERY == 0:
                run.asks(conn, run.hot_block(READBACK_HOT, READBACK_COUNTS,
                                             f"readback{window}"), None)
    finally:
        store.close()
    run.finish(server, conn)


def query(run: Run, spawns: int, fixture: Fixture) -> None:
    """Restored checkpoint behind the multi-tenant front door: one
    tenant's Zipf-ranked ask sequence, then a few windows are closed."""
    from repro.storage import SqliteLogStore
    run.ref = fixture.reference()
    db = run.work / "server.db"
    server, conn = run.setup(
        lambda: fixture.copy_to(db),
        ["--db", str(db), "--bulletin", str(fixture.bulletin), "--port", "0",
         "--restore", "--max-inflight", str(QUERY_MAX_INFLIGHT)], spawns)
    run.adopt_served_state(conn)
    counts = inputs.zipf_counts(len(run.ranked), QUERY_ZIPF_SCALE)
    closing = inputs.generate_windows(
        run.seed, "close", FIXTURE_WINDOWS, CLOSE_WINDOWS, CLOSE_FLOWS,
        earlier_keys=fixture.keys())
    store = SqliteLogStore(str(db))
    run.begin(server)
    try:
        run.asks(conn, inputs.ask_sequence(run.seed, run.ranked, counts),
                 TENANT)
        for offset, records in enumerate(closing):
            run.round(conn, store, FIXTURE_WINDOWS + offset, records)
    finally:
        store.close()
    run.finish(server, conn)


def mixed(run: Run, spawns: int, fixture: Fixture) -> None:
    """Restored checkpoint, plain ``repro serve``: rounds alternate with a
    block of asks, so every round turns the hot set cold again."""
    from repro.storage import SqliteLogStore
    run.ref = fixture.reference()
    db = run.work / "server.db"
    server, conn = run.setup(
        lambda: fixture.copy_to(db),
        ["--db", str(db), "--bulletin", str(fixture.bulletin), "--port", "0",
         "--restore"], spawns)
    run.adopt_served_state(conn)
    windows = inputs.generate_windows(
        run.seed, "mixed", FIXTURE_WINDOWS, MIXED_CYCLES, MIXED_FLOWS,
        earlier_keys=fixture.keys())
    store = SqliteLogStore(str(db))
    run.begin(server)
    try:
        for cycle, records in enumerate(windows):
            run.round(conn, store, FIXTURE_WINDOWS + cycle, records)
            run.asks(conn, run.hot_block(MIXED_HOT, MIXED_COUNTS,
                                         f"mixed{cycle}"), None)
    finally:
        store.close()
    run.finish(server, conn)


WORKLOADS = {"ingest": ingest, "query": query, "mixed": mixed}
NEEDS_FIXTURE = {"query", "mixed"}
