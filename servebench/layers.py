"""Per-layer metrics of one traced pass.

Self time of a span is its duration minus its child spans' durations, in
the same process.  Each span is attributed to the client operation whose
interval holds its start (server spans included: both processes read the
same monotonic clock), and normalised by that operation's probe factor.
A ``*_per_round`` metric is the layer's attributed self time over round
operations divided by the number of rounds, and so on; a workload that
has none of an operation reports 0.
"""

from __future__ import annotations

import bisect
import json
import statistics
from typing import Any

from spans import ASYNC_SPANS, Attribution, covered_share, self_times

ASYNC_NAMES = {name for _, _, name in ASYNC_SPANS}
SERVICE_QUERY_CACHE = "repro_service_query_cache_total"


class _Entries:
    """Spans of one process with self time, operation and factor."""

    def __init__(self, spans: list, attribution: Attribution,
                 factors: list[float]) -> None:
        selfs = self_times(spans)
        self.rows = []
        for span in spans:
            name, start, end, sid, parent = span[:5]
            index = attribution.index(start)
            kind = "other" if index is None else attribution.ops[index][0]
            factor = 1.0 if index is None else factors[index]
            self.rows.append({
                "name": name, "start": start, "end": end, "parent": parent,
                "self": selfs[sid] * factor, "dur": (end - start) * factor,
                "kind": kind, "op": index, "counts": span[7] or {}})

    def ms(self, prefix: str, kinds: tuple[str, ...],
           inclusive: bool = False) -> float:
        key = "dur" if inclusive else "self"
        return 1e3 * sum(row[key] for row in self.rows
                         if row["kind"] in kinds
                         and (row["name"] == prefix
                              or row["name"].startswith(prefix + ".")))

    def calls(self, prefix: str, kinds: tuple[str, ...]) -> int:
        return sum(1 for row in self.rows if row["kind"] in kinds
                   and row["name"].startswith(prefix + "."))

    def counted(self, name: str, counter: str, kinds: tuple[str, ...]) -> int:
        return sum(row["counts"].get(counter, 0) for row in self.rows
                   if row["name"] == name and row["kind"] in kinds)


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def _bytes_within(sizes: list, rows: list[dict]) -> int:
    """Reply bytes read while one of ``rows``' spans was open."""
    rows = sorted(rows, key=lambda row: row["start"])
    starts = [row["start"] for row in rows]
    total = 0
    for t, size in sizes:
        i = bisect.bisect_right(starts, t) - 1
        if i >= 0 and t <= rows[i]["end"]:
            total += size
    return total


def _counter(body: dict | None, name: str, **labels: str) -> float:
    for family in (body or {}).get("metrics", {}).get("counters", []):
        if family["name"] == name:
            return sum(series["value"] for series in family["series"]
                       if all(series["labels"].get(k) == v
                              for k, v in labels.items()))
    return 0.0


def per_layer(base: Any, traced: Any, recorder: Any) -> dict[str, float]:
    """Every per-layer metric, from the untraced ``base`` pass and the
    ``traced`` pass (client ``recorder`` plus the server's span file)."""
    with open(traced.spawned[-1].spans_path) as handle:
        dump = json.load(handle)
    attribution = Attribution(traced.clock.ops + traced.setup_clock.ops)
    factors = [op[3] for op in attribution.ops]
    client = _Entries(recorder.spans, attribution, factors)
    server = _Entries([tuple(span) for span in dump["spans"]], attribution,
                      factors)
    n = {kind: traced.clock.count(kind)
         for kind in ("round", "cold", "hit", "verify")}
    asks = n["cold"] + n["hit"]
    records = sum(traced.round_records)
    both = (client, server)
    ROUND, COLD, ASK = ("round",), ("cold",), ("cold", "hit")
    VERIFY, SETUP = ("verify",), ("setup",)
    WORK = ("round", "cold", "hit", "verify")

    def ms(prefix, kinds, processes=both, inclusive=False):
        return sum(p.ms(prefix, kinds, inclusive) for p in processes)

    # qserve: submit-to-prove wait of each cold ask, and cache hits.
    by_op: dict[int, dict[str, float]] = {}
    for row in server.rows:
        if row["op"] is not None and row["name"] in ("qserve.submit",
                                                     "core.answer"):
            by_op.setdefault(row["op"], {}).setdefault(row["name"],
                                                       row["start"])
    waits, qserve_hits = [], 0
    for index, firsts in by_op.items():
        kind, factor = attribution.ops[index][0], factors[index]
        if "qserve.submit" not in firsts:
            continue
        if "core.answer" not in firsts:
            qserve_hits += kind in ASK
        elif kind == "cold":
            waits.append((firsts["core.answer"] - firsts["qserve.submit"])
                         * factor)

    requests = [row for row in server.rows
                if row["name"] == "server.request" and row["kind"] in WORK]
    roots = [(row["start"], row["end"]) for row in server.rows
             if not row["parent"] and row["name"] not in ASYNC_NAMES]
    setup_index = max(i for i, op in enumerate(attribution.ops)
                      if op[0] == "setup")
    sha_rounds = client.counted("op.round", "hashing.sha", ROUND) \
        + server.counted("server.request", "hashing.sha", ROUND)
    traced_work = sum(traced.clock.total(kind) for kind in WORK)
    base_work = sum(base.clock.total(kind) for kind in WORK)
    return {
        "storage.read_ms_per_round": _per(ms("storage.read", ROUND),
                                          n["round"]),
        "storage.append_ms_per_round": _per(ms("storage.append", ROUND),
                                            n["round"]),
        "netflow.decode_ms_per_round": _per(ms("netflow.decode", ROUND),
                                            n["round"]),
        "serialization.encode_ms_per_round": _per(
            ms("serialization.encode", ROUND), n["round"]),
        "serialization.decode_ms_per_round": _per(
            ms("serialization.decode", ROUND), n["round"]),
        "serialization.calls_per_record": _per(
            client.calls("serialization", ROUND)
            + server.calls("serialization", ROUND), records),
        "serialization.decode_ms_per_cold_query": _per(
            ms("serialization.decode", COLD), n["cold"]),
        "core.witness_ms_per_round": _per(ms("core.witness", ROUND),
                                          n["round"]),
        "merkle.ms_per_round": _per(ms("merkle", ROUND), n["round"]),
        "zkvm.execute_ms_per_round": _per(ms("zkvm.execute", ROUND),
                                          n["round"]),
        "zkvm.prove_ms_per_round": _per(ms("zkvm.prove", ROUND), n["round"]),
        "hashing.sha_calls_per_record": _per(sha_rounds, records),
        "query.parse_ms_per_ask": _per(ms("query.parse", ASK), asks),
        "query.eval_ms_per_cold_query": _per(ms("query.eval", COLD),
                                             n["cold"]),
        "zkvm.execute_ms_per_cold_query": _per(ms("zkvm.execute", COLD),
                                               n["cold"]),
        "zkvm.prove_ms_per_cold_query": _per(ms("zkvm.prove", COLD),
                                             n["cold"]),
        "qserve.wait_ms_per_cold_query": 1e3 * _per(sum(waits), n["cold"]),
        "qserve.hit_ratio": _per(qserve_hits, asks),
        "core.cache_hit_ratio": _per(
            _counter(traced.metrics_body, SERVICE_QUERY_CACHE, result="hit"),
            asks),
        "core.restore_ms": ms("core.restore", SETUP, (server,), True),
        "storage.checkpoint_read_ms": ms("storage.checkpoint_read", SETUP,
                                         (server,), True),
        "cli.startup_ms": 1e3 * (dump["cli_entry"]
                                 - traced.spawned[-1].spawned_at)
        * factors[setup_index],
        "net.server_ms_per_request": _per(ms("net", WORK, (server,)),
                                          len(requests)),
        "net.bytes_per_answer": _per(_bytes_within(
            recorder.sizes, [row for row in client.rows
                             if row["name"] == "client.query"]), asks),
        "net.chain_bytes_per_round": _per(_bytes_within(
            recorder.sizes, [row for row in client.rows
                             if row["name"] == "client.fetch_chain"
                             and row["kind"] == "round"]), n["round"]),
        "commitments.digest_ms_per_round": _per(
            ms("commitments.digest", ROUND), n["round"]),
        "core.chain_verify_ms_per_answer": _per(
            ms("core.chain_verify", VERIFY), n["verify"]),
        "zkvm.verify_ms_per_answer": _per(ms("zkvm.verify", VERIFY),
                                          n["verify"]),
        "hashing.sha_calls_per_verify": _per(
            client.counted("op.verify", "hashing.sha", VERIFY), n["verify"]),
        "zkvm.cycles_per_record": _per(sum(base.round_cycles),
                                       sum(base.round_records)),
        "zkvm.cycles_per_cold_query": _per(sum(base.cold_cycles),
                                           len(base.cold_cycles)),
        "server.cpu_s_per_op": base.cpu_s,
        "server.stop_s": statistics.median(base.stops + traced.stops),
        "server.stop_errors": base.stop_errors + traced.stop_errors,
        "bench.probe_ms": statistics.median(base.clock.probes) * 1e3,
        "trace.overhead_share": traced_work / base_work - 1.0,
        "trace.coverage_share": covered_share(
            [(row["start"], row["end"]) for row in requests], roots),
    }
