"""Query proving (§4.2): run a SQL query in the zkVM, bound to the
latest aggregation claim.

The returned :class:`QueryResponse` is what the provider ships to the
client: the result values plus an unconditional receipt whose journal
binds (query text, aggregation root, result).  The client never sees a
CLog entry — only the public journal.

Two proving strategies produce that same journal:

* **full-scan** — the original monolith: one guest re-hashes and
  re-scans the entire entry set (§7 measures ~16 minutes at 3,000
  entries, which is the bottleneck this module exists to attack);
* **partitioned** — the entry set is split into aligned slot ranges,
  each proven as a *partial* query (bound to the aggregation root via a
  subtree sibling path) on the :class:`~repro.engine.ProvingEngine`
  work queue, then folded by a small merge guest into a journal
  byte-identical to the full scan's.  The planner picks whichever is
  modeled faster; clients verify both through the same
  ``VerifierClient.verify_query``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any

from ..errors import ConfigurationError, ProofError
from ..hashing import Digest
from ..obs import names as obs_names
from ..obs import runtime as obs
from ..zkvm import ExecutorEnvBuilder, ProveInfo, Prover, ProverOpts, Receipt
from ..zkvm.costmodel import CostModel, ProverBackend
from ..zkvm.prover import ProveStats
from ..zkvm.recursion import resolve, resolve_all
from .aggregation import make_receipt_binding
from .clog import CLogState
from .guest_programs import (
    query_guest,
    query_merge_guest,
    query_partition_guest,
)

ENV_QUERY_PARTITIONS = "REPRO_QUERY_PARTITIONS"


def env_query_partitions() -> int | None:
    """``REPRO_QUERY_PARTITIONS`` as a partition count, or ``None``."""
    raw = (os.environ.get(ENV_QUERY_PARTITIONS) or "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{ENV_QUERY_PARTITIONS} must be an integer, got "
            f"{raw!r}") from None
    return value if value > 0 else None


@dataclass(frozen=True)
class QueryResponse:
    """What the client receives for a query."""

    sql: str
    labels: tuple[str, ...]
    values: tuple[int | float | None, ...]
    matched: int
    scanned: int
    round: int
    root: Digest
    receipt: Receipt
    group_by: str | None = None
    groups: tuple[tuple[Any, tuple[int | float | None, ...]], ...] = ()

    def value(self, label: str | None = None) -> int | float | None:
        if self.group_by is not None:
            raise ProofError("grouped query: read .groups instead")
        if label is None:
            if len(self.values) != 1:
                raise ProofError("query has multiple result columns; "
                                 "name one")
            return self.values[0]
        try:
            return self.values[self.labels.index(label)]
        except ValueError:
            raise ProofError(f"no result column {label!r}") from None

    def as_dict(self) -> dict[str, int | float | None]:
        if self.group_by is not None:
            raise ProofError("grouped query: read .groups instead")
        return dict(zip(self.labels, self.values))

    def group(self, key: Any) -> dict[str, int | float | None]:
        for group_key, values in self.groups:
            if group_key == key:
                return dict(zip(self.labels, values))
        raise ProofError(f"no group {key!r}")


@dataclass(frozen=True)
class PartitionedQueryInfo:
    """Proving metadata for one partitioned query.

    Duck-compatible with :class:`ProveInfo` where the service relies on
    it (``.receipt``, ``.stats``); ``stats`` totals the work across
    every partition plus the merge.  The latency model mirrors
    :class:`~repro.core.parallel.ParallelAggregationResult`: partitions
    prove concurrently, the merge after the slowest of them.
    """

    receipt: Receipt
    partition_infos: tuple[Any, ...]
    merge_info: Any
    num_partitions: int
    chunk_po2: int

    @property
    def stats(self) -> ProveStats:
        infos = (*self.partition_infos, self.merge_info)
        breakdown: dict[str, int] = {}
        for info in infos:
            for category, cycles in info.stats.cycle_breakdown.items():
                breakdown[category] = breakdown.get(category, 0) + cycles
        return ProveStats(
            total_cycles=sum(i.stats.total_cycles for i in infos),
            padded_cycles=sum(i.stats.padded_cycles for i in infos),
            segment_count=sum(i.stats.segment_count for i in infos),
            sha_compressions=sum(i.stats.sha_compressions
                                 for i in infos),
            wall_seconds=sum(i.stats.wall_seconds for i in infos),
            cycle_breakdown=breakdown,
        )

    def modeled_seconds(self, model: CostModel,
                        backend: ProverBackend =
                        ProverBackend.CPU_ZKVM) -> float:
        """End-to-end latency with partitions proven concurrently."""
        slowest = max(model.prove_seconds(info.stats, backend)
                      for info in self.partition_infos)
        return slowest + model.prove_seconds(self.merge_info.stats,
                                             backend)

    def sequential_seconds(self, model: CostModel,
                           backend: ProverBackend =
                           ProverBackend.CPU_ZKVM) -> float:
        """The same work proven one partition at a time."""
        total = sum(model.prove_seconds(info.stats, backend)
                    for info in self.partition_infos)
        return total + model.prove_seconds(self.merge_info.stats,
                                           backend)


class QueryProver:
    """Generates query proofs against the current CLog state.

    ``prover`` optionally injects a pool-routed prover (see
    :class:`repro.engine.pool.PooledProver`); the default proves
    in-process.  ``engine`` + ``num_partitions`` opt into partitioned
    proving: :meth:`prove_query` asks the planner whether splitting
    pays for the given query and entry count, and falls back to the
    full scan when it does not.  With an engine attached, even
    full-scan query jobs route through its pool and content-addressed
    receipt cache.
    """

    def __init__(self, prover_opts: ProverOpts | None = None,
                 prover: Any | None = None,
                 engine: Any | None = None,
                 num_partitions: int | None = None) -> None:
        if num_partitions is not None and num_partitions < 1:
            raise ConfigurationError("num_partitions must be >= 1")
        self._opts = prover_opts or ProverOpts.groth16()
        if prover is not None:
            self._prover = prover
        elif engine is not None:
            self._prover = engine.prover(self._opts)
        else:
            self._prover = Prover(self._opts)
        self._engine = engine
        self._num_partitions = num_partitions

    def prove_query(self, sql: str, state: CLogState,
                    agg_receipt: Receipt) -> tuple[QueryResponse, Any]:
        """Prove ``sql`` over ``state``, which ``agg_receipt`` attests.

        Picks the modeled-faster strategy when partitioning is
        configured; both strategies commit byte-identical journals.
        """
        num_partitions = self._num_partitions
        if self._engine is not None and num_partitions is not None \
                and num_partitions > 1 and len(state) > 1:
            from .planner import QueryPlanner
            planner = QueryPlanner(state, len(agg_receipt.journal.data))
            if planner.choose_strategy(sql, num_partitions) \
                    == "partitioned":
                return self.prove_query_partitioned(
                    sql, state, agg_receipt, num_partitions)
        return self._prove_query_full_scan(sql, state, agg_receipt)

    def _prove_query_full_scan(
            self, sql: str, state: CLogState, agg_receipt: Receipt,
    ) -> tuple[QueryResponse, ProveInfo]:
        """The §4.2 monolith: one guest scans the full entry set."""
        start = time.perf_counter()
        with obs.tracer().span(obs_names.SPAN_QUERY_PROVE, sql=sql,
                               entries=len(state)) as span:
            builder = ExecutorEnvBuilder()
            builder.write({"query": sql, "num_entries": len(state)})
            builder.write(make_receipt_binding(agg_receipt))
            for row in state.leaf_rows():
                builder.write(row)
            info = self._prover.prove(query_guest, builder.build())
            receipt = resolve(info.receipt, agg_receipt)
            span.add_cycles(info.stats.total_cycles)
        registry = obs.registry()
        registry.counter(obs_names.QUERY_PROOFS).inc()
        registry.histogram(obs_names.QUERY_SECONDS).observe(
            time.perf_counter() - start)
        return _build_response(sql, receipt), info

    def prove_query_partitioned(
            self, sql: str, state: CLogState, agg_receipt: Receipt,
            num_partitions: int | None = None,
    ) -> tuple[QueryResponse, PartitionedQueryInfo]:
        """Prove ``sql`` as partial queries over aligned slot ranges.

        Every partition job and the merge job go through the engine's
        work queue — pooled workers prove them concurrently and the
        content-addressed :class:`~repro.engine.cache.ReceiptCache`
        replays recurring partitions.  The merge receipt is resolved
        against the partition receipts (themselves resolved against
        ``agg_receipt``), so the response receipt is unconditional and
        verifies exactly like a full-scan one.
        """
        if self._engine is None:
            raise ConfigurationError(
                "partitioned query proving needs a ProvingEngine")
        requested = num_partitions if num_partitions is not None \
            else self._num_partitions
        if requested is None or requested < 1:
            raise ConfigurationError("num_partitions must be >= 1")
        size = len(state)
        if size == 0:
            raise ProofError(
                "cannot prove a partitioned query over an empty CLog")
        from .planner import partition_layout
        chunk_po2, count = partition_layout(size, requested)
        chunk = 1 << chunk_po2
        rows = state.leaf_rows()
        tree = state.merkle_map.tree
        binding = make_receipt_binding(agg_receipt)

        start = time.perf_counter()
        with obs.tracer().span(obs_names.SPAN_QUERY_PROVE, sql=sql,
                               entries=size) as outer:
            outer.set("partitions", count)
            with obs.tracer().span(obs_names.SPAN_QUERY_PARALLEL_ROUND,
                                   partitions=count):
                jobs = []
                for index in range(count):
                    lo = index << chunk_po2
                    hi = min(size, lo + chunk)
                    jobs.append(self._partition_job(
                        sql, binding, rows[lo:hi], index, count,
                        chunk_po2,
                        tree.prove_subtree(chunk_po2, index).siblings))

                # Populated by build_merge on the completion-callback
                # thread; reads below are ordered after it by
                # merge_ready/merge_future.
                resolved: list[Receipt] = []

                def build_merge(results: list[Any]) -> Any:
                    from ..engine.jobs import ProofJob
                    merge_builder = ExecutorEnvBuilder()
                    merge_builder.write({"query": sql,
                                         "num_partitions": count})
                    for result in results:
                        part_receipt = resolve(result.receipt,
                                               agg_receipt)
                        resolved.append(part_receipt)
                        merge_builder.write(
                            make_receipt_binding(part_receipt))
                    return ProofJob.from_parts(
                        query_merge_guest, merge_builder.build(),
                        self._opts)

                schedule = self._engine.submit_fanout(jobs, build_merge)
                partition_results = []
                for index, future in enumerate(
                        schedule.partition_futures):
                    with obs.tracer().span(
                            obs_names.SPAN_QUERY_PARALLEL_PARTITION,
                            partition=index) as span:
                        result = schedule.partition_result(future)
                        span.add_cycles(result.stats.total_cycles)
                        span.set("cached", result.cached)
                    partition_results.append(result)
                schedule.merge_ready.wait()
                if schedule.merge_future is None:
                    raise ProofError("query merge was never submitted")
                with obs.tracer().span(
                        obs_names.SPAN_QUERY_PARALLEL_MERGE,
                        partitions=count) as span:
                    merge_result = schedule.merge_future.result()
                    span.add_cycles(merge_result.stats.total_cycles)
                    receipt = resolve_all(merge_result.receipt,
                                          resolved)
            outer.add_cycles(
                sum(r.stats.total_cycles for r in partition_results)
                + merge_result.stats.total_cycles)
        registry = obs.registry()
        registry.counter(obs_names.QUERY_PROOFS).inc()
        registry.counter(obs_names.QUERY_PARTITIONS).inc(count)
        registry.histogram(obs_names.QUERY_SECONDS).observe(
            time.perf_counter() - start)
        info = PartitionedQueryInfo(
            receipt=receipt,
            partition_infos=tuple(partition_results),
            merge_info=merge_result,
            num_partitions=count,
            chunk_po2=chunk_po2,
        )
        return _build_response(sql, receipt), info

    def _partition_job(self, sql: str, binding: dict[str, Any],
                       rows: list[dict[str, bytes]], index: int,
                       count: int, chunk_po2: int,
                       siblings: tuple[Digest, ...]) -> Any:
        from ..engine.jobs import ProofJob
        builder = ExecutorEnvBuilder()
        builder.write({
            "query": sql,
            "partition": index,
            "num_partitions": count,
            "chunk_po2": chunk_po2,
            "start": index << chunk_po2,
            "count": len(rows),
            "siblings": list(siblings),
        })
        builder.write(binding)
        for row in rows:
            builder.write(row)
        return ProofJob.from_parts(query_partition_guest,
                                   builder.build(), self._opts)


def _build_response(sql: str, receipt: Receipt) -> QueryResponse:
    journal = _query_journal(receipt)
    return QueryResponse(
        sql=sql,
        labels=tuple(journal["labels"]),
        values=tuple(journal["values"]),
        matched=journal["matched"],
        scanned=journal["scanned"],
        round=journal["round"],
        root=journal["root"],
        receipt=receipt,
        group_by=journal.get("group_by"),
        groups=tuple((key, tuple(values))
                     for key, values in journal.get("groups", [])),
    )


def _query_journal(receipt: Receipt) -> dict[str, Any]:
    journal = receipt.journal.decode_one()
    if not isinstance(journal, dict):
        raise ProofError("query journal is not a dict")
    return journal


__all__ = [
    "ENV_QUERY_PARTITIONS",
    "PartitionedQueryInfo",
    "QueryProver",
    "QueryResponse",
    "env_query_partitions",
]
