"""Batched query proving: one partition scan, N query receipts.

The per-query cost of partitioned proving
(:meth:`~repro.core.query_proof.QueryProver.prove_query_partitioned`)
is dominated by the partition scans — re-hashing the subtree against
the committed root and decoding every entry.  When several tenants ask
different questions about the *same* committed round, that work is
identical across them; only the evaluation differs.

:class:`BatchQueryProver` exploits this with the two batch guests:

* one ``query_batch_partition_guest`` job per aligned slot range scans
  and binds the range once, then evaluates **every** query of the batch
  over the shared entry views (marginal per-query cost: evaluation
  only);
* one ``query_batch_merge_guest`` job per query folds that query's
  partial frames into a journal **byte-identical** to the single-query
  guests' — so each tenant still receives its own standalone,
  independently verifiable receipt, and the verifier cannot tell (nor
  needs to care) that the answer was batch-proven.

Both stages ride the engine work queue via
:meth:`~repro.engine.scheduler.ProvingEngine.submit_fanout_multi`: the
merge jobs are submitted from the completion callback the moment the
last partition lands, and recurring partitions replay from the
content-addressed receipt cache — which is also what makes retrying a
faulted batch cheap (only the faulted pieces re-prove).
"""

from __future__ import annotations

import time
from typing import Any

from ..errors import ConfigurationError, ProofError
from ..obs import names as obs_names
from ..obs import runtime as obs
from ..zkvm import ExecutorEnvBuilder, ProverOpts, Receipt
from ..zkvm.recursion import resolve, resolve_all


class BatchQueryProver:
    """Prove several queries over one committed state in one fan-out."""

    def __init__(self, engine: Any,
                 prover_opts: ProverOpts | None = None) -> None:
        if engine is None:
            raise ConfigurationError(
                "batched query proving needs a ProvingEngine")
        self._engine = engine
        self._opts = prover_opts or engine.opts

    def prove_batch(self, sqls: list[str], state: Any,
                    agg_receipt: Receipt,
                    num_partitions: int) -> list[Any]:
        """Prove every query in ``sqls`` against ``state``.

        Returns one entry per query, **in order**: a
        :class:`~repro.core.query_proof.QueryResponse` on success or
        the ``Exception`` that query's merge died with.  A *partition*
        failure (or a failure building the merges) poisons the whole
        batch and raises — no query can be answered without the shared
        scan.  ``sqls`` must be unique: each query's merge selects its
        frame by batch position, so duplicates would just prove the
        same receipt twice (the caller dedupes and fans the response
        back out).
        """
        if not sqls:
            raise ConfigurationError("batch needs at least one query")
        if len(set(sqls)) != len(sqls):
            raise ConfigurationError("batch queries must be unique")
        if num_partitions < 1:
            raise ConfigurationError("num_partitions must be >= 1")
        from ..core.aggregation import make_receipt_binding
        from ..core.guest_programs import (
            query_batch_merge_guest,
            query_batch_partition_guest,
        )
        from ..core.planner import partition_layout
        from ..core.query_proof import _build_response
        from ..engine.jobs import ProofJob

        size = len(state)
        if size == 0:
            raise ProofError(
                "cannot batch-prove queries over an empty CLog")
        chunk_po2, count = partition_layout(size, num_partitions)
        chunk = 1 << chunk_po2
        rows = state.leaf_rows()
        tree = state.merkle_map.tree
        binding = make_receipt_binding(agg_receipt)

        start = time.perf_counter()
        with obs.tracer().span(obs_names.SPAN_QUERY_PARALLEL_ROUND,
                               partitions=count,
                               queries=len(sqls)) as outer:
            jobs = []
            for index in range(count):
                lo = index << chunk_po2
                hi = min(size, lo + chunk)
                builder = ExecutorEnvBuilder()
                builder.write({
                    "queries": list(sqls),
                    "partition": index,
                    "num_partitions": count,
                    "chunk_po2": chunk_po2,
                    "start": lo,
                    "count": hi - lo,
                    "siblings": list(
                        tree.prove_subtree(chunk_po2, index).siblings),
                })
                builder.write(binding)
                for row in rows[lo:hi]:
                    builder.write(row)
                jobs.append(ProofJob.from_parts(
                    query_batch_partition_guest, builder.build(),
                    self._opts))

            # Populated by build_merges on the completion-callback
            # thread; reads below are ordered after it by
            # merge_ready/merge_futures.
            resolved: list[Receipt] = []

            def build_merges(results: list[Any]) -> list[Any]:
                bindings = []
                for result in results:
                    part_receipt = resolve(result.receipt, agg_receipt)
                    resolved.append(part_receipt)
                    bindings.append(make_receipt_binding(part_receipt))
                merge_jobs = []
                for query_index, sql in enumerate(sqls):
                    merge_builder = ExecutorEnvBuilder()
                    merge_builder.write({
                        "query": sql,
                        "query_index": query_index,
                        "num_partitions": count,
                    })
                    for part_binding in bindings:
                        merge_builder.write(part_binding)
                    merge_jobs.append(ProofJob.from_parts(
                        query_batch_merge_guest, merge_builder.build(),
                        self._opts))
                return merge_jobs

            schedule = self._engine.submit_fanout_multi(jobs,
                                                        build_merges)
            partition_cycles = 0
            for index, future in enumerate(schedule.partition_futures):
                with obs.tracer().span(
                        obs_names.SPAN_QUERY_PARALLEL_PARTITION,
                        partition=index) as span:
                    result = schedule.partition_result(future)
                    span.add_cycles(result.stats.total_cycles)
                    span.set("cached", result.cached)
                    partition_cycles += result.stats.total_cycles
            schedule.merge_ready.wait()
            if not schedule.merge_futures:
                if schedule.merge_future is not None:
                    # build_merges itself raised; the exception was
                    # parked on a pre-failed future.
                    schedule.merge_future.result()
                raise ProofError("batch merges were never submitted")

            responses: list[Any] = []
            merge_cycles = 0
            for query_index, future in enumerate(
                    schedule.merge_futures):
                with obs.tracer().span(
                        obs_names.SPAN_QUERY_PARALLEL_MERGE,
                        partitions=count,
                        query=query_index) as span:
                    try:
                        merge_result = future.result()
                    except Exception as exc:
                        # One query's merge death must not take down
                        # its batch-mates; surface it per-query.
                        responses.append(exc)
                        continue
                    span.add_cycles(merge_result.stats.total_cycles)
                    merge_cycles += merge_result.stats.total_cycles
                    receipt = resolve_all(merge_result.receipt,
                                          resolved)
                    responses.append(
                        _build_response(sqls[query_index], receipt))
            outer.add_cycles(partition_cycles + merge_cycles)
        registry = obs.registry()
        proven = sum(1 for r in responses
                     if not isinstance(r, Exception))
        registry.counter(obs_names.QUERY_PROOFS).inc(proven)
        registry.counter(obs_names.QUERY_PARTITIONS).inc(count)
        registry.histogram(obs_names.QUERY_SECONDS).observe(
            time.perf_counter() - start)
        return responses


__all__ = ["BatchQueryProver"]
