"""The work-queue scheduler: partition-and-merge without barriers.

§7 proposes partitioning a round's windows and proving the partitions
in parallel.  The naive schedule barriers per round: all partitions,
then the merge, then the next round may start.  With a pool of workers
that wastes capacity twice — idle workers while a round's last
partition finishes, and an idle pool between rounds.

:meth:`ProvingEngine.prove_rounds` instead enqueues the partition jobs
of **every** pending round up front.  A per-round countdown submits
that round's merge job the moment its own partitions are done, so merge
proofs interleave with other rounds' partition proofs and the pool
stays saturated.  Round failures are isolated: a failed partition
poisons only its round's outcome (the merge is never submitted), which
is what lets the daemon quarantine one window while the rest of the
queue proves on.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any

from ..errors import ConfigurationError
from ..obs import names as obs_names
from ..obs import runtime as obs
from ..zkvm import ExecutorEnvBuilder, ProverOpts
from ..zkvm.costmodel import CostModel
from ..zkvm.recursion import resolve_all
from .cache import ReceiptCache
from .jobs import JobResult, ProofJob
from .pool import PooledProver, ProverPool, resolve_pool_config

# The partition/merge guests and result type live in repro.core, which
# imports this package — resolve lazily at call time.


@dataclass
class RoundOutcome:
    """One round's result-or-error from a multi-round schedule."""

    index: int
    result: Any | None = None
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def partition_windows(windows: list[Any],
                      num_partitions: int | None) -> list[list[Any]]:
    """Router-aligned partitioning (a window commitment is checked
    whole, so a router's windows never split across partitions)."""
    if not windows:
        raise ConfigurationError("no windows to aggregate")
    if num_partitions is not None and num_partitions < 1:
        raise ConfigurationError("num_partitions must be >= 1")
    by_router: dict[str, list[Any]] = {}
    for window in sorted(windows, key=lambda w: (w.router_id,
                                                 w.window_index)):
        by_router.setdefault(window.router_id, []).append(window)
    groups = list(by_router.values())
    count = min(num_partitions or len(groups), len(groups))
    partitions: list[list[Any]] = [[] for _ in range(count)]
    for index, group in enumerate(groups):
        partitions[index % count].extend(group)
    return partitions


class ProvingEngine:
    """A pool + cache + scheduler, owning the parallel prove pipeline."""

    def __init__(self, policy: Any = None,
                 prover_opts: ProverOpts | None = None,
                 backend: str | None = None,
                 max_workers: int | None = None,
                 cache: ReceiptCache | None = None,
                 store: Any = None,
                 injector: Any | None = None,
                 nodes: Any = None,
                 cluster_opts: Any = None) -> None:
        from ..core.policy import DEFAULT_POLICY
        self.policy = policy or DEFAULT_POLICY
        self.opts = prover_opts or ProverOpts.succinct()
        if nodes and backend is None:
            backend = "remote"
        backend, workers = resolve_pool_config(
            self.opts, backend=backend, max_workers=max_workers)
        if cache is None:
            cache = ReceiptCache(store=store)
        self.cache = cache
        self.pool = ProverPool(backend=backend, max_workers=workers,
                               cache=cache, injector=injector,
                               nodes=nodes, cluster_opts=cluster_opts)

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ProvingEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        self.pool.shutdown()

    def prover(self, opts: ProverOpts | None = None) -> PooledProver:
        """A sequential-prover stand-in routed through this engine."""
        return PooledProver(self.pool, opts or self.opts)

    def snapshot(self) -> dict[str, Any]:
        return self.pool.snapshot()

    # -- scheduling ----------------------------------------------------------

    def prove_round(self, windows: list[Any],
                    num_partitions: int | None = None) -> Any:
        """Prove one partition-and-merge round; raises on failure."""
        outcome = self.prove_rounds([windows], num_partitions)[0]
        if outcome.error is not None:
            raise outcome.error
        return outcome.result

    def prove_rounds(self, rounds: list[list[Any]],
                     num_partitions: int | None = None
                     ) -> list[RoundOutcome]:
        """Prove several independent rounds through one work queue.

        Every round's partition jobs are submitted immediately; each
        round's merge job is submitted from a completion callback as
        soon as *its* partitions are done — no cross-round barrier.
        Returns one :class:`RoundOutcome` per input round, in order.
        """
        from ..core.guest_programs import partition_guest
        start = time.perf_counter()
        schedules = []
        for index, windows in enumerate(rounds):
            partitions = partition_windows(windows, num_partitions)
            obs.registry().counter(obs_names.PARALLEL_PARTITIONS).inc(
                len(partitions))
            schedules.append(_RoundSchedule(index, partitions))
        # Enqueue every round's partition jobs before waiting on any —
        # this is the work queue: partitions of round k+1 prove while
        # round k merges.
        for schedule in schedules:
            futures = []
            for pindex, partition in enumerate(schedule.partitions):
                job = ProofJob.from_parts(
                    partition_guest,
                    _partition_env(self.policy, pindex, partition),
                    self.opts)
                futures.append(self.pool.submit(job))
            schedule.arm(futures, self._submit_merge)
        outcomes = [self._collect(schedule) for schedule in schedules]
        elapsed = time.perf_counter() - start
        registry = obs.registry()
        registry.histogram(obs_names.ENGINE_ROUND_REAL_SECONDS).observe(
            elapsed / max(len(schedules), 1))
        model = CostModel()
        for outcome in outcomes:
            if outcome.ok:
                registry.histogram(
                    obs_names.ENGINE_ROUND_MODELED_SECONDS).observe(
                    outcome.result.modeled_seconds(model))
        return outcomes

    def submit_fanout(self, jobs: list[ProofJob],
                      build_merge: Any) -> "_RoundSchedule":
        """Submit sibling jobs whose merge folds their results.

        The generic form of the partition-and-merge schedule: every job
        in ``jobs`` enters the work queue immediately, and
        ``build_merge(results)`` — called from a completion callback
        the moment the last sibling finishes — returns the merge
        :class:`ProofJob`, which is submitted without a barrier.  The
        caller drives collection through the returned schedule:
        ``partition_futures`` (one per job, in order), ``merge_ready``
        (set once the merge is submitted, or once a sibling failure
        poisons the fan-out), and ``merge_future`` (``None`` iff
        poisoned).  Partitioned query proving routes through here so
        query jobs share the pool, cache, and fault sites with
        aggregation rounds.
        """
        if not jobs:
            raise ConfigurationError("fan-out needs at least one job")

        def submit(schedule: "_RoundSchedule",
                   results: list[JobResult]) -> None:
            schedule.merge_future = self.pool.submit(build_merge(results))
            schedule.merge_ready.set()

        schedule = _RoundSchedule(0, [[job] for job in jobs])
        schedule.arm([self.pool.submit(job) for job in jobs], submit)
        return schedule

    def submit_fanout_multi(self, jobs: list[ProofJob],
                            build_merges: Any) -> "_RoundSchedule":
        """:meth:`submit_fanout` with a fanned-back-out merge stage.

        ``build_merges(results)`` returns a **list** of merge
        :class:`ProofJob` s — one per downstream consumer — all
        submitted together the moment the last sibling finishes.  This
        is batched query proving's shape: one partition scan shared by
        N queries, then N independent merge proofs so every query still
        gets its own receipt.  The caller collects through
        ``schedule.merge_futures`` (in ``build_merges`` output order);
        ``merge_ready`` is set once they are submitted, or once a
        sibling failure poisons the fan-out (``merge_futures`` stays
        empty and ``merge_future`` is ``None`` — unless ``build_merges``
        itself raised, in which case ``merge_future`` carries the
        parked exception).
        """
        if not jobs:
            raise ConfigurationError("fan-out needs at least one job")

        def submit(schedule: "_RoundSchedule",
                   results: list[JobResult]) -> None:
            merge_jobs = build_merges(results)
            if not merge_jobs:
                raise ConfigurationError(
                    "multi-merge fan-out built no merge jobs")
            schedule.merge_futures = [self.pool.submit(job)
                                      for job in merge_jobs]
            schedule.merge_future = schedule.merge_futures[0]
            schedule.merge_ready.set()

        schedule = _RoundSchedule(0, [[job] for job in jobs])
        schedule.arm([self.pool.submit(job) for job in jobs], submit)
        return schedule

    # -- internals -----------------------------------------------------------

    def _submit_merge(self, schedule: "_RoundSchedule",
                      partition_results: list[JobResult]) -> None:
        """Completion callback: this round's partitions are all proven."""
        from ..core.aggregation import make_receipt_binding
        from ..core.guest_programs import merge_guest
        builder = ExecutorEnvBuilder()
        builder.write({
            "round": 0,
            "policy": self.policy.to_wire(),
            "num_partitions": len(partition_results),
        })
        for result in partition_results:
            builder.write(make_receipt_binding(result.receipt))
        job = ProofJob.from_parts(merge_guest, builder.build(),
                                  self.opts)
        schedule.merge_future = self.pool.submit(job)
        schedule.merge_ready.set()

    def _collect(self, schedule: "_RoundSchedule") -> RoundOutcome:
        """Wait out one round, emitting the host-side span tree."""
        from ..core.parallel import ParallelAggregationResult
        try:
            with obs.tracer().span(
                    obs_names.SPAN_PARALLEL_ROUND,
                    partitions=len(schedule.partitions)):
                partition_results = []
                for pindex, future in enumerate(
                        schedule.partition_futures):
                    with obs.tracer().span(
                            obs_names.SPAN_PARALLEL_PARTITION,
                            partition=pindex,
                            routers=len(schedule.partitions[pindex])
                            ) as span:
                        result = schedule.partition_result(future)
                        span.add_cycles(result.stats.total_cycles)
                        span.set("cached", result.cached)
                    partition_results.append(result)
                schedule.merge_ready.wait()
                with obs.tracer().span(
                        obs_names.SPAN_PARALLEL_MERGE,
                        partitions=len(partition_results)) as span:
                    merge_result = schedule.merge_future.result()
                    span.add_cycles(merge_result.stats.total_cycles)
                    receipt = resolve_all(
                        merge_result.receipt,
                        [r.receipt for r in partition_results])
        except Exception as exc:
            return RoundOutcome(index=schedule.index, error=exc)
        header = next(receipt.journal.values())
        return RoundOutcome(
            index=schedule.index,
            result=ParallelAggregationResult(
                receipt=receipt,
                partition_infos=tuple(partition_results),
                merge_info=merge_result,
                new_root=header["new_root"],
                size=header["size"],
            ))


class _RoundSchedule:
    """Countdown latch from partition futures to the merge submission."""

    def __init__(self, index: int, partitions: list[list[Any]]) -> None:
        self.index = index
        self.partitions = partitions
        self.partition_futures: list[Future] = []
        self.merge_future: Future | None = None
        self.merge_futures: list[Future] = []
        self.merge_ready = threading.Event()
        self._lock = threading.Lock()
        self._remaining = 0
        self._failed = False

    def partition_result(self, future: Future) -> Any:
        """``future.result()`` for one of this schedule's siblings.

        On failure, first wait until every sibling has finished (a
        poisoned fan-out sets ``merge_ready`` only then): siblings that
        succeed are in the receipt cache before the caller can retry,
        and no job of this fan-out outlives the failed call.
        """
        try:
            return future.result()
        except Exception:
            self.merge_ready.wait()
            raise

    def arm(self, futures: list[Future],
            submit_merge: Any) -> None:
        self.partition_futures = futures
        self._remaining = len(futures)
        self._submit_merge = submit_merge
        for future in futures:
            future.add_done_callback(self._partition_done)

    def _partition_done(self, future: Future) -> None:
        with self._lock:
            self._remaining -= 1
            if future.exception() is not None:
                self._failed = True
            ready = self._remaining == 0
            failed = self._failed
        if not ready:
            return
        if failed:
            # No merge for a poisoned round; unblock the collector so
            # it can surface the partition error.
            self.merge_ready.set()
            return
        try:
            self._submit_merge(
                self, [f.result() for f in self.partition_futures])
        except Exception as exc:
            # Anything thrown before submit() hands back a future
            # (receipt-binding/encoding bugs) runs on an executor
            # callback thread where a raise would vanish — park the
            # exception on a pre-failed merge future so _collect
            # surfaces it as the round's error.
            failed: Future = Future()
            failed.set_exception(exc)
            self.merge_future = failed
            self.merge_ready.set()


def _partition_env(policy: Any, index: int,
                   windows: list[Any]) -> Any:
    builder = ExecutorEnvBuilder()
    builder.write({
        "partition": index,
        "policy": policy.to_wire(),
        "num_routers": len(windows),
    })
    for window in windows:
        builder.write({
            "router_id": window.router_id,
            "window_index": window.window_index,
            "commitment": window.commitment,
            "blobs": list(window.blobs),
        })
    return builder.build()
