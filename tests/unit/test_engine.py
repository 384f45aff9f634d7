"""Unit tests for the proving engine: jobs, cache, pool, scheduler.

The engine's core promise is that *where* a proof runs (serial, thread
pool, process pool, or cache replay) never changes *what* it proves:
receipts must be byte-identical across every execution path.  Most
tests here pin that promise down; the rest cover the operational
machinery — LRU + persistent cache tiers, pool lifecycle, worker-crash
recovery, and the multi-round work-queue scheduler.
"""

import os
import threading

import pytest

from repro.commitments import window_digest
from repro.core.aggregation import RouterWindowInput
from repro.core.guest_programs import (
    aggregation_guest,
    query_guest,
    register_guest,
    resolve_guest,
)
from repro.engine import (
    BACKENDS,
    JobResult,
    PooledProver,
    ProofJob,
    ProverPool,
    ProvingEngine,
    ReceiptCache,
    execute_job,
    partition_windows,
    resolve_pool_config,
    run_job_wire,
)
from repro.engine.jobs import encode_job
from repro.errors import (
    ConfigurationError,
    ProofError,
    SerializationError,
    StorageError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.hashing import sha256
from repro.obs.metrics import MetricsRegistry
from repro.serialization import decode, encode
from repro.storage import MemoryLogStore
from repro.zkvm import ExecutorEnvBuilder, GuestProgram, Prover, ProverOpts

from ..conftest import make_record


# -- a tiny deterministic guest for pool-level tests ------------------------

def _echo_guest_fn(env):
    value = env.read()
    env.tick(100)
    env.commit({"echo": value})


echo_guest = register_guest(GuestProgram(_echo_guest_fn,
                                         name="test/echo"))


def _crash_guest_fn(env):
    import os as _os
    _os._exit(13)  # simulates a worker process dying mid-proof


crash_guest = register_guest(GuestProgram(_crash_guest_fn,
                                          name="test/crash"))


_held_release = threading.Event()


def _held_guest_fn(env):
    value = env.read()
    _held_release.wait(timeout=30)  # in-process backends only
    env.commit({"held": value})


held_guest = register_guest(GuestProgram(_held_guest_fn,
                                         name="test/held"))


def _failing_guest_fn(env):
    raise ProofError("partition failed at once")


failing_guest = register_guest(GuestProgram(_failing_guest_fn,
                                            name="test/failing"))


def echo_job(value="hello", **opts):
    builder = ExecutorEnvBuilder()
    builder.write(value)
    return ProofJob.from_parts(echo_guest, builder.build(),
                               ProverOpts(**opts) if opts else None)


def router_inputs(n_routers=2, rows=2):
    inputs = []
    for i in range(1, n_routers + 1):
        records = [make_record(router_id=f"r{i}", sport=2000 + j)
                   for j in range(rows)]
        blobs = tuple(r.to_bytes() for r in records)
        inputs.append(RouterWindowInput(
            router_id=f"r{i}", window_index=0,
            commitment=window_digest(list(blobs)), blobs=blobs))
    return inputs


class TestProofJob:
    def test_from_parts_captures_frames_and_opts(self):
        builder = ExecutorEnvBuilder()
        builder.write({"a": 1})
        env = builder.build()
        from repro.zkvm.receipt import ReceiptKind
        job = ProofJob.from_parts(
            echo_guest, env,
            ProverOpts(kind=ReceiptKind.SUCCINCT, num_queries=32))
        assert job.guest_id == "test/echo"
        assert job.frames == tuple(env.frames)
        assert job.kind == "succinct"
        assert job.num_queries == 32
        assert job.env_commitment == env.digest

    def test_wire_round_trip(self):
        job = echo_job("payload")
        restored = ProofJob.from_wire(decode(encode(job.to_wire())))
        assert restored == job

    def test_malformed_wire_raises(self):
        with pytest.raises(SerializationError):
            ProofJob.from_wire({"guest_id": "x"})

    def test_opts_digest_ignores_pool_knobs(self):
        """pool_backend / prove_workers shape *scheduling*, not the
        statement — two jobs differing only in those knobs must share a
        cache identity."""
        builder = ExecutorEnvBuilder()
        builder.write("v")
        env = builder.build()
        plain = ProofJob.from_parts(echo_guest, env, ProverOpts())
        pooled = ProofJob.from_parts(
            echo_guest, env,
            ProverOpts(pool_backend="process", prove_workers=8))
        assert plain.opts_digest == pooled.opts_digest
        assert plain.cache_key(echo_guest.image_id) == \
            pooled.cache_key(echo_guest.image_id)

    def test_opts_digest_varies_with_statement_shape(self):
        assert echo_job().opts_digest != \
            echo_job(kind=echo_job().prover_opts().kind,
                     num_queries=64).opts_digest

    def test_cache_key_varies_with_guest_code(self):
        """Same env, different image id → different address: a guest
        code change can never replay a stale receipt."""
        job = echo_job()
        other_image = sha256(b"different guest code")
        assert job.cache_key(echo_guest.image_id) != \
            job.cache_key(other_image)

    def test_cache_key_varies_with_env(self):
        assert echo_job("a").cache_key(echo_guest.image_id) != \
            echo_job("b").cache_key(echo_guest.image_id)


class TestJobResult:
    def test_wire_round_trip(self):
        result = execute_job(echo_job("wire"))
        restored = JobResult.from_wire(decode(encode(result.to_wire())))
        assert restored.receipt.to_wire() == result.receipt.to_wire()
        assert restored.stats == result.stats
        assert restored.cached is False

    def test_replace_cached(self):
        result = execute_job(echo_job())
        warm = result.replace_cached(True)
        assert warm.cached is True
        assert warm.receipt is result.receipt

    def test_malformed_wire_raises(self):
        with pytest.raises(SerializationError):
            JobResult.from_wire({"receipt": {}})

    def test_run_job_wire_round_trip(self):
        """The process-pool entry point is a pure bytes → bytes function
        equivalent to executing the job in this process."""
        job = echo_job("cross-process")
        local = execute_job(job)
        shipped = JobResult.from_wire(decode(run_job_wire(
            encode_job(job, capture_obs=False))))
        assert shipped.receipt.to_wire() == local.receipt.to_wire()


class TestGuestRegistry:
    def test_resolve_registered(self):
        assert resolve_guest("test/echo") is echo_guest
        assert resolve_guest(aggregation_guest.name) is aggregation_guest
        assert resolve_guest(query_guest.name) is query_guest

    def test_reregister_same_program_idempotent(self):
        assert register_guest(echo_guest) is echo_guest

    def test_name_collision_rejected(self):
        impostor = GuestProgram(lambda env: env.commit(1),
                                name="test/echo")
        with pytest.raises(ConfigurationError):
            register_guest(impostor)

    def test_unknown_guest(self):
        with pytest.raises(ConfigurationError):
            resolve_guest("no/such/guest")


class TestReceiptCache:
    def test_miss_then_hit(self):
        cache = ReceiptCache()
        job = echo_job()
        key = job.cache_key(echo_guest.image_id)
        assert cache.get(key) is None
        cache.put(key, execute_job(job))
        hit = cache.get(key)
        assert hit is not None and hit.cached is True
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_lru_eviction(self):
        cache = ReceiptCache(memory_entries=2)
        results = {}
        for value in ("a", "b", "c"):
            job = echo_job(value)
            key = job.cache_key(echo_guest.image_id)
            results[value] = key
            cache.put(key, execute_job(job))
        # "a" is the least recently used of three entries in a 2-slot
        # cache — evicted; "b" and "c" survive.
        assert cache.get(results["a"]) is None
        assert cache.get(results["b"]) is not None
        assert cache.get(results["c"]) is not None

    def test_persistent_tier_survives_new_cache(self):
        store = MemoryLogStore()
        job = echo_job("durable")
        key = job.cache_key(echo_guest.image_id)
        ReceiptCache(store=store).put(key, execute_job(job))
        fresh = ReceiptCache(store=store)
        hit = fresh.get(key)
        assert hit is not None and hit.cached is True
        assert fresh.stats()["hits"] == 1

    def test_persistent_hit_promoted_to_memory(self):
        store = MemoryLogStore()
        job = echo_job("promote")
        key = job.cache_key(echo_guest.image_id)
        ReceiptCache(store=store).put(key, execute_job(job))
        fresh = ReceiptCache(store=store)
        fresh.get(key)
        assert fresh.stats()["memory_entries"] == 1

    def test_corrupt_persistent_entry_is_a_miss(self):
        store = MemoryLogStore()
        cache = ReceiptCache(store=store)
        job = echo_job("corrupt")
        key = job.cache_key(echo_guest.image_id)
        store.put_checkpoint(f"receipt-cache/{key.hex()}",
                             b"not a receipt")
        assert cache.get(key) is None

    def test_degrades_to_memory_only_on_storage_error(self):
        class ExplodingStore(MemoryLogStore):
            def put_checkpoint(self, name, data):
                raise StorageError("disk on fire")

        cache = ReceiptCache(store=ExplodingStore())
        job = echo_job("degrade")
        key = job.cache_key(echo_guest.image_id)
        cache.put(key, execute_job(job))  # must not raise
        assert cache.get(key) is not None  # memory tier still serves
        assert cache.stats()["persistent"] is False

    def test_obs_snapshot_stripped_from_persistent_tier(self):
        store = MemoryLogStore()
        cache = ReceiptCache(store=store)
        job = echo_job("snap")
        key = job.cache_key(echo_guest.image_id)
        result = execute_job(job)
        cache.put(key, JobResult(receipt=result.receipt,
                                 stats=result.stats,
                                 obs_snapshot={"counters": {}}))
        fresh = ReceiptCache(store=store)
        assert fresh.get(key).obs_snapshot is None


class TestPoolConfig:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROVE_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_PROVE_BACKEND", raising=False)
        assert resolve_pool_config() == ("thread", None)

    def test_explicit_args_win(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROVE_WORKERS", "7")
        monkeypatch.setenv("REPRO_PROVE_BACKEND", "thread")
        assert resolve_pool_config(backend="serial", max_workers=2) == \
            ("serial", 2)

    def test_opts_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROVE_WORKERS", "7")
        opts = ProverOpts(pool_backend="thread", prove_workers=3)
        assert resolve_pool_config(opts) == ("thread", 3)

    def test_env_workers_selects_process_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROVE_WORKERS", "2")
        assert resolve_pool_config() == ("process", 2)

    def test_bad_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_pool_config(backend="gpu")

    def test_env_nodes_selects_remote_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROVE_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_PROVE_BACKEND", raising=False)
        monkeypatch.setenv("REPRO_PROVE_NODES",
                           "127.0.0.1:7601,127.0.0.1:7602")
        assert resolve_pool_config() == ("remote", None)

    def test_explicit_backend_beats_env_nodes(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROVE_NODES", "127.0.0.1:7601")
        assert resolve_pool_config(backend="serial") == ("serial", None)

    def test_env_nodes_parsed_and_validated(self, monkeypatch):
        from repro.engine import env_nodes
        monkeypatch.setenv("REPRO_PROVE_NODES",
                           " 127.0.0.1:7601 , 127.0.0.1:7602 ")
        assert env_nodes() == ("127.0.0.1:7601", "127.0.0.1:7602")
        monkeypatch.setenv("REPRO_PROVE_NODES", "no-port")
        with pytest.raises(ConfigurationError):
            env_nodes()

    def test_remote_backend_needs_nodes(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROVE_NODES", raising=False)
        with pytest.raises(ConfigurationError):
            ProverPool(backend="remote")

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ProverPool(backend="thread", max_workers=0)


class TestProverPool:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_receipt_identical_to_direct_prover(self, backend):
        job = echo_job(f"via-{backend}")
        direct = Prover(job.prover_opts()).prove(
            echo_guest, job.env_input())
        with ProverPool(backend=backend, max_workers=2) as pool:
            result = pool.submit(job).result(timeout=30)
        assert result.receipt.to_wire() == direct.receipt.to_wire()
        assert result.cached is False

    def test_process_backend_receipt_identical(self):
        job = echo_job("via-process")
        direct = Prover(job.prover_opts()).prove(
            echo_guest, job.env_input())
        with ProverPool(backend="process", max_workers=2) as pool:
            result = pool.submit(job).result(timeout=120)
        assert result.receipt.to_wire() == direct.receipt.to_wire()

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_second_submit_is_cached(self, backend):
        job = echo_job("cache-me")
        with ProverPool(backend=backend, max_workers=2,
                        cache=ReceiptCache()) as pool:
            cold = pool.submit(job).result(timeout=30)
            warm = pool.submit(job).result(timeout=30)
            snap = pool.snapshot()
        assert cold.cached is False
        assert warm.cached is True
        assert warm.receipt.to_wire() == cold.receipt.to_wire()
        assert snap["jobs_cached"] == 1

    def test_shared_cache_across_pools(self):
        cache = ReceiptCache()
        job = echo_job("shared")
        with ProverPool(backend="serial", cache=cache) as pool:
            pool.submit(job).result(timeout=30)
        with ProverPool(backend="thread", cache=cache) as pool:
            assert pool.submit(job).result(timeout=30).cached is True

    def test_guest_abort_propagates(self):
        from repro.errors import GuestAbort

        def aborting(env):
            env.abort("bad input")

        program = register_guest(GuestProgram(aborting,
                                              name="test/abort"))
        builder = ExecutorEnvBuilder()
        job = ProofJob.from_parts(program, builder.build())
        with ProverPool(backend="thread") as pool:
            with pytest.raises(GuestAbort):
                pool.submit(job).result(timeout=30)
            assert pool.snapshot()["jobs_failed"] == 1

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_submit_after_shutdown_raises_typed(self, backend):
        """Submitting to a shut-down pool must raise the typed
        PoolShutdown (a ProofError subclass), never an opaque
        executor-internal RuntimeError — callers race shutdown in the
        daemon and cluster paths and need to catch it precisely."""
        from repro.errors import PoolShutdown
        pool = ProverPool(backend=backend, max_workers=1)
        if backend != "process":
            # warm the inner executor so shutdown exercises a live one
            pool.submit(echo_job("warm")).result(timeout=30)
        pool.shutdown()
        with pytest.raises(PoolShutdown):
            pool.submit(echo_job())
        # idempotent: a second shutdown and submit behave the same
        pool.shutdown()
        with pytest.raises(ProofError):
            pool.submit(echo_job())

    def test_injected_fault_fails_job_not_pool(self):
        injector = FaultInjector(
            FaultPlan.parse("engine.worker:proof:count=1", seed=0))
        with ProverPool(backend="serial", injector=injector) as pool:
            with pytest.raises(ProofError):
                pool.submit(echo_job("faulted")).result(timeout=30)
            # The pool survives the injected failure.
            ok = pool.submit(echo_job("after")).result(timeout=30)
        assert ok.receipt is not None
        assert injector.stats()["injected"]["engine.worker"] == 1

    def test_worker_process_crash_recovers(self):
        """A worker calling os._exit kills the whole executor
        (BrokenProcessPool).  The pool must surface a ProofError —
        not the raw concurrent.futures internals — and rebuild the
        executor so the next job proves."""
        builder = ExecutorEnvBuilder()
        crash_job = ProofJob.from_parts(crash_guest, builder.build())
        with ProverPool(backend="process", max_workers=1) as pool:
            with pytest.raises(ProofError, match="worker process"):
                pool.submit(crash_job).result(timeout=120)
            recovered = pool.submit(
                echo_job("phoenix")).result(timeout=120)
        assert recovered.receipt is not None

    def test_pooled_prover_adapts_prove_interface(self):
        builder = ExecutorEnvBuilder()
        builder.write("adapted")
        env = builder.build()
        with ProverPool(backend="serial") as pool:
            prover = PooledProver(pool, ProverOpts())
            info = prover.prove(echo_guest, env)
        direct = Prover(ProverOpts()).prove(echo_guest, env)
        assert info.receipt.to_wire() == direct.receipt.to_wire()


class TestMergeSnapshot:
    def test_counters_add_and_gauges_overwrite(self):
        a = MetricsRegistry()
        a.counter("repro_engine_jobs_total",
                  ("guest", "outcome")).inc(2, guest="g",
                                            outcome="proved")
        a.gauge("repro_engine_queue_depth").set(5)
        b = MetricsRegistry()
        b.counter("repro_engine_jobs_total",
                  ("guest", "outcome")).inc(3, guest="g",
                                            outcome="proved")
        b.gauge("repro_engine_queue_depth").set(1)
        a.merge_snapshot(b.snapshot())
        assert a.counter("repro_engine_jobs_total",
                         ("guest", "outcome")).value(
                             guest="g", outcome="proved") == 5
        assert a.gauge("repro_engine_queue_depth").value() == 1

    def test_histograms_merge(self):
        a = MetricsRegistry()
        a.histogram("repro_engine_job_seconds",
                    ("guest",)).observe(0.5, guest="g")
        b = MetricsRegistry()
        b.histogram("repro_engine_job_seconds",
                    ("guest",)).observe(1.5, guest="g")
        a.merge_snapshot(b.snapshot())
        (series,) = a.snapshot()["histograms"][0]["series"]
        assert series["count"] == 2
        assert series["sum"] == pytest.approx(2.0)

    def test_mismatched_buckets_rejected(self):
        a = MetricsRegistry()
        a.histogram("h", (), buckets=(1.0, 2.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", (), buckets=(1.0, 5.0)).observe(0.5)
        with pytest.raises(ConfigurationError):
            a.merge_snapshot(b.snapshot())


class TestPartitionWindows:
    def test_round_robin_by_router(self):
        inputs = router_inputs(n_routers=4)
        parts = partition_windows(inputs, 2)
        assert len(parts) == 2
        assert sum(len(p) for p in parts) == 4

    def test_clamps_to_router_count(self):
        assert len(partition_windows(router_inputs(2), 100)) == 2

    def test_rejects_bad_partition_count(self):
        with pytest.raises(ConfigurationError):
            partition_windows(router_inputs(2), 0)

    def test_rejects_empty_windows(self):
        with pytest.raises(ConfigurationError):
            partition_windows([], 2)


class TestProvingEngine:
    def test_round_matches_parallel_aggregator(self):
        """The engine's scheduler is the machinery under
        ParallelAggregator — both must land on the same root."""
        from repro.core.parallel import ParallelAggregator
        inputs = router_inputs(n_routers=3)
        via_agg = ParallelAggregator().aggregate(inputs)
        with ProvingEngine(backend="thread", max_workers=2) as engine:
            via_engine = engine.prove_round(inputs)
        assert via_engine.new_root == via_agg.new_root
        assert via_engine.receipt.to_wire() == \
            via_agg.receipt.to_wire()

    def test_prove_rounds_work_queue(self):
        """Multiple rounds flow through one pool; each produces its
        own verifiable merge proof."""
        rounds = [router_inputs(n_routers=2, rows=2),
                  router_inputs(n_routers=3, rows=1)]
        with ProvingEngine(backend="thread", max_workers=2) as engine:
            outcomes = engine.prove_rounds(rounds)
        assert [o.ok for o in outcomes] == [True, True]
        assert outcomes[0].result.new_root != \
            outcomes[1].result.new_root

    def test_failed_round_isolated(self):
        """A fault that sinks round 0's partitions must not stall or
        poison round 1 riding the same pool."""
        injector = FaultInjector(
            FaultPlan.parse("engine.worker:proof:count=2", seed=0))
        rounds = [router_inputs(n_routers=2, rows=2),
                  router_inputs(n_routers=2, rows=1)]
        with ProvingEngine(backend="serial",
                           injector=injector) as engine:
            outcomes = engine.prove_rounds(rounds, num_partitions=2)
        assert outcomes[0].ok is False
        assert isinstance(outcomes[0].error, ProofError)
        assert outcomes[1].ok is True

    def test_merge_submission_failure_surfaces(self, monkeypatch):
        """An exception thrown while *building* the merge job (after
        every partition proved) runs on a future callback — it must
        come back as the round's error, not vanish into the callback
        thread leaving _collect to crash on a None merge future."""
        boom = SerializationError("receipt binding exploded")

        def broken_submit(schedule, partition_results):
            raise boom

        with ProvingEngine(backend="serial") as engine:
            monkeypatch.setattr(engine, "_submit_merge", broken_submit)
            outcomes = engine.prove_rounds([router_inputs(2)],
                                           num_partitions=2)
        assert outcomes[0].ok is False
        assert outcomes[0].error is boom

    def test_failed_sibling_waits_for_the_rest_of_the_fanout(self):
        """A sibling that fails at once is not raised to the collector
        while another sibling is still proving: by the time the error
        propagates, the rest of the fan-out has finished and sits in
        the receipt cache, so an immediate retry replays it."""
        builder = ExecutorEnvBuilder()
        builder.write("sibling")
        held_job = ProofJob.from_parts(held_guest, builder.build())
        fail_job = ProofJob.from_parts(failing_guest,
                                       ExecutorEnvBuilder().build())
        errors = []
        _held_release.clear()
        try:
            with ProvingEngine(backend="thread",
                               max_workers=2) as engine:
                schedule = engine.submit_fanout(
                    [fail_job, held_job],
                    lambda results: echo_job("merge"))
                failed, held = schedule.partition_futures
                assert isinstance(failed.exception(timeout=30),
                                  ProofError)

                def collect():
                    try:
                        schedule.partition_result(failed)
                    except ProofError as exc:
                        errors.append(exc)

                collector = threading.Thread(target=collect)
                collector.start()
                collector.join(timeout=0.3)
                assert collector.is_alive() and not held.done()
                _held_release.set()
                collector.join(timeout=30)
                assert not collector.is_alive()
                assert held.done() and len(errors) == 1
                retry = engine.pool.submit(held_job).result(timeout=30)
                assert retry.cached is True
        finally:
            _held_release.set()

    def test_warm_round_replays_from_cache(self):
        """Re-proving an identical round must hit the cache for every
        partition and the merge."""
        inputs = router_inputs(n_routers=2)
        with ProvingEngine(backend="serial") as engine:
            cold = engine.prove_round(inputs)
            warm = engine.prove_round(inputs)
            snap = engine.snapshot()
        assert warm.receipt.to_wire() == cold.receipt.to_wire()
        assert all(info.cached for info in warm.partition_infos)
        assert warm.merge_info.cached is True
        assert snap["jobs_cached"] == 3  # 2 partitions + 1 merge

    def test_snapshot_shape(self):
        with ProvingEngine(backend="serial") as engine:
            engine.prove_round(router_inputs(2))
            snap = engine.snapshot()
        assert snap["backend"] == "serial"
        assert snap["jobs_done"] >= 3
        assert set(snap["cache"]) >= {"hits", "misses", "hit_rate"}

    def test_all_backends_exported(self):
        assert BACKENDS == ("serial", "thread", "process", "remote")
