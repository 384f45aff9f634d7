"""Full-rebuild aggregation strategy (design-choice ablation).

The default :class:`~repro.core.aggregation.Aggregator` proves each
record as a verified Merkle *path update* — ≈ 2·depth hashes per record,
the access pattern the paper profiles (§7's ≈35k hashes at 3,000
records).  The alternative this module implements receives the **whole**
previous CLog in-guest, recomputes the previous root from scratch (one
hash per entry plus tree construction), applies the batch, and rebuilds
the new tree.

Cost comparison per round (hashes, ignoring constants):

* update-path:  ``records × 2·depth``
* full-rebuild: ``2 × (3·size + records)``  (leaf + construction, twice)

so rebuild wins when the batch is large relative to the dataset
(``records ≳ 3·size / depth``) and loses badly for small batches over a
large CLog.  ``benchmarks/bench_ablation_strategy.py`` sweeps the ratio
and locates the crossover.
"""

from __future__ import annotations

import time
from typing import Any

from ..errors import ChainError, ProofError
from ..merkle import MerkleTree
from ..obs import names as obs_names
from ..obs import runtime as obs
from ..merkle.tree import EMPTY_ROOTS
from ..netflow.records import NetFlowRecord
from ..serialization import decode, decode_stream
from ..zkvm import ExecutorEnvBuilder, Prover, ProverOpts, Receipt
from ..zkvm.guest import GuestEnv, guest_program
from ..zkvm.recursion import resolve
from .aggregation import (
    AggregationResult,
    RouterWindowInput,
    make_receipt_binding,
)
from .clog import CLogEntry, CLogState
from .guest_programs import (
    DECODE_CYCLES_PER_BYTE,
    MERGE_CYCLES,
    RECORD_TAG_BYTES,
    _guest_claim_digest,
    register_guest,
)
from .policy import DEFAULT_POLICY, AggregationPolicy


@guest_program("telemetry-aggregation-rebuild-v1")
def rebuild_aggregation_guest(env: GuestEnv) -> None:
    """Algorithm 1 with Step 3 done by full tree reconstruction.

    Input frames: header; (round > 0) previous-receipt binding; every
    previous CLog entry in slot order; one frame per router window.
    The journal layout is identical to the update-path guest, so rounds
    of either strategy chain interchangeably.
    """
    from ..hashing import TAG_COMMITMENT, TAG_RLOG

    header = env.read()
    round_index = header["round"]
    policy = AggregationPolicy.from_wire(header["policy"])
    prev_root = header["prev_root"]
    prev_size: int = header["prev_size"]
    hasher = env.merkle_hasher()

    # -- Step 1: Verify Previous Aggregation ---------------------------------
    if round_index > 0:
        binding = env.read()
        env.tick(len(binding["journal"]) * DECODE_CYCLES_PER_BYTE,
                 "verify")
        claim_digest = _guest_claim_digest(env, binding)
        prev_header = next(decode_stream(binding["journal"]), None)
        if not isinstance(prev_header, dict):
            env.abort("previous journal has no header")
        if prev_header.get("new_root") != prev_root \
                or prev_header.get("size") != prev_size \
                or prev_header.get("round") != round_index - 1:
            env.abort("previous journal does not match claimed prev "
                      "state")
        env.verify(binding["image_id"], claim_digest)
    else:
        if prev_size != 0 or prev_root != EMPTY_ROOTS[0]:
            env.abort("genesis round must start from an empty CLog")

    # -- Reconstruct and check the previous CLog -------------------------------
    slot_keys: list[bytes] = []
    entries: dict[bytes, dict[str, Any]] = {}
    prev_leaves = []
    payload_bytes = 0
    for frame in env.read_batch(prev_size):
        key_bytes: bytes = frame["key"]
        payload: bytes = frame["payload"]
        prev_leaves.append(hasher.leaf(key_bytes + payload))
        payload_bytes += len(payload)
        wire = decode(payload)
        if wire["key"] != key_bytes:
            env.abort("entry payload key does not match frame key")
        slot_keys.append(key_bytes)
        entries[key_bytes] = wire
    env.tick(payload_bytes * DECODE_CYCLES_PER_BYTE, "decode")
    if MerkleTree(prev_leaves, hasher=hasher).root != prev_root:
        env.abort("previous entries do not reproduce the committed "
                  "root")

    # -- Step 2 + 3: verify windows, aggregate into the dict --------------------
    windows: list[dict[str, Any]] = []
    record_tags: list[tuple[bytes, bytes]] = []  # (key, tag)
    for _ in range(header["num_routers"]):
        router_input = env.read()
        recomputed = env.hash_many(TAG_COMMITMENT,
                                   router_input["blobs"],
                                   category="commitment")
        if recomputed != router_input["commitment"]:
            env.abort(
                f"integrity check failed for router "
                f"{router_input['router_id']!r} window "
                f"{router_input['window_index']}: commitment mismatch")
        windows.append({
            "r": router_input["router_id"],
            "w": router_input["window_index"],
            "c": recomputed,
        })
        for blob in router_input["blobs"]:
            env.tick(len(blob) * DECODE_CYCLES_PER_BYTE
                     + MERGE_CYCLES, "aggregate")
            record = NetFlowRecord.from_wire(decode(blob))
            key_bytes = record.key.pack()
            existing_wire = entries.get(key_bytes)
            if existing_wire is None:
                entry = CLogEntry.fresh(record)
                slot_keys.append(key_bytes)
            else:
                entry = CLogEntry.from_wire(existing_wire) \
                    .merge(record, policy)
            entries[key_bytes] = entry.to_wire()
            tag = env.tagged_hash(
                TAG_RLOG, blob,
                category="commitment").raw[:RECORD_TAG_BYTES]
            record_tags.append((key_bytes, tag))

    # -- Rebuild the new tree ----------------------------------------------------
    slot_of = {key: slot for slot, key in enumerate(slot_keys)}
    new_leaves = []
    payloads: dict[bytes, bytes] = {}
    for key_bytes in slot_keys:
        payload = _encode_wire(env, entries[key_bytes])
        payloads[key_bytes] = payload
        new_leaves.append(hasher.leaf(key_bytes + payload))
    new_tree = MerkleTree(new_leaves, hasher=hasher)

    env.commit({
        "round": round_index,
        "prev_root": prev_root,
        "new_root": new_tree.root,
        "size": len(slot_keys),
        "depth": new_tree.depth,
        "windows": windows,
        "policy": policy.digest(),
        "entries": len(record_tags),
    })
    env.commit_many([
        {"s": slot_of[key_bytes], "l": new_leaves[slot_of[key_bytes]],
         "t": tag}
        for key_bytes, tag in record_tags
    ])


def _encode_wire(env: GuestEnv, wire: dict[str, Any]) -> bytes:
    from ..serialization import encode
    payload = encode(wire)
    env.tick(len(payload) * DECODE_CYCLES_PER_BYTE, "decode")
    return payload


register_guest(rebuild_aggregation_guest)


class RebuildAggregator:
    """Drop-in alternative to :class:`~repro.core.aggregation.Aggregator`
    proving rounds by full reconstruction."""

    def __init__(self, policy: AggregationPolicy = DEFAULT_POLICY,
                 prover_opts: ProverOpts | None = None,
                 prover: Any | None = None) -> None:
        self.policy = policy
        self._prover = prover if prover is not None \
            else Prover(prover_opts or ProverOpts.groth16())

    def aggregate(self, state: CLogState,
                  windows: list[RouterWindowInput],
                  prev_receipt: Receipt | None) -> AggregationResult:
        if state.round > 0 and prev_receipt is None:
            raise ChainError(
                f"round {state.round} requires the round "
                f"{state.round - 1} receipt")
        start = time.perf_counter()
        with obs.tracer().span(obs_names.SPAN_AGG_ROUND,
                               round=state.round,
                               windows=len(windows),
                               strategy="rebuild") as span:
            result = self._aggregate_inner(state, windows,
                                           prev_receipt)
            span.add_cycles(result.info.stats.total_cycles)
            span.set("records", result.record_count)
        registry = obs.registry()
        registry.counter(obs_names.AGG_ROUNDS, ("strategy",)).inc(
            strategy="rebuild")
        registry.counter(obs_names.AGG_RECORDS, ("strategy",)).inc(
            result.record_count, strategy="rebuild")
        registry.histogram(obs_names.AGG_SECONDS,
                           ("strategy",)).observe(
            time.perf_counter() - start, strategy="rebuild")
        return result

    def _aggregate_inner(self, state: CLogState,
                         windows: list[RouterWindowInput],
                         prev_receipt: Receipt | None
                         ) -> AggregationResult:
        ordered = sorted(windows,
                         key=lambda w: (w.window_index, w.router_id))
        builder = ExecutorEnvBuilder()
        builder.write({
            "round": state.round,
            "policy": self.policy.to_wire(),
            "prev_root": state.root,
            "prev_size": len(state),
            "num_routers": len(ordered),
        })
        if state.round > 0:
            builder.write(make_receipt_binding(prev_receipt))
        for row in state.leaf_rows():
            builder.write(row)
        for window in ordered:
            builder.write({
                "router_id": window.router_id,
                "window_index": window.window_index,
                "commitment": window.commitment,
                "blobs": list(window.blobs),
            })
        info = self._prover.prove(rebuild_aggregation_guest,
                                  builder.build())
        receipt = info.receipt
        if state.round > 0:
            receipt = resolve(receipt, prev_receipt)

        # Advance the host state the same way the guest did.
        new_state = state.clone()
        record_count = 0
        for window in ordered:
            for blob in window.blobs:
                record = NetFlowRecord.from_wire(decode(blob))
                existing = new_state.get(record.key)
                new_state.set_entry(
                    existing.merge(record, self.policy) if existing
                    else CLogEntry.fresh(record))
                record_count += 1
        new_state.round = state.round + 1
        header = next(receipt.journal.values(), None)
        if not isinstance(header, dict) \
                or header.get("new_root") != new_state.root:
            raise ProofError(
                "rebuild guest root diverged from the host state — "
                "host/guest aggregation logic is out of sync")
        return AggregationResult(
            round=state.round,
            receipt=receipt,
            info=info,
            new_state=new_state,
            record_count=record_count,
            new_root=new_state.root,
        )
