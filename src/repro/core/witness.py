"""Host-side witness construction for the aggregation guest.

The guest cannot hold the whole previous Merkle tree; instead, the host
prepares a *witness*: for each incoming record, in deterministic order,
either

* ``update`` — the flow exists: the entry's current payload plus the
  sibling path proving it sits under the *current* root (proofs are
  generated against the evolving intermediate tree, so sequential
  verified updates compose soundly), or
* ``insert`` — a vacant-slot proof for the append position, preceded by
  a ``grow`` step when the padded capacity is exhausted.

The guest verifies each step against its running root, applies the
policy merge, recomputes the root along the same siblings, and thereby
reproduces exactly the host's final root — or aborts (Algorithm 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..hashing import Digest
from ..merkle.tree import EMPTY_ROOTS
from ..netflow.records import NetFlowRecord
from .clog import CLogEntry, CLogState
from .policy import AggregationPolicy

OP_UPDATE = "update"
OP_INSERT = "insert"
OP_GROW = "grow"


@dataclass(frozen=True)
class AggregationWitness:
    """Everything the aggregation guest needs beyond the raw logs."""

    ops: tuple[dict[str, Any], ...]
    prev_root: Digest
    prev_size: int
    prev_depth: int
    new_root: Digest
    new_state: CLogState

    @property
    def op_count(self) -> int:
        return len(self.ops)


def build_witness(state: CLogState, records: list[NetFlowRecord],
                  policy: AggregationPolicy) -> AggregationWitness:
    """Build the per-record op list by replaying the round on a clone.

    ``records`` must be in the same deterministic order the guest will
    process them (sorted router ids, window-append order) — the guest
    pairs op *i* with record *i* and checks the keys match.
    """
    work = state.clone()
    prev_root = work.root
    prev_size = len(work)
    prev_depth = work.depth
    ops: list[dict[str, Any]] = []
    for record in records:
        key = record.key
        existing = work.get(key)
        if existing is not None:
            proof = work.merkle_map.prove(key)
            ops.append({
                "op": OP_UPDATE,
                "slot": proof.leaf_index,
                "old_payload": work.merkle_map.payload(key),
                "siblings": list(proof.siblings),
            })
            work.set_entry(existing.merge(record, policy))
        else:
            size = len(work)
            depth = work.merkle_map.depth
            if size > 0 and size >= (1 << depth):
                # Capacity exhausted: one grow step, then the vacant
                # proof in the grown tree is all-empty siblings plus the
                # old root at the top.
                ops.append({"op": OP_GROW})
                siblings = [EMPTY_ROOTS[i] for i in range(depth)]
                siblings.append(work.root)
            else:
                siblings = list(
                    work.merkle_map.tree.prove_vacant(size).siblings)
            ops.append({
                "op": OP_INSERT,
                "slot": size,
                "siblings": siblings,
            })
            work.set_entry(CLogEntry.fresh(record))
    work.round = state.round + 1
    return AggregationWitness(
        ops=tuple(ops),
        prev_root=prev_root,
        prev_size=prev_size,
        prev_depth=prev_depth,
        new_root=work.root,
        new_state=work,
    )
