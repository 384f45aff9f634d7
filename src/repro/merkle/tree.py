"""Updatable binary Merkle tree over leaf digests.

The tree is padded to a power-of-two capacity with precomputed
empty-subtree digests, so single-leaf updates recompute exactly ``depth``
internal hashes — the access pattern the paper profiles ("the majority of
this overhead stems from Merkle tree updates performed within the zkVM",
§6; ≈35,000 hashes for 3,000 entries at depth 11, §7).

Levels are stored densely: ``_levels[0]`` is the leaf level (digests of
occupied slots only; padding is implicit), ``_levels[depth]`` is the root.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import MerkleError
from ..hashing import Digest
from .hasher import MerkleHasher, default_hasher
from .proof import InclusionProof, MultiProof, SubtreeProof

_MAX_DEPTH = 48


def _empty_roots(hasher: MerkleHasher) -> list[Digest]:
    """Digest of the all-empty subtree at each height.

    Memoised by the hasher's ``algorithm`` name (not identity), so e.g. a
    cycle-metered guest hasher producing the same digests shares the
    host's precomputed table — empty-subtree roots are compile-time
    constants in a real guest and cost no in-VM hashing.
    """
    key = getattr(hasher, "algorithm", None)
    cache = _EMPTY_CACHE.get(key) if key is not None else None
    if cache is None:
        empty = hasher.empty()
        cache = [empty]
        for _ in range(_MAX_DEPTH):
            empty = hasher.node(empty, empty)
            cache.append(empty)
        if key is not None:
            _EMPTY_CACHE[key] = cache
    return cache


_EMPTY_CACHE: dict[str, list[Digest]] = {}

# Convenience: empty-subtree digests for the default hasher.
EMPTY_ROOTS: list[Digest] = _empty_roots(default_hasher())


class MerkleTree:
    """A power-of-two padded, updatable Merkle tree.

    Parameters
    ----------
    leaves:
        Initial leaf digests (already hashed with ``hasher.leaf``).
    hasher:
        Hash strategy; defaults to host-side tagged SHA-256.  Guests pass
        a cycle-metered hasher so in-VM Merkle work is charged correctly.
    """

    def __init__(self, leaves: Iterable[Digest] = (),
                 hasher: MerkleHasher | None = None) -> None:
        self._hasher = hasher or default_hasher()
        self._empty = _empty_roots(self._hasher)
        self._leaves: list[Digest] = list(leaves)
        self._levels: list[list[Digest]] = []
        self._rebuild()

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_payloads(cls, payloads: Iterable[bytes],
                      hasher: MerkleHasher | None = None) -> "MerkleTree":
        """Build a tree by leaf-hashing raw payload bytes."""
        h = hasher or default_hasher()
        return cls((h.leaf(p) for p in payloads), hasher=h)

    # -- inspection ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of occupied leaves."""
        return len(self._leaves)

    @property
    def depth(self) -> int:
        """Height of the padded tree (0 for an empty/singleton tree)."""
        return len(self._levels) - 1

    @property
    def root(self) -> Digest:
        return self._levels[-1][0] if self._levels[-1] else self._empty[0]

    def leaf(self, index: int) -> Digest:
        self._check_index(index)
        return self._leaves[index]

    def leaves(self) -> Sequence[Digest]:
        return tuple(self._leaves)

    # -- mutation -----------------------------------------------------------

    def append(self, leaf: Digest) -> int:
        """Append a leaf, growing the padded capacity if needed.

        Returns the index of the new leaf.
        """
        index = len(self._leaves)
        self._leaves.append(leaf)
        if index < self._capacity():
            self._levels[0].append(leaf)
            self._update_path(index)
        else:
            self._rebuild()
        return index

    def update(self, index: int, leaf: Digest) -> None:
        """Replace the leaf at ``index``, recomputing its path to the root.

        Costs exactly ``depth`` node hashes — the per-entry update cost the
        paper attributes the zkVM overhead to.
        """
        self._check_index(index)
        self._leaves[index] = leaf
        self._levels[0][index] = leaf
        self._update_path(index)

    def extend(self, leaves: Iterable[Digest]) -> None:
        for leaf in leaves:
            self.append(leaf)

    def copy(self) -> "MerkleTree":
        """An independent tree with the same leaves, levels and hasher.

        Copies the digest lists only; nothing is re-hashed.
        """
        other = MerkleTree.__new__(MerkleTree)
        other._hasher = self._hasher
        other._empty = self._empty
        other._leaves = list(self._leaves)
        other._levels = [list(level) for level in self._levels]
        return other

    # -- proofs --------------------------------------------------------------

    def prove(self, index: int) -> InclusionProof:
        """Produce an inclusion proof for the leaf at ``index``."""
        self._check_index(index)
        siblings: list[Digest] = []
        pos = index
        for height in range(self.depth):
            level = self._levels[height]
            sibling_pos = pos ^ 1
            if sibling_pos < len(level):
                siblings.append(level[sibling_pos])
            else:
                siblings.append(self._empty[height])
            pos >>= 1
        return InclusionProof(leaf_index=index, leaf=self._leaves[index],
                              siblings=tuple(siblings),
                              tree_size=len(self._leaves))

    def prove_vacant(self, index: int) -> InclusionProof:
        """Prove that the *next* slot (``index == size``) is empty.

        Verified inserts need this: the updater shows the target slot
        currently holds the empty-leaf digest, then recomputes the root
        with the new leaf along the same sibling path.  Only the
        append position is provable (that is the only slot an insert may
        legally target), and the padded capacity must accommodate it —
        grow the tree first otherwise (see the aggregation witness).
        """
        if index != len(self._leaves):
            raise MerkleError(
                f"vacant proofs only cover the append slot "
                f"{len(self._leaves)}, not {index}")
        if self._levels and index >= (1 << self.depth) and index > 0:
            raise MerkleError(
                f"slot {index} exceeds padded capacity {1 << self.depth}; "
                "grow the tree first")
        siblings: list[Digest] = []
        pos = index
        for height in range(self.depth):
            level = self._levels[height]
            sibling_pos = pos ^ 1
            if sibling_pos < len(level):
                siblings.append(level[sibling_pos])
            else:
                siblings.append(self._empty[height])
            pos >>= 1
        return InclusionProof(leaf_index=index, leaf=self._empty[0],
                              siblings=tuple(siblings),
                              tree_size=index + 1)

    def node_at(self, level: int, pos: int) -> Digest:
        """The subtree root at (level, pos); the subtree must be fully
        occupied (used by consistency proofs over aligned blocks)."""
        if not 0 <= level <= self.depth:
            raise MerkleError(f"level {level} out of range")
        end_leaf = (pos + 1) << level
        if end_leaf > len(self._leaves):
            raise MerkleError(
                f"subtree ({level}, {pos}) is not fully occupied")
        return self._levels[level][pos]

    def prove_subtree(self, level: int, pos: int) -> SubtreeProof:
        """Prove the node at ``(level, pos)`` against the root.

        The node covers the aligned leaf block
        ``[pos << level, (pos + 1) << level)``.  Unlike :meth:`node_at`
        the block need not be fully occupied — only non-empty — because
        siblings follow the same right-padding rule as leaf proofs: a
        verifier that rebuilds the block's node from its occupied
        leaves (padding with empty-subtree roots) folds it to exactly
        this tree's root.  Partitioned query proving uses one such
        proof per slot-range partition.
        """
        if not 0 <= level <= self.depth:
            raise MerkleError(f"level {level} out of range")
        if not 0 <= pos < len(self._levels[level]):
            raise MerkleError(
                f"subtree ({level}, {pos}) holds no occupied leaves")
        siblings: list[Digest] = []
        node_pos = pos
        for height in range(level, self.depth):
            nodes = self._levels[height]
            sibling_pos = node_pos ^ 1
            if sibling_pos < len(nodes):
                siblings.append(nodes[sibling_pos])
            else:
                siblings.append(self._empty[height])
            node_pos >>= 1
        return SubtreeProof(level=level, index=pos,
                            siblings=tuple(siblings),
                            tree_size=len(self._leaves))

    def prove_consistency(self, old_size: int):
        """Prove this tree extends its own earlier ``old_size``-leaf
        checkpoint (see :mod:`repro.merkle.consistency`)."""
        from .consistency import prove_consistency
        return prove_consistency(self, old_size)

    def prove_many(self, indices: Sequence[int]) -> MultiProof:
        """Produce a batch proof for several leaves (deduplicated paths)."""
        for index in indices:
            self._check_index(index)
        proofs = tuple(self.prove(i) for i in sorted(set(indices)))
        return MultiProof(proofs=proofs, root=self.root)

    # -- internals -------------------------------------------------------------

    def _capacity(self) -> int:
        return 1 << self.depth if self._levels else 0

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self._leaves):
            raise MerkleError(
                f"leaf index {index} out of range (size {len(self._leaves)})"
            )

    def _required_depth(self, size: int) -> int:
        depth = 0
        while (1 << depth) < size:
            depth += 1
        return depth

    def _rebuild(self) -> None:
        depth = self._required_depth(max(len(self._leaves), 1))
        self._levels = [list(self._leaves)]
        for height in range(depth):
            below = self._levels[height]
            above: list[Digest] = []
            for i in range(0, len(below), 2):
                left = below[i]
                right = below[i + 1] if i + 1 < len(below) \
                    else self._empty[height]
                above.append(self._hasher.node(left, right))
            self._levels.append(above)

    def _update_path(self, index: int) -> None:
        pos = index
        for height in range(self.depth):
            level = self._levels[height]
            above = self._levels[height + 1]
            pair = pos & ~1
            left = level[pair]
            right = level[pair + 1] if pair + 1 < len(level) \
                else self._empty[height]
            parent = self._hasher.node(left, right)
            parent_pos = pos >> 1
            if parent_pos < len(above):
                above[parent_pos] = parent
            else:
                above.append(parent)
            pos = parent_pos
