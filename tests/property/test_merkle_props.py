"""Property tests: Merkle tree invariants under arbitrary operations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import sha256
from repro.merkle import MerkleMap, MerkleTree


def leaves(min_size=0, max_size=40):
    return st.lists(
        st.integers(min_value=0, max_value=2**32).map(
            lambda i: sha256(i.to_bytes(8, "big"))),
        min_size=min_size, max_size=max_size)


class TestTreeProperties:
    @given(leaves(min_size=1))
    @settings(max_examples=120)
    def test_all_proofs_verify(self, items):
        tree = MerkleTree(items)
        for index in range(len(items)):
            tree.prove(index).verify(tree.root)

    @given(leaves(min_size=1))
    def test_incremental_append_matches_batch(self, items):
        incremental = MerkleTree()
        for item in items:
            incremental.append(item)
        assert incremental.root == MerkleTree(items).root

    @given(leaves(min_size=2),
           st.data())
    @settings(max_examples=120)
    def test_update_sequence_matches_rebuild(self, items, data):
        tree = MerkleTree(items)
        current = list(items)
        for _ in range(data.draw(st.integers(0, 5))):
            index = data.draw(st.integers(0, len(items) - 1))
            new_leaf = sha256(data.draw(st.binary(max_size=16)))
            tree.update(index, new_leaf)
            current[index] = new_leaf
        assert tree.root == MerkleTree(current).root

    @given(leaves(min_size=1), st.integers(0, 1000))
    def test_proof_rejects_wrong_leaf(self, items, nonce):
        tree = MerkleTree(items)
        proof = tree.prove(0)
        impostor = sha256(b"impostor" + nonce.to_bytes(8, "big"))
        if impostor != proof.leaf:
            from repro.merkle.proof import InclusionProof
            forged = InclusionProof(
                leaf_index=0, leaf=impostor,
                siblings=proof.siblings, tree_size=proof.tree_size)
            assert not forged.is_valid(tree.root)

    @given(leaves(min_size=1, max_size=20))
    def test_vacant_then_append_consistency(self, items):
        tree = MerkleTree(items)
        size = tree.size
        if size >= (1 << tree.depth):
            return  # would need growth; covered by witness tests
        vacant = tree.prove_vacant(size)
        assert vacant.computed_root() == tree.root


class TestConsistencyProperties:
    @given(st.integers(1, 60), st.integers(0, 40))
    @settings(max_examples=100)
    def test_any_growth_has_valid_proof(self, old_size, extra):
        new_size = old_size + extra
        all_leaves = [sha256(i.to_bytes(4, "big"))
                      for i in range(new_size)]
        old_tree = MerkleTree(all_leaves[:old_size])
        new_tree = MerkleTree(all_leaves)
        from repro.merkle import verify_consistency
        proof = new_tree.prove_consistency(old_size)
        verify_consistency(old_tree.root, new_tree.root, proof)

    @given(st.integers(2, 40), st.integers(1, 20), st.data())
    @settings(max_examples=80)
    def test_any_prefix_rewrite_detected(self, old_size, extra, data):
        from repro.errors import MerkleError
        from repro.merkle import verify_consistency
        new_size = old_size + extra
        leaves = [sha256(i.to_bytes(4, "big")) for i in range(new_size)]
        old_tree = MerkleTree(leaves[:old_size])
        position = data.draw(st.integers(0, old_size - 1))
        leaves[position] = sha256(b"rewritten!")
        forked = MerkleTree(leaves)
        proof = forked.prove_consistency(old_size)
        import pytest as _pytest
        with _pytest.raises(MerkleError):
            verify_consistency(old_tree.root, forked.root, proof)


class TestMapProperties:
    @given(st.dictionaries(st.binary(min_size=1, max_size=8),
                           st.binary(max_size=16),
                           min_size=1, max_size=25))
    @settings(max_examples=100)
    def test_every_key_provable(self, entries):
        m = MerkleMap()
        for key, value in entries.items():
            m.set(key, value)
        for key in entries:
            m.prove(key).verify(m.root)

    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=4),
                              st.binary(max_size=8)),
                    min_size=1, max_size=30))
    def test_last_write_wins(self, operations):
        m = MerkleMap()
        expected = {}
        for key, value in operations:
            m.set(key, value)
            expected[key] = value
        assert dict(m.items()) == expected
        assert len(m) == len(expected)

    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=4),
                              st.binary(max_size=8)),
                    min_size=1, max_size=40))
    def test_index_order_is_slot_order(self, operations):
        """set() appends new keys, so the key dict iterates in slot
        order and rows() needs no sort."""
        m = MerkleMap()
        for key, value in operations:
            m.set(key, value)
        assert list(m._index.values()) == list(range(len(m)))
        assert m.rows() == [(key, m.payload(key)) for key in
                            sorted(m.keys(), key=m.index_of)]

    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=4),
                              st.binary(max_size=8)),
                    min_size=1, max_size=40),
           st.lists(st.tuples(st.binary(min_size=1, max_size=4),
                              st.binary(max_size=8)),
                    min_size=1, max_size=10))
    def test_copy_is_identical_and_independent(self, operations, more):
        m = MerkleMap()
        for key, value in operations:
            m.set(key, value)
        copy = m.copy()
        assert (copy.root, copy.depth, copy.rows()) \
            == (m.root, m.depth, m.rows())
        before = (m.root, m.depth, m.rows(), m.tree.leaves())
        for key, value in more:
            copy.set(key, value + b"!")
        assert (m.root, m.depth, m.rows(), m.tree.leaves()) == before
        replay = MerkleMap()
        for key, payload in copy.rows():
            replay.set(key, payload)
        assert replay.root == copy.root
        for key in copy.keys():
            copy.prove(key).verify(copy.root)

    @given(st.dictionaries(st.binary(min_size=1, max_size=4),
                           st.binary(max_size=8),
                           min_size=2, max_size=10))
    def test_update_changes_root_iff_payload_changes(self, entries):
        m = MerkleMap()
        for key, value in entries.items():
            m.set(key, value)
        key = next(iter(entries))
        before = m.root
        m.set(key, entries[key])  # identical payload
        assert m.root == before
        m.set(key, entries[key] + b"!")
        assert m.root != before
