"""Regression tests for determinism findings fixed by the static analyzer.

Each test pins down a hazard that ``repro lint`` (RPL001) flagged as a
true positive: iteration over raw ``set`` neighborhoods leaking hash/
insertion history into outputs.  The tests build the *same* graph with
adversarial insertion orders — node ids chosen to collide in small set
hash tables (for ints, ``hash(n) = n`` and slot = ``n % table_size``),
so a raw-set iteration really would differ between the two builds — and
assert the outputs are identical.
"""

import numpy as np

from repro.kernels import louvain as kernels_louvain
from tests import oracles
from tests.oracles import GraphSnapshot, bfs_distances

# 1, 9, 17, 25 all land in slot 1 of an 8-slot set table, so iteration
# order of {1, 9, 17, 25} depends on which was inserted first.
COLLIDING = [1, 9, 17, 25]


def build(center, leaves):
    snap = GraphSnapshot()
    snap.add_node(center)
    for leaf in leaves:
        snap.add_node(leaf)
        snap.add_edge(center, leaf)
    return snap


class TestSnapshotEdgeOrder:
    def test_edges_independent_of_insertion_order(self):
        forward = build(0, COLLIDING)
        backward = build(0, list(reversed(COLLIDING)))
        assert list(forward.edges()) == list(backward.edges())

    def test_edges_sorted_within_node(self):
        snap = build(0, list(reversed(COLLIDING)))
        assert list(snap.edges()) == [(0, leaf) for leaf in sorted(COLLIDING)]


class TestSubgraphOrder:
    def test_adjacency_insertion_order_is_sorted(self):
        snap = build(0, COLLIDING)
        sub = snap.subgraph([25, 0, 9])
        assert list(sub.adjacency) == [0, 9, 25]

    def test_subgraph_independent_of_keep_order(self):
        snap = build(0, COLLIDING)
        a = snap.subgraph([25, 0, 9, 17])
        b = snap.subgraph([17, 9, 0, 25])
        assert list(a.adjacency) == list(b.adjacency)
        assert a.adjacency == b.adjacency
        assert list(a.edges()) == list(b.edges())

    def test_subgraph_independent_of_parent_insertion_order(self):
        a = build(0, COLLIDING).subgraph([0, *COLLIDING])
        b = build(0, list(reversed(COLLIDING))).subgraph([0, *COLLIDING])
        assert list(a.adjacency) == list(b.adjacency)


class TestBFSVisitOrder:
    def test_distance_dict_order_independent_of_insertion(self):
        # Colliding leaves at depth 1 plus a tail to exercise the queue.
        forward = build(0, COLLIDING)
        forward.add_node(33)
        forward.add_edge(9, 33)
        backward = build(0, list(reversed(COLLIDING)))
        backward.add_node(33)
        backward.add_edge(9, 33)
        assert list(bfs_distances(forward, 0).items()) == list(
            bfs_distances(backward, 0).items()
        )

    def test_expansion_is_sorted_per_level(self):
        snap = build(0, list(reversed(COLLIDING)))
        assert list(bfs_distances(snap, 0)) == [0, *sorted(COLLIDING)]


class TestLouvainSharedContract:
    def test_backends_share_caps_and_seeding(self):
        # Both backends must start from the same assignment and stop at
        # the same caps, or parity would silently depend on the backend.
        assert oracles._MAX_LEVELS == kernels_louvain.MAX_LEVELS
        assert oracles._MAX_PASSES_PER_LEVEL == kernels_louvain.MAX_PASSES_PER_LEVEL
        ids = list(reversed(COLLIDING))
        for seed in (None, {1: 40, 9: 40, 17: 7}):
            want = oracles.initial_assignment(ids, seed)
            arrays = seed and (np.array(list(seed)), np.array(list(seed.values())))
            got = kernels_louvain.initial_labels(np.array(ids, dtype=np.int64), arrays)
            assert got.tolist() == [want[u] for u in ids]

    def test_initial_assignment_follows_input_order(self):
        # Singleton labels are the node ids themselves, keyed in input
        # order — the CSR backend passes position order so both backends
        # start from the identical dict.
        got = oracles.initial_assignment(reversed(COLLIDING), None)
        assert got == {n: n for n in COLLIDING}
        assert list(got) == list(reversed(COLLIDING))

    def test_initial_assignment_compacts_seed_labels(self):
        seed = {1: 40, 9: 40, 17: 7}
        got = oracles.initial_assignment(COLLIDING, seed)
        # Seed labels are remapped to a fresh compact space in first-seen
        # order; unseeded nodes get fresh singletons after them.
        assert got == {1: 0, 9: 0, 17: 1, 25: 2}
