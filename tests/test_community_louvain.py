"""Tests for repro.community.louvain."""

import pytest

from repro.community.louvain import louvain
from tests.oracles import GraphSnapshot, from_snapshot, modularity, snapshot_of

nx = pytest.importorskip("networkx")


class TestBasicDetection:
    def test_two_cliques_found(self, two_clique_graph):
        result = louvain(two_clique_graph, delta=0.0001)
        communities = set(result.partition.values())
        assert len(communities) == 2
        # The two cliques land in different communities.
        assert result.partition[0] == result.partition[5]
        assert result.partition[6] == result.partition[11]
        assert result.partition[0] != result.partition[6]

    def test_modularity_reported_correctly(self, two_clique_graph):
        result = louvain(two_clique_graph, delta=0.0001)
        assert result.modularity == pytest.approx(
            modularity(snapshot_of(two_clique_graph), result.partition)
        )

    def test_every_node_assigned(self, tiny_graph):
        result = louvain(from_snapshot(tiny_graph), delta=0.01)
        assert set(result.partition) == set(tiny_graph.nodes())

    def test_empty_graph(self):
        result = louvain(from_snapshot(GraphSnapshot()))
        assert result.partition == {}
        assert result.modularity == 0.0

    def test_edgeless_graph(self):
        g = GraphSnapshot()
        for n in range(5):
            g.add_node(n)
        result = louvain(from_snapshot(g))
        assert set(result.partition) == set(range(5))

    def test_negative_delta_rejected(self, path_graph):
        with pytest.raises(ValueError):
            louvain(path_graph, delta=-0.1)


class TestQuality:
    def test_comparable_to_networkx(self, tiny_graph):
        ours = louvain(from_snapshot(tiny_graph), delta=0.0001, seed=0).modularity
        G = nx.Graph()
        G.add_nodes_from(tiny_graph.nodes())
        G.add_edges_from(tiny_graph.edges())
        theirs = nx.community.modularity(G, nx.community.louvain_communities(G, seed=0))
        assert ours > 0.8 * theirs

    def test_deterministic_for_seed(self, tiny_graph):
        a = louvain(from_snapshot(tiny_graph), seed=5)
        b = louvain(from_snapshot(tiny_graph), seed=5)
        assert a.partition == b.partition

    def test_communities_filter(self, two_clique_graph):
        result = louvain(two_clique_graph, delta=0.0001)
        assert len(result.communities(min_size=1)) == 2
        assert len(result.communities(min_size=7)) == 0


class TestIncrementalMode:
    def test_seed_partition_respected_on_stable_graph(self, two_clique_graph):
        first = louvain(two_clique_graph, delta=0.0001, seed=0)
        second = louvain(
            two_clique_graph, delta=0.0001, seed=1, seed_partition=first.partition
        )
        # Same grouping (labels may differ).
        groups_a = {frozenset(m) for m in _groups(first.partition)}
        groups_b = {frozenset(m) for m in _groups(second.partition)}
        assert groups_a == groups_b

    def test_unseen_nodes_get_singletons(self, two_clique_graph):
        partial_seed = {n: 0 for n in range(6)}
        result = louvain(two_clique_graph, delta=0.0001, seed_partition=partial_seed)
        assert set(result.partition) == set(two_clique_graph.node_ids.tolist())

    def test_incremental_improves_stability(self, tiny_stream):
        """The paper's reason for incremental mode: tighter tracking."""
        from repro.community.tracking import jaccard
        from repro.graph.dynamic import DynamicGraph

        replay = DynamicGraph(tiny_stream)
        g1 = replay.advance_to(40.0).graph
        g2 = replay.advance_to(45.0).graph
        base = louvain(g1, delta=0.04, seed=0)
        seeded = louvain(g2, delta=0.04, seed=0, seed_partition=base.partition)
        unseeded = louvain(g2, delta=0.04, seed=12345)
        assert _avg_best_jaccard(base, seeded) >= _avg_best_jaccard(base, unseeded) - 0.05


def _groups(partition):
    groups = {}
    for node, c in partition.items():
        groups.setdefault(c, set()).add(node)
    return groups.values()


def _avg_best_jaccard(res_a, res_b):
    from repro.community.tracking import jaccard

    groups_a = [g for g in _groups(res_a.partition) if len(g) >= 10]
    groups_b = [g for g in _groups(res_b.partition) if len(g) >= 10]
    if not groups_a or not groups_b:
        return 0.0
    scores = [max(jaccard(a, b) for b in groups_b) for a in groups_a]
    return sum(scores) / len(scores)
