"""Null-model benchmark: observed structure vs degree-preserving rewiring.

Supports the paper's §4 claim that Renren has *significant* community
structure: both modularity and clustering of the generated trace far
exceed their values on a degree-sequence-preserving randomization of the
same graph.
"""

from repro.community.louvain import louvain
from repro.gen import generate_trace
from repro.gen.config import presets
from repro.graph.dynamic import DynamicGraph
from repro.graph.nullmodel import degree_preserving_rewire
from repro.metrics.clustering import average_clustering


def test_structure_exceeds_degree_null(benchmark):
    stream = generate_trace(presets.tiny(days=50, target_nodes=900), seed=5)
    graph = DynamicGraph(stream).final()

    def run():
        null = degree_preserving_rewire(graph, swaps_per_edge=3.0, seed=0)
        return {
            "observed_clustering": average_clustering(graph, 500, rng=0),
            "null_clustering": average_clustering(null, 500, rng=0),
            "observed_modularity": louvain(graph, delta=0.04, seed=0).modularity,
            "null_modularity": louvain(null, delta=0.04, seed=0).modularity,
        }

    values = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for name, value in values.items():
        print(f"  {name:<22s} = {value:.3f}")
    # The paper's significance reading: structure >> degree-sequence null.
    assert values["observed_clustering"] > 2.0 * values["null_clustering"]
    # Sparse random graphs carry some baseline Louvain modularity (~0.2),
    # so the assertion is a margin above the null, not a ratio.
    assert values["observed_modularity"] > values["null_modularity"] + 0.03
