"""Average clustering coefficient (Figure 1e).

Local clustering of a node is the fraction of existing edges among its
neighbors over the maximum possible; the network metric is the mean over
all nodes (degree < 2 nodes contribute 0, matching the networkx
convention the community uses as reference).

The public functions run the CSR kernel, which counts neighbor-neighbor
intersections against a boolean membership mask instead of probing
``k^2`` Python set pairs.  The ``*_reference`` functions keep the set
implementation the parity suite pins the kernel against; counts are exact
integers, so both return identical floats.

Sampling draws from the *sorted* node pool (not dict insertion order), so
restored and parallel replays — which rebuild adjacency in a different
insertion order — sample exactly the same nodes as a serial run.
"""

from __future__ import annotations

import numpy as np

from repro.graph.snapshot import GraphSnapshot
from repro.kernels.clustering import average_clustering_csr, local_clustering_csr
from repro.kernels.csr import CSRGraph
from repro.util.rng import make_rng

__all__ = [
    "average_clustering",
    "average_clustering_reference",
    "local_clustering",
    "local_clustering_reference",
]


def local_clustering(
    graph: GraphSnapshot,
    node: int,
    *,
    csr: CSRGraph | None = None,
) -> float:
    """Clustering coefficient of one node (0.0 when degree < 2)."""
    if csr is None:
        csr = CSRGraph.from_snapshot(graph)
    return local_clustering_csr(csr, node)


def average_clustering(
    graph: GraphSnapshot,
    sample_size: int | None = None,
    rng: int | np.random.Generator | None = None,
    *,
    csr: CSRGraph | None = None,
) -> float:
    """Mean local clustering over all nodes (or a uniform sample).

    ``sample_size`` bounds the work on large snapshots; ``None`` computes
    the exact average.  Returns ``nan`` for an empty graph.
    """
    if csr is None:
        csr = CSRGraph.from_snapshot(graph)
    return average_clustering_csr(csr, sample_size, rng)


def local_clustering_reference(graph: GraphSnapshot, node: int) -> float:
    """Set-based reference for :func:`local_clustering`."""
    neighbors = graph.adjacency[node]
    k = len(neighbors)
    if k < 2:
        return 0.0
    adjacency = graph.adjacency
    links = 0
    # Triangle counting visits every unordered pair exactly once, so the
    # count is independent of the enumeration order.
    nbrs = list(neighbors)  # repro: noqa[RPL001] -- pair count, order-free
    for i, u in enumerate(nbrs):
        u_adj = adjacency[u]
        for v in nbrs[i + 1 :]:
            if v in u_adj:
                links += 1
    return 2.0 * links / (k * (k - 1))


def average_clustering_reference(
    graph: GraphSnapshot,
    sample_size: int | None = None,
    rng: int | np.random.Generator | None = None,
) -> float:
    """Set-based reference for :func:`average_clustering`."""
    if graph.num_nodes == 0:
        return float("nan")
    nodes = list(graph.nodes())
    if sample_size is not None and sample_size < len(nodes):
        # Sorted pool, same convention as paths.py: sampling must not
        # depend on adjacency insertion order.
        pool = np.fromiter(graph.nodes(), dtype=np.int64, count=len(nodes))
        pool.sort()
        generator = make_rng(rng)
        nodes = generator.choice(pool, size=sample_size, replace=False).tolist()
    return float(np.mean([local_clustering_reference(graph, n) for n in nodes]))
