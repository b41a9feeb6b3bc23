"""Average clustering coefficient (Figure 1e).

Local clustering of a node is the fraction of existing edges among its
neighbors over the maximum possible; the network metric is the mean over
all nodes (degree < 2 nodes contribute 0, matching the networkx
convention the community uses as reference).

Both functions run the CSR kernel, which counts neighbor-neighbor
intersections against a boolean membership mask instead of probing
``k^2`` Python set pairs; counts are exact integers.

Sampling draws from the *sorted* node pool (not insertion order), so the
sample is a function of the node set alone.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.clustering import average_clustering_csr, local_clustering_csr
from repro.kernels.csr import CSRGraph

__all__ = ["average_clustering", "local_clustering"]


def local_clustering(csr: CSRGraph, node: int) -> float:
    """Clustering coefficient of one node (0.0 when degree < 2)."""
    return local_clustering_csr(csr, node)


def average_clustering(
    csr: CSRGraph,
    sample_size: int | None = None,
    rng: int | np.random.Generator | None = None,
) -> float:
    """Mean local clustering over all nodes (or a uniform sample).

    ``sample_size`` bounds the work on large snapshots; ``None`` computes
    the exact average.  Returns ``nan`` for an empty graph.
    """
    return average_clustering_csr(csr, sample_size, rng)
