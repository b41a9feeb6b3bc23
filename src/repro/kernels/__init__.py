"""Vectorized CSR kernels: the one implementation every metric call runs.

Each kernel is the numpy twin of a pure-Python reference implementation
and is *bit-identical* to it: same floats for the same RNG draws.  The
references work on a dict-of-sets graph and live in ``tests/oracles.py``;
only the parity suites call them.  The contract, and how to add a kernel, is
documented in ``docs/kernels.md``.

Layout:

* :mod:`~repro.kernels.csr` — :class:`CSRGraph`, the one graph
  representation: replay builds it and every kernel consumes it; plus the
  multi-slice neighbor gather;
* :mod:`~repro.kernels.traversal` — frontier-array BFS: components,
  largest component, bit-parallel sampled path lengths, multi-source
  distance to a node set;
* :mod:`~repro.kernels.clustering` — mask-intersection clustering
  coefficients, the per-node loop in C;
* :mod:`~repro.kernels.assortativity` — vectorized degree assortativity;
* :mod:`~repro.kernels.louvain` — flat-array Louvain (each level in C),
  and one pass counting a label partition's communities and modularity;
* :mod:`~repro.kernels.native` — builds, caches and loads the C kernels;
* :mod:`~repro.kernels.matching` — contingency-count Jaccard matching of
  member arrays for community tracking.
"""

from repro.kernels.assortativity import degree_assortativity_csr
from repro.kernels.clustering import (
    average_clustering_csr,
    clustering_coefficients,
    local_clustering_csr,
)
from repro.kernels.csr import CSRGraph, gather_neighbors
from repro.kernels.louvain import count_communities, louvain_csr
from repro.kernels.matching import Lineages, match_communities_csr
from repro.kernels.traversal import (
    average_path_length_csr,
    component_labels,
    connected_components_csr,
    distance_to_set_csr,
    largest_component_csr,
)

__all__ = [
    "CSRGraph",
    "Lineages",
    "average_clustering_csr",
    "average_path_length_csr",
    "clustering_coefficients",
    "component_labels",
    "connected_components_csr",
    "count_communities",
    "degree_assortativity_csr",
    "distance_to_set_csr",
    "gather_neighbors",
    "largest_component_csr",
    "local_clustering_csr",
    "louvain_csr",
    "match_communities_csr",
]
