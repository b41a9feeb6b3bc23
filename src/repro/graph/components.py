"""Connected components and largest-component extraction.

Path-length experiments in the paper sample from the largest connected
component ("SCC" in the paper's undirected usage, §2).

Component ordering is fully deterministic: components sort by size
(largest first) with ties broken by smallest member id, so the "largest
component" never depends on traversal order — a requirement for sampled
metrics to be reproducible across serial, restored, and parallel replays.

Both functions run the frontier-array BFS from
:mod:`repro.kernels.traversal` on a :class:`~repro.kernels.csr.CSRGraph`.
"""

from __future__ import annotations

from repro.kernels.csr import CSRGraph
from repro.kernels.traversal import connected_components_csr, largest_component_csr

__all__ = ["connected_components", "largest_component"]


def connected_components(csr: CSRGraph) -> list[set[int]]:
    """All connected components, largest first (ties: smallest member id)."""
    return connected_components_csr(csr)


def largest_component(csr: CSRGraph) -> set[int]:
    """The node set of the largest component (empty graph → empty set).

    Equal-size components tie-break on the smallest member id, not on
    traversal order.
    """
    return set(largest_component_csr(csr).tolist())
