"""Sampled average shortest-path length (Figure 1d).

The paper follows "the standard practice of sampling nodes to make path
length computation tractable": 1000 sources from the largest connected
component, once every three days.  We do the same — BFS from each sampled
source, averaging distances to all reachable nodes.

:func:`average_path_length_sampled` runs the frontier-array BFS kernel;
:func:`average_path_length_reference` runs dict BFS.  Sources are drawn
from the same sorted pool with the same RNG call, and distances
accumulate in exact integer arithmetic, so both return the identical
float.
"""

from __future__ import annotations

import numpy as np

from repro.graph.components import bfs_distances, largest_component_reference
from repro.graph.snapshot import GraphSnapshot
from repro.kernels.csr import CSRGraph
from repro.kernels.traversal import average_path_length_csr
from repro.util.rng import make_rng

__all__ = ["average_path_length_reference", "average_path_length_sampled"]


def average_path_length_sampled(
    graph: GraphSnapshot,
    sample_size: int = 1000,
    rng: int | np.random.Generator | None = None,
    *,
    csr: CSRGraph | None = None,
) -> float:
    """Average hop distance from sampled sources to all reachable nodes.

    Sources are drawn (without replacement) from the largest connected
    component.  Returns ``nan`` when the component has fewer than two
    nodes.  ``csr`` optionally reuses a prebuilt :class:`CSRGraph` of the
    same snapshot (the runtime builds one per snapshot and shares it
    across the metric suite).
    """
    if csr is None:
        csr = CSRGraph.from_snapshot(graph)
    return average_path_length_csr(csr, sample_size, make_rng(rng))


def average_path_length_reference(
    graph: GraphSnapshot,
    sample_size: int = 1000,
    rng: int | np.random.Generator | None = None,
) -> float:
    """Dict-BFS reference for :func:`average_path_length_sampled`."""
    generator = make_rng(rng)
    component = largest_component_reference(graph)
    if len(component) < 2:
        return float("nan")
    # Sort the sampling pool: set iteration order is an implementation
    # detail, and sampling must not depend on it or parallel replay (which
    # rebuilds adjacency sets from checkpoints) would drift from serial.
    members = np.fromiter(component, dtype=np.int64, count=len(component))
    members.sort()
    k = min(sample_size, members.size)
    sources = generator.choice(members, size=k, replace=False)
    total = 0
    count = 0
    for source in sources:
        for node, dist in bfs_distances(graph, int(source)).items():
            if node != source:
                total += dist
                count += 1
    if count == 0:
        return float("nan")
    return total / count
