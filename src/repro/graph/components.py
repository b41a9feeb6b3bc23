"""Connected components, BFS, and largest-component extraction.

Path-length experiments in the paper sample from the largest connected
component ("SCC" in the paper's undirected usage, §2).  Implemented from
scratch with iterative BFS, so arbitrarily deep graphs never hit Python's
recursion limit.

Component ordering is fully deterministic: components sort by size
(largest first) with ties broken by smallest member id, so the "largest
component" never depends on traversal order — a requirement for sampled
metrics to be reproducible across serial, restored, and parallel replays.

``connected_components`` and ``largest_component`` run the frontier-array
BFS from :mod:`repro.kernels.traversal` on a
:class:`~repro.kernels.csr.CSRGraph`; their ``*_reference`` twins keep the
dict BFS the parity suite pins them against.  Kernel imports stay
inside the functions because ``repro.graph.__init__`` imports this module
while :mod:`repro.kernels` imports the graph package.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.graph.snapshot import GraphSnapshot

if TYPE_CHECKING:
    from repro.kernels.csr import CSRGraph

__all__ = [
    "connected_components",
    "connected_components_reference",
    "largest_component",
    "largest_component_reference",
    "bfs_distances",
    "bfs_distance_to_set",
]


def connected_components(csr: CSRGraph) -> list[set[int]]:
    """All connected components, largest first (ties: smallest member id)."""
    from repro.kernels.traversal import connected_components_csr

    return connected_components_csr(csr)


def largest_component(csr: CSRGraph) -> set[int]:
    """The node set of the largest component (empty graph → empty set).

    Equal-size components tie-break on the smallest member id, not on
    traversal order.
    """
    from repro.kernels.traversal import largest_component_csr

    return set(largest_component_csr(csr).tolist())


def connected_components_reference(graph: GraphSnapshot) -> list[set[int]]:
    """Dict-BFS reference for :func:`connected_components`."""
    seen: set[int] = set()
    components: list[set[int]] = []
    for root in graph.nodes():
        if root in seen:
            continue
        component = _bfs_component(graph, root)
        seen |= component
        components.append(component)
    components.sort(key=lambda c: (-len(c), min(c)))
    return components


def largest_component_reference(graph: GraphSnapshot) -> set[int]:
    """Dict-BFS reference for :func:`largest_component`."""
    best: set[int] = set()
    seen: set[int] = set()
    for root in graph.nodes():
        if root in seen:
            continue
        component = _bfs_component(graph, root)
        seen |= component
        if len(component) > len(best) or (
            len(component) == len(best) and component and min(component) < min(best)
        ):
            best = component
    return best


def bfs_distances(
    graph: GraphSnapshot,
    source: int,
    cutoff: int | None = None,
) -> dict[int, int]:
    """Hop distances from ``source`` to every reachable node.

    ``cutoff`` bounds the search depth (inclusive); nodes beyond it are
    omitted.  Raises :class:`KeyError` for an unknown source.
    """
    if source not in graph.adjacency:
        raise KeyError(f"unknown source node {source}")
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        d = dist[node]
        if cutoff is not None and d >= cutoff:
            continue
        # Sorted expansion makes the returned dict's insertion order a
        # pure function of the graph content; callers iterate .items().
        for nbr in sorted(graph.adjacency[node]):
            if nbr not in dist:
                dist[nbr] = d + 1
                queue.append(nbr)
    return dist


def bfs_distance_to_set(
    graph: GraphSnapshot,
    source: int,
    targets: Iterable[int],
    forbidden: Iterable[int] = (),
) -> int | None:
    """Shortest hop distance from ``source`` to any node in ``targets``.

    ``forbidden`` nodes are never traversed **or** counted as targets —
    the cross-OSN distance experiment (§5.2, Fig 9c) uses this to exclude
    post-merge users and their edges from the search.  Returns ``None``
    when no target is reachable.

    This per-source dict BFS is the parity oracle for
    :func:`repro.kernels.traversal.distance_to_set_csr`, which the
    experiment runs; only tests call it.
    """
    target_set = set(targets)
    blocked = set(forbidden)
    if source in blocked or source not in graph.adjacency:
        return None
    if source in target_set:
        return 0
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        d = dist[node]
        # The int result is the minimal BFS level: order-independent.
        for nbr in graph.adjacency[node]:  # repro: noqa[RPL001] -- min level, order-free
            if nbr in blocked or nbr in dist:
                continue
            if nbr in target_set:
                return d + 1
            dist[nbr] = d + 1
            queue.append(nbr)
    return None


def _bfs_component(graph: GraphSnapshot, root: int) -> set[int]:
    component = {root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        # Builds a set; membership is visit-order-independent and sorting
        # here would only slow the reference implementation.
        for nbr in graph.adjacency[node]:  # repro: noqa[RPL001] -- set result, order-free
            if nbr not in component:
                component.add(nbr)
                queue.append(nbr)
    return component
