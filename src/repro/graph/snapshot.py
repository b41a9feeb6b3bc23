"""A static, undirected, simple-graph snapshot backed by adjacency sets.

Replay and every hot-path analysis use :class:`~repro.kernels.csr.CSRGraph`.
:class:`GraphSnapshot` is the dict-of-sets form the ``*_reference`` parity
oracles, the tests and a few off-path utilities (the null model, the
effective diameter, degree-tail fits) work on; ``CSRGraph.from_snapshot``
bridges the two.  It is deliberately minimal: integer node ids, set-based
adjacency, O(1) degree lookups, and an exact edge count kept
incrementally.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

__all__ = ["GraphSnapshot"]


class GraphSnapshot:
    """An undirected simple graph (no self-loops, no parallel edges).

    Mutation is via :meth:`add_node` / :meth:`add_edge`; analyses treat
    snapshots as read-only.  ``adjacency`` maps node id → set of neighbor
    ids and may be read directly by performance-sensitive code.
    """

    __slots__ = ("adjacency", "_num_edges")

    def __init__(self) -> None:
        self.adjacency: dict[int, set[int]] = {}
        self._num_edges = 0

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]],
        nodes: Iterable[int] = (),
    ) -> "GraphSnapshot":
        """Build a snapshot from an edge list plus optional isolated nodes."""
        snap = cls()
        for node in nodes:
            snap.add_node(node)
        for u, v in edges:
            snap.add_node(u)
            snap.add_node(v)
            snap.add_edge(u, v)
        return snap

    def add_node(self, node: int) -> None:
        """Add ``node`` if absent (idempotent)."""
        if node not in self.adjacency:
            self.adjacency[node] = set()

    def add_edge(self, u: int, v: int) -> bool:
        """Add undirected edge ``(u, v)``.

        Returns ``True`` if the edge was new.  Self-loops raise
        :class:`ValueError`; unknown endpoints raise :class:`KeyError` so
        that callers cannot silently desynchronize node arrival bookkeeping.
        """
        if u == v:
            raise ValueError(f"self-loop on node {u} not allowed")
        neighbors_u = self.adjacency[u]
        neighbors_v = self.adjacency[v]
        if v in neighbors_u:
            return False
        neighbors_u.add(v)
        neighbors_v.add(u)
        self._num_edges += 1
        return True

    # -- queries ------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.adjacency)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    def __contains__(self, node: int) -> bool:
        return node in self.adjacency

    def __len__(self) -> int:
        return len(self.adjacency)

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids."""
        return iter(self.adjacency)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over each undirected edge exactly once, as (u, v) with u < v.

        Neighbors are visited in sorted order, so the edge sequence is a
        pure function of the graph's content plus node insertion order —
        never of set hash history.
        """
        for u, nbrs in self.adjacency.items():
            for v in sorted(nbrs):
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` exists."""
        nbrs = self.adjacency.get(u)
        return nbrs is not None and v in nbrs

    def degree(self, node: int) -> int:
        """Degree of ``node``; raises :class:`KeyError` for unknown nodes."""
        return len(self.adjacency[node])

    def neighbors(self, node: int) -> set[int]:
        """The neighbor set of ``node`` (the live set — do not mutate)."""
        return self.adjacency[node]

    def degrees(self) -> dict[int, int]:
        """Map of node id → degree."""
        return {node: len(nbrs) for node, nbrs in self.adjacency.items()}

    def subgraph(self, nodes: Iterable[int]) -> "GraphSnapshot":
        """The induced subgraph on ``nodes`` (unknown ids are ignored)."""
        keep = {n for n in nodes if n in self.adjacency}
        # Sorted insertion keeps the subgraph's adjacency order (and thus
        # every dict-order-dependent consumer, e.g. Louvain visit order)
        # a pure function of the kept node set.
        kept = sorted(keep)
        sub = GraphSnapshot()
        for node in kept:
            sub.add_node(node)
        for node in kept:
            for nbr in sorted(self.adjacency[node]):
                if nbr in keep and node < nbr:
                    sub.add_edge(node, nbr)
        return sub

    def __repr__(self) -> str:
        return f"GraphSnapshot(nodes={self.num_nodes}, edges={self.num_edges})"
