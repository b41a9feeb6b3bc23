"""The dict-of-sets graph and the per-event oracles the array code is pinned against.

:class:`GraphSnapshot` is a mutable dict-of-sets graph, and
:func:`from_snapshot` freezes one as a :class:`~repro.kernels.csr.CSRGraph`
(node insertion order becomes position order).  The package itself holds
no graph but ``CSRGraph``; everything here exists to check it.

:class:`DictReplay` applies a stream's events one by one to a
:class:`GraphSnapshot`, exactly as the replayer did before snapshots
became CSR arrays.  Parity tests compare ``from_snapshot`` of its graph
with the replay's own.

The graph references are the dict implementations the CSR kernels
replaced: components and BFS, sampled path length, clustering,
assortativity, modularity, Louvain (:func:`louvain_reference` with its
level internals and :func:`initial_assignment`), the partition dict's
inversion into node sets (:func:`partition_communities`), the tracker's
community matcher (:func:`_match_python`), and the degree distribution,
degree-tail fit, effective diameter and degree-preserving rewire.  Each
returns the same bits as its kernel for the same RNG draws.

:func:`pe_checkpoints_reference` is the per-edge pe(d) replay that
``EdgeProbabilityTracker.process`` computes in closed form.

The ``*_reference`` functions of Figures 2, 7 and 8 are the per-node and
per-edge loops over a dict of node edge-time lists that the column
drivers (:meth:`EventStream.node_edge_columns`) replaced; parity tests
compare their outputs byte for byte.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain
from typing import NamedTuple

import numpy as np

from repro.community.impact import SIZE_BUCKETS_PAPER, CommunityMembership, _bucket_label
from repro.community.tracking import CommunityState
from repro.edges.interarrival import AGE_BUCKETS_PAPER, node_interarrival_times
from repro.edges.lifetime import NodeLifetime
from repro.edges.powerlaw import PowerLawFit, fit_power_law_mle
from repro.graph.events import ORIGIN_5Q, ORIGIN_XIAONEI, EventStream
from repro.kernels.csr import CSRGraph
from repro.kernels.louvain import MAX_LEVELS as _MAX_LEVELS
from repro.kernels.louvain import MAX_PASSES_PER_LEVEL as _MAX_PASSES_PER_LEVEL
from repro.kernels.traversal import largest_component_csr
from repro.osnmerge.activity import ActiveUserSeries
from repro.osnmerge.classify import EdgeClass, classify_edge
from repro.osnmerge.edge_rates import EdgeRateSeries
from repro.pa.edge_probability import DestinationRule, EdgeProbabilityTracker, PeCheckpoint
from repro.util.binning import histogram_counts
from repro.util.rng import make_rng


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


def from_snapshot(graph: GraphSnapshot) -> CSRGraph:
    """Freeze ``graph`` as a :class:`CSRGraph`, keeping its node insertion order."""
    adjacency = graph.adjacency
    n = len(adjacency)
    node_ids = np.fromiter(adjacency.keys(), dtype=np.int64, count=n)
    degrees = np.fromiter(map(len, adjacency.values()), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    total = int(indptr[-1])
    if total:
        # Row *content*, not set iteration order, is what survives: the
        # lexsort below canonicalizes every row to ascending positions.
        neighbors = np.fromiter(
            chain.from_iterable(adjacency.values()),
            dtype=np.int64,
            count=total,
        )
        id_order = np.argsort(node_ids, kind="stable")
        positions = id_order[np.searchsorted(node_ids[id_order], neighbors)]
        rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
        indices = positions[np.lexsort((positions, rows))]
    else:
        indices = np.empty(0, dtype=np.int64)
    return CSRGraph(node_ids=node_ids, indptr=indptr, indices=indices, num_edges=graph.num_edges)


class DictReplay:
    """Per-event replay: each advance adds its node arrivals, then its edges."""

    def __init__(self, stream: EventStream, graph: GraphSnapshot | None = None) -> None:
        self.stream = stream
        self.graph = GraphSnapshot() if graph is None else graph
        self.node_cursor = 0
        self.edge_cursor = 0

    def advance_to(self, time: float) -> None:
        """Apply the events with ``event.time <= time``."""
        nodes, edges = self.stream.nodes, self.stream.edges
        node_hi = max(self.node_cursor, int(np.searchsorted(nodes.time, time, side="right")))
        edge_hi = max(self.edge_cursor, int(np.searchsorted(edges.time, time, side="right")))
        for node in nodes.node[self.node_cursor : node_hi].tolist():
            self.graph.add_node(node)
        lo = self.edge_cursor
        for u, v in zip(edges.u[lo:edge_hi].tolist(), edges.v[lo:edge_hi].tolist(), strict=True):
            self.graph.add_edge(u, v)
        self.node_cursor, self.edge_cursor = node_hi, edge_hi


def stream_prefix(stream: EventStream, time: float) -> EventStream:
    """The events with ``event.time <= time``: what a parallel window ending there replays."""
    nodes, edges = stream.nodes, stream.edges
    return EventStream(
        nodes=nodes[: int(np.searchsorted(nodes.time, time, side="right"))],
        edges=edges[: int(np.searchsorted(edges.time, time, side="right"))],
    )


def dict_replay(stream: EventStream, time: float = float("inf")) -> GraphSnapshot:
    """The dict-of-sets graph after every event with ``time <= time``."""
    replay = DictReplay(stream)
    replay.advance_to(time)
    return replay.graph


def snapshot_of(csr: CSRGraph) -> GraphSnapshot:
    """The dict-of-sets graph of ``csr``, nodes in position order."""
    ids = csr.node_ids
    rows = np.repeat(np.arange(csr.num_nodes), csr.degrees)
    upper = rows < csr.indices
    edges = zip(ids[rows[upper]].tolist(), ids[csr.indices[upper]].tolist(), strict=True)
    return GraphSnapshot.from_edges(edges, nodes=ids.tolist())


def csr_of(edges, nodes=()) -> CSRGraph:
    """CSR of the graph with these edges (plus optional isolated nodes)."""
    return from_snapshot(GraphSnapshot.from_edges(edges, nodes=nodes))


def assert_same_csr(got: CSRGraph, want: CSRGraph) -> None:
    """Equal node order, rows and edge count, and arrivals when both carry them."""
    assert np.array_equal(got.node_ids, want.node_ids)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.num_edges == want.num_edges
    if got.arrival is not None and want.arrival is not None:
        assert np.array_equal(got.arrival, want.arrival)


def connected_components_reference(graph: GraphSnapshot) -> list[set[int]]:
    """Dict-BFS reference for :func:`connected_components_csr`."""
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
    """Dict-BFS reference for :func:`largest_component_csr`."""
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
    experiment runs.
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
        for nbr in graph.adjacency[node]:
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
        for nbr in graph.adjacency[node]:
            if nbr not in component:
                component.add(nbr)
                queue.append(nbr)
    return component


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
    nbrs = list(neighbors)
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


def degree_assortativity_reference(graph: GraphSnapshot) -> float:
    """Edge-walking reference for :func:`degree_assortativity`."""
    adjacency = graph.adjacency
    # Both orientations of every edge contribute, so the x- and y-series
    # are permutations of each other: sum(x) == sum(y), sum(x^2) == sum(y^2).
    n = 0
    s = 0  # sum of degrees over both orientations
    ss = 0  # sum of squared degrees over both orientations
    sxy = 0  # sum of du * dv over both orientations
    for u, v in graph.edges():
        du = len(adjacency[u])
        dv = len(adjacency[v])
        n += 2
        s += du + dv
        ss += du * du + dv * dv
        sxy += 2 * du * dv
    if n < 2:
        return float("nan")
    var = n * ss - s * s  # n^2 * variance, exact
    if var == 0:
        return float("nan")
    return float((n * sxy - s * s) / var)


def modularity(graph: GraphSnapshot, partition: Mapping[int, int]) -> float:
    """Modularity of ``partition`` on ``graph``.

    Every node of the graph must be assigned (raises :class:`KeyError`
    otherwise); returns 0.0 for an edgeless graph.
    """
    m = graph.num_edges
    if m == 0:
        return 0.0
    internal: dict[int, int] = defaultdict(int)
    degree_sum: dict[int, int] = defaultdict(int)
    for node, neighbors in graph.adjacency.items():
        c = partition[node]
        degree_sum[c] += len(neighbors)
    for u, v in graph.edges():
        if partition[u] == partition[v]:
            internal[partition[u]] += 1
    q = 0.0
    for c, d in degree_sum.items():
        q += internal.get(c, 0) / m - (d / (2.0 * m)) ** 2
    return q


def partition_communities(partition: Mapping[int, int]) -> dict[int, set[int]]:
    """Invert a ``node → community`` map into ``community → node set``.

    The per-node loop that :meth:`LouvainResult.communities` replaced: keys
    in first-appearance order, each set grown by one ``add`` per node.
    """
    communities: dict[int, set[int]] = defaultdict(set)
    for node, community in partition.items():
        communities[community].add(node)
    return dict(communities)


class ReferenceResult(NamedTuple):
    """:func:`louvain_reference`'s partition, modularity and level count."""

    partition: dict[int, int]
    modularity: float
    levels: int


def louvain_reference(
    graph: GraphSnapshot,
    delta: float = 0.01,
    seed_partition: Mapping[int, int] | None = None,
    seed: int | np.random.Generator | None = 0,
) -> ReferenceResult:
    """Dict-of-dicts reference for :func:`louvain`, bit-identical to it.

    Only the parity suite calls this; it pins the csr kernel's partition,
    modularity and level count for the same RNG draws.
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    rng = make_rng(seed)
    # Working weighted graph: adj[u][v] = weight; self-loops appear as adj[u][u].
    adj: dict[int, dict[int, float]] = {
        u: {v: 1.0 for v in nbrs} for u, nbrs in graph.adjacency.items()
    }
    # node → set of original nodes it represents.
    carried: dict[int, set[int]] = {u: {u} for u in adj}
    assignment = initial_assignment(adj, seed_partition)
    levels = 0
    while levels < _MAX_LEVELS:
        improved, assignment = _one_level(adj, assignment, delta, rng)
        levels += 1
        if not improved:
            break
        adj, carried, assignment = _aggregate(adj, carried, assignment)
    partition = {
        node: community
        for super_node, community in assignment.items()
        for node in carried[super_node]
    }
    return ReferenceResult(
        partition=partition,
        modularity=modularity(graph, partition),
        levels=levels,
    )


def _weighted_degree(adj_u: dict[int, float], u: int) -> float:
    # Self-loop weight counts twice, the standard convention.
    return sum(adj_u.values()) + adj_u.get(u, 0.0)


def _one_level(
    adj: dict[int, dict[int, float]],
    assignment: dict[int, int],
    delta: float,
    rng: np.random.Generator,
) -> tuple[bool, dict[int, int]]:
    """Local-move phase; returns (made structural progress, new assignment)."""
    nodes = list(adj)
    k = {u: _weighted_degree(adj[u], u) for u in nodes}
    m2 = sum(k.values())  # == 2m
    if m2 == 0:
        return False, dict(assignment)
    assignment = dict(assignment)
    comm_tot: dict[int, float] = defaultdict(float)
    for u in nodes:
        comm_tot[assignment[u]] += k[u]
    order = [nodes[i] for i in rng.permutation(len(nodes))]
    any_move = False
    for _ in range(_MAX_PASSES_PER_LEVEL):
        pass_gain = 0.0
        for u in order:
            cu = assignment[u]
            ku = k[u]
            # Weight from u to each neighboring community (excluding self-loop).
            links: dict[int, float] = defaultdict(float)
            for v, w in adj[u].items():
                if v != u:
                    links[assignment[v]] += w
            comm_tot[cu] -= ku
            base = links.get(cu, 0.0) - comm_tot[cu] * ku / m2
            best_c, best_gain = cu, 0.0
            # Ascending label order: ties resolve to the smallest community
            # label regardless of dict insertion order, matching the csr
            # kernel's rank-sorted first-max scan.
            for c in sorted(links):
                if c == cu:
                    continue
                gain = links[c] - comm_tot[c] * ku / m2
                if gain - base > best_gain:
                    best_gain = gain - base
                    best_c = c
            comm_tot[best_c] += ku
            if best_c != cu:
                assignment[u] = best_c
                any_move = True
                pass_gain += 2.0 * best_gain / m2  # ΔQ of this move
        if pass_gain < delta:
            break
    return any_move, assignment


def _aggregate(
    adj: dict[int, dict[int, float]],
    carried: dict[int, set[int]],
    assignment: dict[int, int],
) -> tuple[dict[int, dict[int, float]], dict[int, set[int]], dict[int, int]]:
    """Condense communities into super-nodes (phase 2)."""
    new_adj: dict[int, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    new_carried: dict[int, set[int]] = defaultdict(set)
    for u, nbrs in adj.items():
        cu = assignment[u]
        new_carried[cu] |= carried[u]
        for v, w in nbrs.items():
            cv = assignment[v]
            if u == v:
                new_adj[cu][cu] += w
            elif cu == cv:
                # Each internal edge visited from both ends; accumulate as
                # half so the self-loop weight equals the internal weight.
                new_adj[cu][cu] += w / 2.0
            else:
                new_adj[cu][cv] += w
    condensed = {u: dict(nbrs) for u, nbrs in new_adj.items()}
    for c in list(new_carried):
        condensed.setdefault(c, {})
    new_assignment = {c: c for c in condensed}
    return condensed, dict(new_carried), new_assignment


def initial_assignment(
    nodes: Iterable[int],
    seed_partition: Mapping[int, int] | None,
) -> dict[int, int]:
    """Initial node → label map over ``nodes`` (any iterable of node ids).

    The reference's start; the csr kernel computes the same labels as an
    array with :func:`repro.kernels.louvain.initial_labels`, from the seed
    partition as ``(ids, labels)`` arrays.

    With a ``seed_partition`` (incremental mode), seed labels are mapped
    into a fresh label space to avoid collisions with singleton labels for
    unseen nodes (which use the node ids themselves, offset to a disjoint
    range).
    """
    if seed_partition is None:
        return {u: u for u in nodes}
    nodes = list(nodes)
    label_map: dict[int, int] = {}
    assignment: dict[int, int] = {}
    next_label = 0
    for u in nodes:
        seed_label = seed_partition.get(u)
        if seed_label is None:
            continue
        if seed_label not in label_map:
            label_map[seed_label] = next_label
            next_label += 1
        assignment[u] = label_map[seed_label]
    for u in nodes:
        if u not in assignment:
            assignment[u] = next_label
            next_label += 1
    return assignment


def _match_python(
    raw: Mapping[int, frozenset[int]],
    prev_states: Mapping[int, CommunityState],
) -> tuple[dict[int, tuple[int, float] | None], dict[int, Counter]]:
    """Reference matcher: per-label best previous lineage plus overlap counts.

    Only the parity suite calls this; the tracker runs
    :func:`repro.kernels.matching.match_communities_csr`.  Both resolve
    equal-similarity parents to the smallest lineage id.
    """
    node_lineage = {
        node: state.lineage for state in prev_states.values() for node in state.members
    }
    # Overlap counts between each new community and each previous lineage.
    overlaps: dict[int, Counter] = {}
    for label, members in raw.items():
        counter: Counter = Counter()
        for node in members:
            lin = node_lineage.get(node)
            if lin is not None:
                counter[lin] += 1
        overlaps[label] = counter

    parent: dict[int, tuple[int, float] | None] = {}
    for label, members in raw.items():
        best: tuple[int, float] | None = None
        # Ascending lineage order: similarity ties resolve to the smallest
        # lineage id, independent of Counter insertion order.
        for lin in sorted(overlaps[label]):
            inter = overlaps[label][lin]
            prev_members = prev_states[lin].members
            sim = inter / (len(members) + len(prev_members) - inter)
            if best is None or sim > best[1]:
                best = (lin, sim)
        parent[label] = best
    return parent, overlaps


def degree_distribution_reference(graph: GraphSnapshot) -> dict[int, int]:
    """Dict reference for :func:`repro.metrics.degree.degree_distribution`."""
    return histogram_counts(len(nbrs) for nbrs in graph.adjacency.values())


def degree_ccdf_reference(graph: GraphSnapshot) -> tuple[np.ndarray, np.ndarray]:
    """Dict reference for :func:`repro.metrics.degree.degree_ccdf`."""
    dist = degree_distribution_reference(graph)
    if not dist:
        return np.array([]), np.array([])
    degrees = np.array(sorted(dist))
    counts = np.array([dist[d] for d in degrees], dtype=float)
    total = counts.sum()
    # P(D >= d): reverse cumulative sum.
    ccdf = counts[::-1].cumsum()[::-1] / total
    return degrees, ccdf


def fit_degree_tail_reference(graph: GraphSnapshot, xmin: float | None = None) -> PowerLawFit:
    """Dict reference for :func:`repro.metrics.degree.fit_degree_tail`."""
    degrees = np.array([len(nbrs) for nbrs in graph.adjacency.values()], dtype=float)
    degrees = degrees[degrees > 0]
    if degrees.size < 10:
        raise ValueError("need at least 10 positive-degree nodes for a tail fit")
    if xmin is None:
        xmin = float(np.median(degrees))
    return fit_power_law_mle(degrees, xmin=xmin)


def effective_diameter_reference(
    graph: GraphSnapshot,
    quantile: float = 0.9,
    sample_size: int = 400,
    rng: int | np.random.Generator | None = None,
) -> float:
    """Dict-BFS reference for :func:`repro.metrics.diameter.effective_diameter_sampled`.

    It draws its sources in the component *set*'s iteration order, the
    kernel from the sorted pool: the two orders agree on the generated
    traces' compact ids and can differ on sparse ones.
    """
    if not 0 < quantile <= 1:
        raise ValueError("quantile must be in (0, 1]")
    generator = make_rng(rng)
    component = set(largest_component_csr(from_snapshot(graph)).tolist())
    if len(component) < 2:
        return float("nan")
    members = np.fromiter(component, dtype=np.int64, count=len(component))
    k = min(sample_size, members.size)
    sources = generator.choice(members, size=k, replace=False)
    # Histogram of pairwise distances from the sampled sources.
    counts: dict[int, int] = {}
    for source in sources:
        for node, dist in bfs_distances(graph, int(source)).items():
            if node != source:
                counts[dist] = counts.get(dist, 0) + 1
    if not counts:
        return float("nan")
    max_d = max(counts)
    cumulative = np.cumsum([counts.get(d, 0) for d in range(1, max_d + 1)], dtype=np.int64)
    total = cumulative[-1]
    target = quantile * total
    # Smallest integer g with cumulative(g) >= target, interpolated.
    g = int(np.searchsorted(cumulative, target) + 1)
    below = cumulative[g - 2] if g >= 2 else 0
    at = cumulative[g - 1]
    if at == below:
        return float(g)
    fraction = (target - below) / (at - below)
    return float(g - 1 + fraction)


def degree_preserving_rewire_reference(
    graph: GraphSnapshot,
    swaps_per_edge: float = 3.0,
    seed: int | np.random.Generator | None = 0,
    max_tries_factor: int = 10,
) -> GraphSnapshot:
    """Adjacency-set reference for :func:`repro.graph.nullmodel.degree_preserving_rewire`."""
    if swaps_per_edge < 0:
        raise ValueError("swaps_per_edge must be non-negative")
    rng = make_rng(seed)
    result = GraphSnapshot.from_edges(graph.edges(), nodes=graph.nodes())
    edges = list(result.edges())
    m = len(edges)
    if m < 2 or swaps_per_edge == 0:
        return result
    target_swaps = int(swaps_per_edge * m)
    max_tries = max_tries_factor * target_swaps
    adjacency = result.adjacency
    swaps = 0
    tries = 0
    while swaps < target_swaps and tries < max_tries:
        tries += 1
        i, j = rng.integers(0, m, size=2)
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        # Propose (a,b),(c,d) -> (a,d),(c,b).
        if len({a, b, c, d}) < 4:
            continue
        if d in adjacency[a] or b in adjacency[c]:
            continue
        adjacency[a].discard(b)
        adjacency[b].discard(a)
        adjacency[c].discard(d)
        adjacency[d].discard(c)
        adjacency[a].add(d)
        adjacency[d].add(a)
        adjacency[c].add(b)
        adjacency[b].add(c)
        edges[i] = (a, d) if a < d else (d, a)
        edges[j] = (c, b) if c < b else (b, c)
        swaps += 1
    return result


def pe_checkpoints_reference(
    tracker: EdgeProbabilityTracker,
    stream: EventStream,
    checkpoint_every: int = 5000,
    min_edges: int = 0,
) -> list[PeCheckpoint]:
    """Replay ``stream`` edge by edge with ``tracker``'s settings and generator."""
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    size = tracker.max_degree + 1
    degree = dict.fromkeys(stream.nodes.node.tolist(), 0)
    degree_count = np.zeros(size, dtype=np.int64)
    numerator = np.zeros(size, dtype=np.float64)
    denominator = np.zeros(size, dtype=np.float64)
    # Nodes exist from their arrival; replay interleaves arrivals and
    # edges chronologically so degree-0 counts are correct.
    checkpoints: list[PeCheckpoint] = []
    edges_seen = 0
    edges = stream.edges
    born_by_edge = np.searchsorted(stream.nodes.time, edges.time, side="right").tolist()
    arrived = 0
    for t, u, v, n_born in zip(
        edges.time.tolist(), edges.u.tolist(), edges.v.tolist(), born_by_edge, strict=True
    ):
        if n_born > arrived:
            degree_count[0] += n_born - arrived
            arrived = n_born
        dest_degree = _destination_degree(tracker, degree[u], degree[v])
        d = min(dest_degree, tracker.max_degree)
        numerator[d] += 1
        denominator += degree_count
        _bump(tracker, degree, degree_count, u)
        _bump(tracker, degree, degree_count, v)
        edges_seen += 1
        if edges_seen % checkpoint_every == 0 and edges_seen >= min_edges:
            node_count = int(degree_count.sum())
            checkpoints.append(
                tracker._checkpoint(edges_seen, t, numerator, denominator, node_count)
            )
            if tracker.mode == "window":
                numerator[:] = 0
                denominator[:] = 0
    return checkpoints


def _destination_degree(tracker: EdgeProbabilityTracker, du: int, dv: int) -> int:
    if tracker.rule is DestinationRule.HIGHER_DEGREE:
        return max(du, dv)
    return du if tracker._rng.random() < 0.5 else dv


def _bump(
    tracker: EdgeProbabilityTracker, degree: dict[int, int], degree_count: np.ndarray, node: int
) -> None:
    d = degree[node]
    capped = min(d, tracker.max_degree)
    degree_count[capped] -= 1
    degree[node] = d + 1
    degree_count[min(d + 1, tracker.max_degree)] += 1


def node_edge_times_reference(stream: EventStream) -> dict[int, list[float]]:
    """Map each node to the sorted times of its edge creations."""
    times: dict[int, list[float]] = defaultdict(list)
    edges = stream.edges
    for t, u, v in zip(edges.time.tolist(), edges.u.tolist(), edges.v.tolist(), strict=True):
        times[u].append(t)
        times[v].append(t)
    for values in times.values():
        values.sort()
    return times


def collect_interarrivals_by_age_reference(
    stream: EventStream,
    buckets: Sequence[tuple[str, float, float]] | None = None,
) -> dict[str, np.ndarray]:
    """Per node and gap: the first age bucket of the later edge's age."""
    if buckets is None:
        buckets = AGE_BUCKETS_PAPER
    arrival = stream.node_arrival_times()
    per_bucket: dict[str, list[float]] = {label: [] for label, _, _ in buckets}
    for node, times in node_edge_times_reference(stream).items():
        born = arrival[node]
        for t0, t1 in zip(times, times[1:], strict=False):
            gap = t1 - t0
            if gap <= 0:
                continue
            age = t1 - born
            for label, lo, hi in buckets:
                if lo <= age < hi:
                    per_bucket[label].append(gap)
                    break
    return {label: np.asarray(vals) for label, vals in per_bucket.items()}


def node_lifetimes_reference(stream: EventStream) -> dict[int, NodeLifetime]:
    """Lifetime records for all nodes that created at least one edge."""
    arrival = stream.node_arrival_times()
    return {
        node: NodeLifetime(node=node, joined=arrival[node], last_edge=times[-1], degree=len(times))
        for node, times in node_edge_times_reference(stream).items()
    }


def edge_creation_over_lifetime_reference(
    stream: EventStream,
    bins: int = 10,
    min_history_days: float = 30.0,
    min_degree: int = 20,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Per node ``np.histogram`` of normalized edge times, averaged."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    arrival = stream.node_arrival_times()
    end = stream.end_time
    histograms: list[np.ndarray] = []
    for node, times in node_edge_times_reference(stream).items():
        born = arrival[node]
        if end - born < min_history_days or len(times) < min_degree:
            continue
        span = times[-1] - born
        if span <= 0:
            continue
        normalized = (np.asarray(times) - born) / span
        hist, _ = np.histogram(np.clip(normalized, 0.0, 1.0), bins=bins, range=(0.0, 1.0))
        histograms.append(hist / len(times))
    centers = (np.arange(bins) + 0.5) / bins
    if not histograms:
        return centers, np.zeros(bins), 0
    return centers, np.mean(histograms, axis=0), len(histograms)


def minimal_age_fractions_reference(
    stream: EventStream,
    thresholds: Sequence[float] = (1.0, 10.0, 30.0),
) -> tuple[np.ndarray, dict[float, np.ndarray]]:
    """Per edge: its day and whether its younger endpoint is below each threshold."""
    thresholds = tuple(thresholds)
    arrival = stream.node_arrival_times()
    n_days = int(math.floor(stream.end_time)) + 1
    totals = np.zeros(n_days)
    below = {thr: np.zeros(n_days) for thr in thresholds}
    edges = stream.edges
    for t, u, v in zip(edges.time.tolist(), edges.u.tolist(), edges.v.tolist(), strict=True):
        day = int(t)
        min_age = t - max(arrival[u], arrival[v])
        totals[day] += 1
        for thr in thresholds:
            if min_age <= thr:
                below[thr][day] += 1
    days = np.arange(n_days)
    with np.errstate(divide="ignore", invalid="ignore"):
        fractions = {
            thr: np.where(totals > 0, counts / totals, np.nan) for thr, counts in below.items()
        }
    return days, fractions


def activity_threshold_reference(stream: EventStream, quantile: float = 0.99) -> float:
    """``quantile`` of per-user ``np.mean(np.diff(times))``."""
    means = [
        float(np.mean(np.diff(times)))
        for times in node_edge_times_reference(stream).values()
        if len(times) >= 2
    ]
    if not means:
        raise ValueError("no user created two or more edges")
    return float(np.quantile(means, quantile))


def classify_edges_reference(
    stream: EventStream,
    after: float,
    organic_after: float | None = None,
) -> list[tuple[float, int, int, EdgeClass]]:
    """Per edge after the cutoff: ``(time, u, v, class)``."""
    cutoff = after + 1.0 if organic_after is None else organic_after
    origin_of = stream.node_origins()
    edges = stream.edges
    return [
        (t, u, v, classify_edge(u, v, origin_of))
        for t, u, v in zip(edges.time.tolist(), edges.u.tolist(), edges.v.tolist(), strict=True)
        if t > cutoff
    ]


def edges_per_day_by_type_reference(stream: EventStream, merge_day: float) -> EdgeRateSeries:
    """Per classified edge: bump its day's counter for its class and origins."""
    horizon = int(math.floor(stream.end_time - merge_day))
    if horizon < 0:
        raise ValueError("merge_day is past the end of the stream")
    days = np.arange(horizon + 1)
    origins = stream.node_origins()
    internal = {o: np.zeros(horizon + 1) for o in (ORIGIN_XIAONEI, ORIGIN_5Q)}
    new = {o: np.zeros(horizon + 1) for o in (ORIGIN_XIAONEI, ORIGIN_5Q)}
    external = np.zeros(horizon + 1)
    new_total = np.zeros(horizon + 1)
    for t, u, v, kind in classify_edges_reference(stream, after=merge_day):
        day = int(t - merge_day)
        if day > horizon:
            continue
        ou, ov = origins[u], origins[v]
        if kind is EdgeClass.INTERNAL:
            if ou in internal:
                internal[ou][day] += 1
        elif kind is EdgeClass.EXTERNAL:
            external[day] += 1
        else:
            new_total[day] += 1
            for o in {ou, ov}:
                if o in new:
                    new[o][day] += 1
    return EdgeRateSeries(
        days=days,
        internal=internal,
        new=new,
        external=external,
        internal_total=internal[ORIGIN_XIAONEI] + internal[ORIGIN_5Q],
        new_total=new_total,
    )


def active_users_over_time_reference(
    stream: EventStream,
    merge_day: float,
    origin: str,
    threshold: float,
) -> ActiveUserSeries:
    """Per user and class: merge the day windows of their edges, one by one."""
    t = threshold
    origins = stream.node_origins()
    group = {node for node, o in origins.items() if o == origin}
    if not group:
        raise ValueError(f"no nodes with origin {origin!r}")
    horizon = int(math.floor(stream.end_time - merge_day - t))
    if horizon < 0:
        raise ValueError("threshold exceeds the post-merge span of the trace")
    days = np.arange(horizon + 1)
    activity: dict[str, dict[int, list[float]]] = {
        "all": defaultdict(list),
        "new": defaultdict(list),
        "internal": defaultdict(list),
        "external": defaultdict(list),
    }
    for time, u, v, kind in classify_edges_reference(stream, after=merge_day):
        rel = time - merge_day
        for endpoint in (u, v):
            if endpoint in group:
                activity["all"][endpoint].append(rel)
                activity[kind.value][endpoint].append(rel)
    percent: dict[str, np.ndarray] = {}
    for kind, per_user in activity.items():
        counts = np.zeros(days.size + 1)
        for times in per_user.values():
            for lo, hi in _merged_intervals(times, t, days.size - 1):
                counts[lo] += 1
                counts[hi + 1] -= 1
        percent[kind] = 100.0 * np.cumsum(counts[:-1]) / len(group)
    return ActiveUserSeries(
        origin=origin, group_size=len(group), threshold=t, days=days, percent_active=percent
    )


def _merged_intervals(times: list[float], threshold: float, max_day: int) -> list[tuple[int, int]]:
    """Union of the day windows ``[time - t, time]`` clipped to [0, max_day]."""
    intervals: list[tuple[int, int]] = []
    for time in sorted(times):
        lo = max(0, int(math.ceil(time - threshold)))
        hi = min(max_day, int(math.floor(time)))
        if lo > max_day or hi < 0 or lo > hi:
            continue
        if intervals and lo <= intervals[-1][1] + 1:
            intervals[-1] = (intervals[-1][0], max(intervals[-1][1], hi))
        else:
            intervals.append((lo, hi))
    return intervals


def interarrival_by_membership_reference(
    stream: EventStream, membership: CommunityMembership
) -> dict[str, np.ndarray]:
    """Per node: its gaps, pooled by whether it is in a community."""
    members = membership.community_nodes()
    groups: dict[str, list[float]] = {"community": [], "non_community": []}
    for node, times in node_edge_times_reference(stream).items():
        gaps = node_interarrival_times(times)
        if gaps.size == 0:
            continue
        key = "community" if node in members else "non_community"
        groups[key].extend(gaps.tolist())
    return {key: np.asarray(vals) for key, vals in groups.items()}


def lifetime_by_community_size_reference(
    stream: EventStream,
    membership: CommunityMembership,
    buckets: tuple[tuple[int, float], ...] = SIZE_BUCKETS_PAPER,
) -> dict[str, np.ndarray]:
    """Per node: its lifetime, pooled by its community's size bucket."""
    arrival = stream.node_arrival_times()
    groups: dict[str, list[float]] = {"non_community": []}
    for lo, hi in buckets:
        groups[_bucket_label(lo, hi)] = []
    for node, times in node_edge_times_reference(stream).items():
        lifetime = times[-1] - arrival[node]
        label = membership.bucket_of(node, buckets)
        groups[label if label is not None else "non_community"].append(lifetime)
    return {key: np.asarray(vals) for key, vals in groups.items()}


def in_degree_ratio_by_size_reference(
    graph: CSRGraph,
    membership: CommunityMembership,
    buckets: tuple[tuple[int, float], ...] = SIZE_BUCKETS_PAPER,
) -> dict[str, np.ndarray]:
    """Per community member: its inside-edge share, pooled by size bucket."""
    groups: dict[str, list[float]] = {}
    for lo, hi in buckets:
        groups[_bucket_label(lo, hi)] = []
    nodes = np.fromiter(membership.community_of, dtype=np.int64, count=len(membership.community_of))
    present = np.isin(nodes, graph.node_ids)
    community = np.full(graph.num_nodes, -1, dtype=np.int64)
    labels = np.fromiter(membership.community_of.values(), dtype=np.int64, count=nodes.size)
    positions = graph.positions_of(nodes[present])
    community[positions] = labels[present]
    row = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    same = community[row] == community[graph.indices]
    inside = np.bincount(row[same], minlength=graph.num_nodes)
    degree = graph.degrees[positions].tolist()
    kept = inside[positions].tolist()
    for node, k, own in zip(nodes[present].tolist(), degree, kept, strict=True):
        if k == 0:
            continue
        label = membership.bucket_of(node, buckets)
        if label is None:
            continue
        groups[label].append(own / k)
    return {key: np.asarray(vals) for key, vals in groups.items()}
