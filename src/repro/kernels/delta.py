"""Append-friendly CSR and event-delta metric accumulators (the delta engine).

Batch replay rebuilds a :class:`~repro.kernels.csr.CSRGraph` and recomputes
every metric per snapshot, so each snapshot costs O(graph) even when the
window added only a handful of events.  This module maintains the graph and
the metric state *incrementally*:

* :class:`DeltaCSRGraph` — a mutable CSR variant: a compacted base
  (``indptr``/``indices`` in position space, rows sorted) plus an append
  log of edges since the last compaction.  The log is merged into the base
  ("compaction") only when it grows past a fixed fraction of the base, so
  amortized maintenance is cheap and :meth:`DeltaCSRGraph.to_csr` yields a
  :class:`CSRGraph` **bit-identical** to freezing the equivalent snapshot.
* :class:`DeltaMetricEngine` — exact integer accumulators for the degree
  histogram, per-node triangle counts (clustering), and the assortativity
  Pearson sums, updated per edge event in O(deg) instead of O(graph) per
  snapshot.  Every derived float is produced by the *same IEEE-754
  expression* as the batch kernels, so degree / clustering / assortativity
  are bit-identical to the csr kernels (and therefore to the references).

Which replays run on the engine is decided by the runtime
(:func:`repro.runtime.parallel.select_engine`), never by the caller.

The engine's accumulator math is exact because every quantity is a Python
integer: adding edge ``(u, v)`` with old degrees ``du``/``dv`` and old
neighbor-degree sums ``Su``/``Sv`` shifts the Pearson sums by

* ``Σd²  += (2du + 1) + (2dv + 1)``
* ``Σd³  += (3du² + 3du + 1) + (3dv² + 3dv + 1)``
* ``Σdᵤdᵥ += 2·Su + 2·Sv + 2·(du + 1)·(dv + 1)``

and each common neighbor of ``u`` and ``v`` closes exactly one new
triangle at each of its three corners.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels.csr import CSRGraph
from repro.obs import get_recorder
from repro.util.arrays import FloatArray, IntArray
from repro.util.rng import make_rng

__all__ = [
    "DeltaCSRGraph",
    "DeltaEngineState",
    "DeltaMetricEngine",
]

# Compaction policy defaults: merge the edge log into the base CSR once the
# log holds more than COMPACT_RATIO of the base's directed entries (with a
# floor so tiny graphs don't compact on every edge).  Amortized merge cost
# is then O(E / ratio) over the whole replay, while queries stay fast
# because the un-merged log is bounded relative to the base.
COMPACT_RATIO = 0.25
COMPACT_MIN = 4096


class DeltaCSRGraph:
    """A mutable CSR graph: compacted base + append log + neighbor sets.

    Positions are assigned in node arrival order (matching the adjacency
    insertion order of the equivalent :class:`~repro.graph.snapshot.GraphSnapshot`),
    so :meth:`to_csr` reproduces ``CSRGraph.from_snapshot`` exactly — the
    property the Louvain RNG parity and the shared ``positions_of``
    contract rely on.
    """

    def __init__(
        self,
        compact_ratio: float = COMPACT_RATIO,
        compact_min: int = COMPACT_MIN,
    ) -> None:
        if compact_ratio <= 0:
            raise ValueError(f"compact_ratio must be positive, got {compact_ratio}")
        self.compact_ratio = compact_ratio
        self.compact_min = compact_min
        self._ids: list[int] = []
        self._pos: dict[int, int] = {}
        self._adj: list[set[int]] = []
        self._deg: list[int] = []
        # Base CSR over the first ``_base_indptr.size - 1`` positions.
        self._base_indptr: IntArray = np.zeros(1, dtype=np.int64)
        self._base_indices: IntArray = np.empty(0, dtype=np.int64)
        # Un-compacted undirected edges (one entry per edge, not per direction).
        self._log_u: list[int] = []
        self._log_v: list[int] = []
        self.num_edges = 0
        self.compactions = 0
        self._csr_cache: CSRGraph | None = None

    # -- queries -------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._ids)

    @property
    def log_size(self) -> int:
        """Undirected edges currently in the append log."""
        return len(self._log_u)

    def __contains__(self, node: int) -> bool:
        return node in self._pos

    def position_of(self, node: int) -> int:
        """Position of ``node`` (raises :class:`KeyError` when absent)."""
        return self._pos[node]

    def degree_of_position(self, position: int) -> int:
        """Degree of the node at ``position``."""
        return self._deg[position]

    def node_ids_array(self) -> IntArray:
        """Node ids in position (arrival) order, as a fresh int64 array."""
        return np.fromiter(self._ids, dtype=np.int64, count=len(self._ids))

    # -- mutation ------------------------------------------------------

    def add_node(self, node: int) -> bool:
        """Register ``node`` (idempotent); returns ``True`` when new."""
        if node in self._pos:
            return False
        self._pos[node] = len(self._ids)
        self._ids.append(node)
        self._adj.append(set())
        self._deg.append(0)
        self._csr_cache = None
        return True

    def add_edge(self, u: int, v: int) -> bool:
        """Add undirected edge ``(u, v)``; returns ``True`` when new.

        Mirrors :meth:`GraphSnapshot.add_edge`: self-loops raise
        :class:`ValueError`, unknown endpoints raise :class:`KeyError`.
        """
        if u == v:
            raise ValueError(f"self-loop on node {u} not allowed")
        pu, pv = self._pos[u], self._pos[v]
        adj_u = self._adj[pu]
        if pv in adj_u:
            return False
        adj_u.add(pv)
        self._adj[pv].add(pu)
        self._deg[pu] += 1
        self._deg[pv] += 1
        self._log_u.append(pu)
        self._log_v.append(pv)
        self.num_edges += 1
        self._csr_cache = None
        threshold = max(
            self.compact_min, int(self.compact_ratio * self._base_indices.size)
        )
        if 2 * len(self._log_u) > threshold:
            self.compact()
        return True

    def compact(self) -> None:
        """Merge the append log into the base CSR (periodic compaction)."""
        if not self._log_u:
            return
        n = len(self._ids)
        rec = get_recorder()
        with rec.span("delta.compact", nodes=n, log_edges=len(self._log_u)):
            base_n = self._base_indptr.size - 1
            base_rows = np.repeat(
                np.arange(base_n, dtype=np.int64), np.diff(self._base_indptr)
            )
            log_u = np.fromiter(self._log_u, dtype=np.int64, count=len(self._log_u))
            log_v = np.fromiter(self._log_v, dtype=np.int64, count=len(self._log_v))
            rows = np.concatenate([base_rows, log_u, log_v])
            cols = np.concatenate([self._base_indices, log_v, log_u])
            order = np.lexsort((cols, rows))
            self._base_indices = cols[order]
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
            self._base_indptr = indptr
            self._log_u = []
            self._log_v = []
            self.compactions += 1
            if rec.enabled:
                rec.count("delta.compactions", 1)

    def to_csr(self) -> CSRGraph:
        """Freeze into a :class:`CSRGraph`, bit-identical to a batch build.

        Compacts first, so repeated calls between mutations are free (the
        frozen view is cached) and the base always reflects the full graph
        afterwards.
        """
        if self._csr_cache is not None:
            return self._csr_cache
        self.compact()
        n = len(self._ids)
        indptr = self._base_indptr
        if indptr.size != n + 1:
            # Nodes appended since the last compaction have empty rows.
            grown = np.empty(n + 1, dtype=np.int64)
            grown[: indptr.size] = indptr
            grown[indptr.size :] = indptr[-1]
            indptr = grown
            self._base_indptr = indptr
        csr = CSRGraph(
            node_ids=self.node_ids_array(),
            indptr=indptr,
            indices=self._base_indices,
            num_edges=self.num_edges,
        )
        self._csr_cache = csr
        return csr

    def __repr__(self) -> str:
        return (
            f"DeltaCSRGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"log={self.log_size}, compactions={self.compactions})"
        )


@dataclass(frozen=True)
class DeltaEngineState:
    """Picklable freeze of a :class:`DeltaMetricEngine` (checkpoint payload).

    Everything needed to resume incremental evaluation mid-stream: the
    delta-CSR arrays (log included, so compaction cadence is preserved)
    and the exact-integer accumulators.
    """

    node_ids: IntArray
    base_indptr: IntArray
    base_indices: IntArray
    log_u: IntArray
    log_v: IntArray
    num_edges: int
    compactions: int
    compact_ratio: float
    compact_min: int
    degrees: IntArray
    triangles: IntArray
    neighbor_degree_sums: IntArray
    sum_d2: int
    sum_d3: int
    sum_dxdy: int


@dataclass
class DeltaMetricEngine:
    """Event-delta accumulators over a :class:`DeltaCSRGraph`.

    Feed it every :class:`~repro.graph.dynamic.SnapshotView` (or raw
    node/edge arrivals) in replay order; read metrics at any point.  Each
    metric reproduces the batch kernel's float bit-for-bit:

    * :meth:`average_degree` — same ``2E / N`` expression;
    * :meth:`degree_distribution` — maintained histogram, equal as a dict;
    * :meth:`average_clustering` — same sorted sampling pool, same RNG
      draw, coefficients from exact triangle counts via the kernel's
      ``2·T / (k·(k-1))`` expression, same ``np.mean``;
    * :meth:`assortativity` — the reference's exact-integer Pearson
      formula evaluated on incrementally maintained sums.
    """

    graph: DeltaCSRGraph = field(default_factory=DeltaCSRGraph)

    def __post_init__(self) -> None:
        self._tri: list[int] = [0] * self.graph.num_nodes
        self._nds: list[int] = [0] * self.graph.num_nodes
        self._sum_d2 = 0
        self._sum_d3 = 0
        self._sum_dxdy = 0
        self._hist: dict[int, int] = (
            {0: self.graph.num_nodes} if self.graph.num_nodes else {}
        )

    # -- event ingestion ----------------------------------------------

    def apply_node(self, node: int) -> bool:
        """Apply a node-arrival event; returns ``True`` when new."""
        if not self.graph.add_node(node):
            return False
        self._tri.append(0)
        self._nds.append(0)
        self._hist[0] = self._hist.get(0, 0) + 1
        return True

    def apply_edge(self, u: int, v: int) -> bool:
        """Apply an edge-arrival event; returns ``True`` when new."""
        graph = self.graph
        pu, pv = graph.position_of(u), graph.position_of(v)
        deg = graph._deg
        adj = graph._adj
        du, dv = deg[pu], deg[pv]
        # Snapshot the pre-edge neighborhoods *before* mutating adjacency.
        adj_u, adj_v = adj[pu], adj[pv]
        if pv in adj_u:
            return False
        common = adj_u & adj_v
        nds = self._nds
        su, sv = nds[pu], nds[pv]
        # Order-free exact-integer adds: iteration order over the
        # neighbor sets cannot affect any accumulator value.
        for w in adj_u:
            nds[w] += 1
        for w in adj_v:
            nds[w] += 1
        if not graph.add_edge(u, v):  # pragma: no cover - membership checked above
            raise AssertionError("membership check desynchronized")
        # Triangles: each common neighbor closes one triangle at all three
        # corners; counts are exact ints so order cannot matter.
        tri = self._tri
        ncommon = len(common)
        if ncommon:
            tri[pu] += ncommon
            tri[pv] += ncommon
            for w in common:
                tri[w] += 1
        # Assortativity Pearson sums (all Python ints — exact).
        self._sum_d2 += 2 * du + 2 * dv + 2
        self._sum_d3 += 3 * du * du + 3 * du + 3 * dv * dv + 3 * dv + 2
        self._sum_dxdy += 2 * su + 2 * sv + 2 * (du + 1) * (dv + 1)
        nds[pu] += dv + 1
        nds[pv] += du + 1
        # Degree histogram: u and v each move up one bucket.
        hist = self._hist
        for old in (du, dv):
            count = hist[old] - 1
            if count:
                hist[old] = count
            else:
                del hist[old]
            hist[old + 1] = hist.get(old + 1, 0) + 1
        return True

    def apply_view(
        self,
        new_nodes: tuple[int, ...] | list[int],
        new_edges: tuple[tuple[int, int], ...] | list[tuple[int, int]],
    ) -> int:
        """Apply one snapshot window's arrivals; returns events applied.

        Node arrivals commute with this window's edge arrivals (an edge
        only ever references nodes that arrived at or before its own
        timestamp), so applying all nodes first is state-identical to
        interleaved event order.
        """
        rec = get_recorder()
        applied = 0
        with rec.span(
            "delta.apply", nodes=len(new_nodes), edges=len(new_edges)
        ):
            for node in new_nodes:
                if self.apply_node(node):
                    applied += 1
            for u, v in new_edges:
                if self.apply_edge(u, v):
                    applied += 1
            if rec.enabled:
                rec.count("delta.events", applied)
        return applied

    # -- metrics -------------------------------------------------------

    def average_degree(self) -> float:
        """Mean degree ``2E / N`` — same expression as the batch reference."""
        n = self.graph.num_nodes
        if n == 0:
            return 0.0
        return 2.0 * self.graph.num_edges / n

    def degree_distribution(self) -> dict[int, int]:
        """Degree → node count, equal to the batch histogram as a dict."""
        return dict(self._hist)

    def average_clustering(
        self,
        sample_size: int | None,
        rng: int | np.random.Generator | None,
    ) -> float:
        """Delta twin of :func:`repro.kernels.clustering.average_clustering_csr`.

        Same sorted sampling pool, same ``rng.choice`` draw, same
        evaluation order, same coefficient expression, same ``np.mean`` —
        but each coefficient reads a maintained triangle count instead of
        intersecting neighborhoods, so cost is O(sample), not
        O(sample · degree²).
        """
        n = self.graph.num_nodes
        if n == 0:
            return float("nan")
        rec = get_recorder()
        with rec.span("delta.clustering", nodes=n):
            if sample_size is not None and sample_size < n:
                pool = np.sort(self.graph.node_ids_array())
                sampled = make_rng(rng).choice(pool, size=sample_size, replace=False)
                pos = self.graph._pos
                positions = [pos[int(node)] for node in sampled.tolist()]
            else:
                positions = list(range(n))
            if rec.enabled:
                rec.count("delta.clustering_nodes", len(positions))
            deg = self.graph._deg
            tri = self._tri
            out: FloatArray = np.empty(len(positions), dtype=np.float64)
            for i, p in enumerate(positions):
                k = deg[p]
                # Same expression as the csr kernel (T == two_links // 2).
                out[i] = 0.0 if k < 2 else 2.0 * tri[p] / (k * (k - 1))
            return float(np.mean(out))

    def assortativity(self) -> float:
        """Delta twin of :func:`repro.kernels.assortativity.degree_assortativity_csr`.

        The Pearson sums are maintained exactly per edge, and the final
        formula is the reference's integer expression — bit-identical.
        """
        n = 2 * self.graph.num_edges
        if n < 2:
            return float("nan")
        s = self._sum_d2
        ss = self._sum_d3
        sxy = self._sum_dxdy
        var = n * ss - s * s
        if var == 0:
            return float("nan")
        return float((n * sxy - s * s) / var)

    def to_csr(self) -> CSRGraph:
        """Frozen CSR of the current graph (compacts; result is cached)."""
        return self.graph.to_csr()

    # -- checkpointing -------------------------------------------------

    def state(self) -> DeltaEngineState:
        """Freeze the full engine into a picklable checkpoint payload."""
        graph = self.graph
        return DeltaEngineState(
            node_ids=graph.node_ids_array(),
            base_indptr=graph._base_indptr.copy(),
            base_indices=graph._base_indices.copy(),
            log_u=np.fromiter(graph._log_u, dtype=np.int64, count=len(graph._log_u)),
            log_v=np.fromiter(graph._log_v, dtype=np.int64, count=len(graph._log_v)),
            num_edges=graph.num_edges,
            compactions=graph.compactions,
            compact_ratio=graph.compact_ratio,
            compact_min=graph.compact_min,
            degrees=np.fromiter(graph._deg, dtype=np.int64, count=len(graph._deg)),
            triangles=np.fromiter(self._tri, dtype=np.int64, count=len(self._tri)),
            neighbor_degree_sums=np.fromiter(
                self._nds, dtype=np.int64, count=len(self._nds)
            ),
            sum_d2=self._sum_d2,
            sum_d3=self._sum_d3,
            sum_dxdy=self._sum_dxdy,
        )

    @classmethod
    def from_state(cls, state: DeltaEngineState) -> "DeltaMetricEngine":
        """Rebuild an engine bit-identical to the one that froze ``state``."""
        graph = DeltaCSRGraph(
            compact_ratio=state.compact_ratio, compact_min=state.compact_min
        )
        ids = state.node_ids.tolist()
        graph._ids = ids
        graph._pos = {node: p for p, node in enumerate(ids)}
        graph._deg = state.degrees.tolist()
        adj: list[set[int]] = [set() for _ in ids]
        base_n = state.base_indptr.size - 1
        indptr = state.base_indptr.tolist()
        base = state.base_indices.tolist()
        for p in range(base_n):
            adj[p].update(base[indptr[p] : indptr[p + 1]])
        for pu, pv in zip(state.log_u.tolist(), state.log_v.tolist(), strict=True):
            adj[pu].add(pv)
            adj[pv].add(pu)
        graph._adj = adj
        graph._base_indptr = state.base_indptr.copy()
        graph._base_indices = state.base_indices.copy()
        graph._log_u = state.log_u.tolist()
        graph._log_v = state.log_v.tolist()
        graph.num_edges = state.num_edges
        graph.compactions = state.compactions
        engine = cls(graph=graph)
        engine._tri = state.triangles.tolist()
        engine._nds = state.neighbor_degree_sums.tolist()
        engine._sum_d2 = state.sum_d2
        engine._sum_d3 = state.sum_d3
        engine._sum_dxdy = state.sum_dxdy
        engine._hist = {}
        for k in graph._deg:
            engine._hist[k] = engine._hist.get(k, 0) + 1
        return engine
