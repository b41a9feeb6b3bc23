"""Event-delta metric accumulators (the delta engine).

Batch replay recomputes every metric on each snapshot's
:class:`~repro.kernels.csr.CSRGraph`, so each snapshot costs O(graph) even
when the window added only a handful of events.
:class:`DeltaMetricEngine` keeps position-space neighbor sets and exact
integer accumulators for the degree histogram, per-node triangle counts
(clustering) and the assortativity Pearson sums, updated per edge event in
O(deg) instead of O(graph) per snapshot.  Every derived float is produced
by the *same IEEE-754 expression* as the batch kernels, so degree /
clustering / assortativity are bit-identical to the csr kernels (and
therefore to the references).  Metrics the engine does not maintain
(sampled path length) read the replay's own CSR.

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

from dataclasses import dataclass

import numpy as np

from repro.kernels.csr import CSRGraph
from repro.obs import get_recorder
from repro.util.arrays import FloatArray, IntArray
from repro.util.rng import make_rng

__all__ = [
    "DeltaEngineState",
    "DeltaMetricEngine",
]


@dataclass(frozen=True)
class DeltaEngineState:
    """Picklable freeze of a :class:`DeltaMetricEngine`'s accumulators.

    With the replay checkpoint's graph (:meth:`DeltaMetricEngine.from_state`)
    this is everything needed to resume incremental evaluation mid-stream.
    """

    triangles: IntArray
    neighbor_degree_sums: IntArray
    sum_d2: int
    sum_d3: int
    sum_dxdy: int


class DeltaMetricEngine:
    """Event-delta accumulators over position-space neighbor sets.

    Feed it every :class:`~repro.graph.dynamic.SnapshotView` (or raw
    node/edge arrivals) in replay order; read metrics at any point.
    Positions are assigned in node arrival order, as in the replay's
    :class:`~repro.kernels.csr.CSRGraph`.  Each metric reproduces the batch
    kernel's float bit-for-bit:

    * :meth:`average_degree` — same ``2E / N`` expression;
    * :meth:`degree_distribution` — maintained histogram, equal as a dict;
    * :meth:`average_clustering` — same sorted sampling pool, same RNG
      draw, coefficients from exact triangle counts via the kernel's
      ``2·T / (k·(k-1))`` expression, same ``np.mean``;
    * :meth:`assortativity` — the reference's exact-integer Pearson
      formula evaluated on incrementally maintained sums.
    """

    def __init__(self) -> None:
        self._ids: list[int] = []
        self._pos: dict[int, int] = {}
        self._adj: list[set[int]] = []
        self._deg: list[int] = []
        self.num_edges = 0
        self._tri: list[int] = []
        self._nds: list[int] = []
        self._sum_d2 = 0
        self._sum_d3 = 0
        self._sum_dxdy = 0
        self._hist: dict[int, int] = {}

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._ids)

    # -- event ingestion ----------------------------------------------

    def apply_node(self, node: int) -> bool:
        """Apply a node-arrival event; returns ``True`` when new."""
        if node in self._pos:
            return False
        self._pos[node] = len(self._ids)
        self._ids.append(node)
        self._adj.append(set())
        self._deg.append(0)
        self._tri.append(0)
        self._nds.append(0)
        self._hist[0] = self._hist.get(0, 0) + 1
        return True

    def apply_edge(self, u: int, v: int) -> bool:
        """Apply an edge-arrival event; returns ``True`` when new.

        Self-loops raise :class:`ValueError`, unknown endpoints
        :class:`KeyError`, as in replay.
        """
        if u == v:
            raise ValueError(f"self-loop on node {u} not allowed")
        pu, pv = self._pos[u], self._pos[v]
        deg = self._deg
        du, dv = deg[pu], deg[pv]
        # Snapshot the pre-edge neighborhoods *before* mutating adjacency.
        adj_u, adj_v = self._adj[pu], self._adj[pv]
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
        adj_u.add(pv)
        adj_v.add(pu)
        deg[pu] = du + 1
        deg[pv] = dv + 1
        self.num_edges += 1
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
        n = self.num_nodes
        if n == 0:
            return 0.0
        return 2.0 * self.num_edges / n

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
        n = self.num_nodes
        if n == 0:
            return float("nan")
        rec = get_recorder()
        with rec.span("delta.clustering", nodes=n):
            if sample_size is not None and sample_size < n:
                pool = np.sort(np.fromiter(self._ids, dtype=np.int64, count=n))
                sampled = make_rng(rng).choice(pool, size=sample_size, replace=False)
                pos = self._pos
                positions = [pos[int(node)] for node in sampled.tolist()]
            else:
                positions = list(range(n))
            if rec.enabled:
                rec.count("delta.clustering_nodes", len(positions))
            deg = self._deg
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
        n = 2 * self.num_edges
        if n < 2:
            return float("nan")
        s = self._sum_d2
        ss = self._sum_d3
        sxy = self._sum_dxdy
        var = n * ss - s * s
        if var == 0:
            return float("nan")
        return float((n * sxy - s * s) / var)

    # -- checkpointing -------------------------------------------------

    def state(self) -> DeltaEngineState:
        """Freeze the accumulators into a picklable checkpoint payload."""
        return DeltaEngineState(
            triangles=np.fromiter(self._tri, dtype=np.int64, count=len(self._tri)),
            neighbor_degree_sums=np.fromiter(self._nds, dtype=np.int64, count=len(self._nds)),
            sum_d2=self._sum_d2,
            sum_d3=self._sum_d3,
            sum_dxdy=self._sum_dxdy,
        )

    @classmethod
    def from_state(cls, state: DeltaEngineState, graph: CSRGraph) -> "DeltaMetricEngine":
        """Rebuild the engine that froze ``state`` while holding ``graph``."""
        engine = cls()
        ids = graph.node_ids.tolist()
        engine._ids = ids
        engine._pos = {node: p for p, node in enumerate(ids)}
        bounds = graph.indptr.tolist()
        neighbors = graph.indices.tolist()
        engine._adj = [set(neighbors[bounds[p] : bounds[p + 1]]) for p in range(len(ids))]
        engine._deg = graph.degrees.tolist()
        engine.num_edges = graph.num_edges
        engine._tri = state.triangles.tolist()
        engine._nds = state.neighbor_degree_sums.tolist()
        engine._sum_d2 = state.sum_d2
        engine._sum_d3 = state.sum_d3
        engine._sum_dxdy = state.sum_dxdy
        for k in engine._deg:
            engine._hist[k] = engine._hist.get(k, 0) + 1
        return engine
