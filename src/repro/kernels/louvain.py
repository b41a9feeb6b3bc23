"""Array-based Louvain local moves (the flat-array twin of the reference).

The reference keeps the working graph as dict-of-dicts and per-community
totals in defaultdicts; this kernel keeps the same state in flat arrays:

* the level graph as CSR (``indptr``/``indices``/``weights``) with
  self-loop weights in a separate per-position array;
* ``k`` (weighted degrees) and ``comm_tot`` as flat float arrays indexed
  by community rank;
* the sequential local-move scan walks CSR row slices and skips nodes
  whose whole neighborhood already shares their community — a
  state-identical no-op for the reference — while degrees, rank
  compression, and aggregation stay numpy-vectorized;
* which original nodes each super-node stands for is one ``membership``
  array (original position → current super-node) plus the originals'
  output ``order``, both updated with array ops per level.

The scan runs in C (``louvain_scan.c``) when a C compiler is on
``PATH``: :mod:`repro.kernels.native` compiles it on the first
:func:`louvain_csr` call and caches the library.  Without a compiler, or
when the build or the load fails, :func:`_python_scan` runs instead; the
two give the same bits, and the Python scan is the C scan's parity oracle.

Bit-for-bit parity with the reference holds because every quantity
involved is exact:

* all edge weights are multiples of ``2**-level`` (aggregation halves
  intra-community weights once per level), so every weight/degree sum is
  an exactly-representable dyadic rational — summation order cannot
  change it;
* the modularity-gain expression is evaluated with the same IEEE-754
  operation sequence (``w_in - comm_tot * k / m2``) as the reference;
* community positions are ranked by ascending label value, and an exact
  gain tie goes to the smallest rank, the reference's smallest-label-wins
  tie-break;
* node visit order is the same ``rng.permutation`` over the same node
  ordering (CSR positions preserve adjacency insertion order), so both
  implementations consume identical RNG draws.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable, Iterable, Mapping
from pathlib import Path

import numpy as np

from repro.kernels import native
from repro.kernels.csr import CSRGraph, label_edge_counts
from repro.obs import get_recorder
from repro.util.arrays import FloatArray, IntArray

__all__ = [
    "MAX_LEVELS",
    "MAX_PASSES_PER_LEVEL",
    "initial_assignment",
    "louvain_csr",
    "modularity_csr",
]

# Shared level/pass caps: the kernel and the reference must stop
# identically, so the constants live here in the kernel layer and the
# reference implementation (repro.community.louvain) imports them downward.
MAX_PASSES_PER_LEVEL = 32
MAX_LEVELS = 32

#: One level's local-move scan: ``scan(indptr, indices, weights, k, order,
#: m2, delta, comm, comm_tot) -> (passes, moves, any_move)``, updating
#: ``comm`` and ``comm_tot`` in place.
Scan = Callable[
    [IntArray, IntArray, FloatArray, FloatArray, IntArray, float, float, IntArray, FloatArray],
    tuple[int, int, bool],
]

_SOURCE = Path(__file__).with_name("louvain_scan.c")
_ARGTYPES = (
    [ctypes.c_int64, ctypes.c_int64]
    + [ctypes.c_void_p] * 5
    + [ctypes.c_double, ctypes.c_double, ctypes.c_int64]
    + [ctypes.c_void_p] * 6
)


def initial_assignment(
    nodes: Iterable[int],
    seed_partition: Mapping[int, int] | None,
) -> dict[int, int]:
    """Initial node → label map over ``nodes`` (any iterable of node ids).

    Shared with the reference: the csr kernel passes the CSR position
    order (equal to adjacency insertion order) so the two start identically.

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


def louvain_csr(
    csr: CSRGraph,
    delta: float,
    seed_partition: Mapping[int, int] | None,
    rng: np.random.Generator,
) -> tuple[dict[int, int], float, int]:
    """Run the Louvain level loop on ``csr``.

    Returns ``(partition, modularity, levels)``; the caller
    (:func:`repro.community.louvain.louvain`) validates arguments.
    """
    node_ids = csr.node_ids
    n = csr.num_nodes
    ids_list = node_ids.tolist()
    initial = initial_assignment(ids_list, seed_partition)
    node_label = np.fromiter(
        (initial[node] for node in ids_list), dtype=np.int64, count=n
    )
    indptr = csr.indptr
    indices = csr.indices
    weights = np.ones(indices.size, dtype=np.float64)
    self_w = np.zeros(n, dtype=np.float64)
    # membership[p]: the super-node original position p now belongs to;
    # order: the originals grouped by super-node, the partition's order.
    membership = np.arange(n, dtype=np.int64)
    order = np.arange(n, dtype=np.int64)

    scan = _scan()
    rec = get_recorder()
    levels = 0
    total_passes = 0
    total_moves = 0
    with rec.span("kernels.louvain", nodes=n, scan="python" if scan is _python_scan else "c"):
        while levels < MAX_LEVELS:
            improved, node_label, passes, moves = _one_level_arrays(
                indptr, indices, weights, self_w, node_label, delta, rng, scan
            )
            levels += 1
            total_passes += passes
            total_moves += moves
            if not improved:
                break
            indptr, indices, weights, self_w, node_label, node_pos = _aggregate_arrays(
                indptr, indices, weights, self_w, node_label
            )
            membership = node_pos[membership]
            order = order[np.argsort(membership[order], kind="stable")]
        if rec.enabled:
            rec.count("kernels.louvain_levels", levels)
            rec.count("kernels.louvain_passes", total_passes)
            rec.count("kernels.louvain_moves", total_moves)

    labels = node_label[membership]
    partition = dict(zip(node_ids[order].tolist(), labels[order].tolist(), strict=True))
    return partition, modularity_csr(csr, labels), levels


def modularity_csr(csr: CSRGraph, labels: IntArray) -> float:
    """Modularity of the partition giving each position ``labels[p]``.

    Bit-identical to :func:`repro.community.modularity.modularity`: the
    per-community counts are exact integers, and the float terms are
    summed with the same expression in the same order — communities by
    their first position, as the reference's dict acquires them.
    """
    m = csr.num_edges
    if m == 0:
        return 0.0
    _, first, community = np.unique(labels, return_index=True, return_inverse=True)
    internal2, degree_sums = label_edge_counts(csr, community, first.size)
    internal = (internal2 // 2).tolist()
    degree_sum = degree_sums.tolist()
    q = 0.0
    for c in np.argsort(first).tolist():
        q += internal[c] / m - (degree_sum[c] / (2.0 * m)) ** 2
    return q


def _one_level_arrays(
    indptr: IntArray,
    indices: IntArray,
    weights: FloatArray,
    self_w: FloatArray,
    node_label: IntArray,
    delta: float,
    rng: np.random.Generator,
    scan: Scan,
) -> tuple[bool, IntArray, int, int]:
    """Local-move phase; returns (made progress, new labels, passes, moves).

    Scans all ``n`` positions in one ``rng.permutation`` order, consuming
    exactly the RNG draws the reference implementation consumes.
    """
    n = node_label.size
    degrees = np.diff(indptr)
    rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
    # Weighted degree: off-diagonal row sum plus the self-loop counted twice.
    k = np.bincount(rows, weights=weights, minlength=n) + 2.0 * self_w
    m2 = float(k.sum())
    if m2 == 0:
        return False, node_label.copy(), 0, 0
    uniq, inverse = np.unique(node_label, return_inverse=True)
    comm = inverse.astype(np.int64)
    comm_tot = np.bincount(comm, weights=k, minlength=uniq.size).astype(np.float64)
    order = rng.permutation(n).astype(np.int64)
    passes, moves, any_move = scan(indptr, indices, weights, k, order, m2, delta, comm, comm_tot)
    return any_move, uniq[comm], passes, moves


def _python_scan(
    indptr: IntArray,
    indices: IntArray,
    weights: FloatArray,
    k: FloatArray,
    order: IntArray,
    m2: float,
    delta: float,
    comm: IntArray,
    comm_tot: FloatArray,
) -> tuple[int, int, bool]:
    """The local-move scan in Python: the fallback and the C scan's oracle.

    ``comm`` holds each position's community rank and ``comm_tot`` each
    rank's total degree; both are updated in place.
    """
    # Per-node neighborhoods are short, so flat-list slices beat both
    # per-node numpy calls (call overhead) and dict-of-dict iteration.
    indptr_l = indptr.tolist()
    indices_l = indices.tolist()
    weights_l = weights.tolist()
    k_l = k.tolist()
    comm_l = comm.tolist()
    comm_tot_l = comm_tot.tolist()
    order_l = order.tolist()
    any_move = False
    passes = 0
    moves = 0
    for _ in range(MAX_PASSES_PER_LEVEL):
        passes += 1
        pass_gain = 0.0
        for u in order_l:
            lo = indptr_l[u]
            hi = indptr_l[u + 1]
            if lo == hi:
                # No incident edges: the reference finds no candidates and
                # restores comm_tot to the exact same dyadic value, so
                # skipping changes no state and consumes no RNG.
                continue
            cu = comm_l[u]
            links: dict[int, float] = {}
            for v, w in zip(indices_l[lo:hi], weights_l[lo:hi], strict=True):
                c = comm_l[v]
                links[c] = links.get(c, 0.0) + w
            if len(links) == 1 and cu in links:
                # Every neighbor already shares u's community: no candidate
                # exists, so the reference would leave all state unchanged.
                continue
            ku = k_l[u]
            comm_tot_l[cu] -= ku
            base = links.get(cu, 0.0) - comm_tot_l[cu] * ku / m2
            best_c, best_gain = cu, 0.0
            # Ascending rank order == ascending label order, so ties
            # resolve to the smallest community label like the reference.
            for c in sorted(links):
                if c == cu:
                    continue
                gain = links[c] - comm_tot_l[c] * ku / m2
                if gain - base > best_gain:
                    best_gain = gain - base
                    best_c = c
            comm_tot_l[best_c] += ku
            if best_c != cu:
                comm_l[u] = best_c
                any_move = True
                moves += 1
                pass_gain += 2.0 * best_gain / m2
        if pass_gain < delta:
            break
    comm[:] = comm_l
    comm_tot[:] = comm_tot_l
    return passes, moves, any_move


def _c_scan(function: ctypes._NamedFuncPointer) -> Scan:
    """Wrap the compiled ``louvain_scan`` in the :data:`Scan` signature."""

    def scan(
        indptr: IntArray,
        indices: IntArray,
        weights: FloatArray,
        k: FloatArray,
        order: IntArray,
        m2: float,
        delta: float,
        comm: IntArray,
        comm_tot: FloatArray,
    ) -> tuple[int, int, bool]:
        # comm and comm_tot are written in place, so they must not be copies.
        assert comm.dtype == np.int64 and comm.flags.c_contiguous
        assert comm_tot.dtype == np.float64 and comm_tot.flags.c_contiguous
        ncomm = comm_tot.size
        inputs = (
            np.ascontiguousarray(indptr, dtype=np.int64),
            np.ascontiguousarray(indices, dtype=np.int64),
            np.ascontiguousarray(weights, dtype=np.float64),
            np.ascontiguousarray(k, dtype=np.float64),
            np.ascontiguousarray(order, dtype=np.int64),
        )
        links = np.empty(ncomm, dtype=np.float64)
        seen = np.empty(ncomm, dtype=np.int64)
        touched = np.empty(ncomm, dtype=np.int64)
        out = np.empty(3, dtype=np.int64)
        function(
            order.size,
            ncomm,
            *(a.ctypes.data for a in inputs),
            m2,
            delta,
            MAX_PASSES_PER_LEVEL,
            *(a.ctypes.data for a in (comm, comm_tot, links, seen, touched, out)),
        )
        passes, moves, any_move = out.tolist()
        return passes, moves, bool(any_move)

    return scan


@functools.cache
def _scan() -> Scan:
    """The scan every level runs: the C scan if it builds and loads."""
    function = _scan_library()
    return _python_scan if function is None else _c_scan(function)


def _scan_library() -> ctypes._NamedFuncPointer | None:
    """Load the compiled scan through :mod:`repro.kernels.native`, or ``None``."""
    return native.load(_SOURCE, "louvain_scan", _ARGTYPES, "kernels.louvain_build")


def _aggregate_arrays(
    indptr: IntArray,
    indices: IntArray,
    weights: FloatArray,
    self_w: FloatArray,
    node_label: IntArray,
) -> tuple[IntArray, IntArray, FloatArray, FloatArray, IntArray, IntArray]:
    """Condense communities into super-nodes (phase 2).

    Returns the super-node graph, its labels, and ``node_pos``: the
    super-node of each current position.

    Super-node positions follow the order in which the reference's
    aggregation dict acquires its keys: first-appearance order of the
    community's first *edge-bearing* member (the reference only creates an
    adjacency entry when it visits a node with neighbors or a self-loop),
    with communities of only edge-free members appended afterwards in
    first-member order (the reference's ``setdefault`` sweep).
    """
    n = node_label.size
    uniq_vals, first_index, inverse = np.unique(
        node_label, return_index=True, return_inverse=True
    )
    count = uniq_vals.size
    edge_bearing = np.flatnonzero((np.diff(indptr) > 0) | (self_w > 0.0))
    first_edge = np.full(count, n, dtype=np.int64)
    np.minimum.at(first_edge, inverse[edge_bearing], edge_bearing)
    order_key = np.where(first_edge < n, first_edge, n + first_index)
    appearance = np.argsort(order_key, kind="stable")
    pos_of_rank = np.empty(count, dtype=np.int64)
    pos_of_rank[appearance] = np.arange(count, dtype=np.int64)
    node_pos = pos_of_rank[inverse]
    new_label = uniq_vals[appearance]

    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    src = node_pos[rows]
    dst = node_pos[indices]
    intra = src == dst
    # Existing self-loops carry over; each intra-community directed edge
    # contributes half its weight (both orientations together: once).
    new_self = np.bincount(node_pos, weights=self_w, minlength=count)
    if intra.any():
        new_self = new_self + np.bincount(
            src[intra], weights=weights[intra] / 2.0, minlength=count
        )
    cross = ~intra
    codes = src[cross] * count + dst[cross]
    if codes.size:
        uniq_codes, code_inverse = np.unique(codes, return_inverse=True)
        new_weights = np.bincount(code_inverse, weights=weights[cross])
        new_src = uniq_codes // count
        new_indices = uniq_codes % count
        new_indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.bincount(new_src, minlength=count), out=new_indptr[1:])
    else:
        new_weights = np.empty(0, dtype=np.float64)
        new_indices = np.empty(0, dtype=np.int64)
        new_indptr = np.zeros(count + 1, dtype=np.int64)
    return new_indptr, new_indices, new_weights, new_self, new_label, node_pos
