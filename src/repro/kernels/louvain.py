"""Array-based Louvain (the flat-array twin of the reference).

The reference keeps the working graph as dict-of-dicts and per-community
totals in defaultdicts; this kernel keeps the same state in flat arrays:

* the level graph as CSR (``indptr``/``indices``/``weights``) with
  self-loop weights in a separate per-position array;
* ``k`` (weighted degrees) and ``comm_tot`` as flat float arrays indexed
  by community rank;
* the sequential local-move scan walks CSR row slices and skips nodes
  whose whole neighborhood already shares their community — a
  state-identical no-op for the reference;
* which original nodes each super-node stands for is one node-position
  array per aggregation, from which the originals' output ``order`` and
  final super-node are computed once, after the last level.

Each level is one call into ``louvain_scan.c`` when a C compiler is on
``PATH`` (:mod:`repro.kernels.native` compiles it on the first
:func:`louvain_csr` call and caches the library): weighted degrees,
community totals, the scan, and the aggregation into the next level's
CSR.  Python keeps the level loop and the ``rng.permutation`` draw.
Community ids are the ranks of the initial labels, computed once and
carried from level to level.  Without a compiler, or when the build or
the load fails, :func:`_python_levels` runs instead: :func:`_python_scan`
and the numpy aggregation :func:`_aggregate_arrays`, the level call's
parity oracle.  The two give the same bits.  The partition comes out as
arrays, each position's label and the partition order, and
:func:`count_communities` counts its communities' edges and modularity
in one pass.

Bit-for-bit parity with the reference holds because every quantity
involved is exact:

* all edge weights are multiples of ``2**-level`` (aggregation halves
  intra-community weights once per level), so every weight/degree sum is
  an exactly-representable dyadic rational — summation order cannot
  change it;
* the modularity-gain expression is evaluated with the same IEEE-754
  operation sequence (``w_in - comm_tot * k / m2``) as the reference;
* community ids are ranked by ascending label value, and an exact gain
  tie goes to the smallest rank, the reference's smallest-label-wins
  tie-break; ranks carried past the first level skip the emptied
  communities' values but keep that order;
* node visit order is the same ``rng.permutation`` over the same node
  ordering (CSR positions preserve adjacency insertion order), so both
  implementations consume identical RNG draws.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from repro.kernels import native
from repro.kernels.csr import CSRGraph, label_edge_counts
from repro.obs import get_recorder
from repro.util.arrays import FloatArray, IntArray

__all__ = [
    "MAX_LEVELS",
    "MAX_PASSES_PER_LEVEL",
    "count_communities",
    "initial_labels",
    "louvain_csr",
]

# Shared level/pass caps: the kernel and the reference must stop
# identically, so the dict-of-dicts reference in tests/oracles.py imports
# them from here.
MAX_PASSES_PER_LEVEL = 32
MAX_LEVELS = 32

#: What a level loop returns: ``(labels, order, levels, passes, moves)``,
#: each original position's final label and the partition's order.
Levels = tuple[IntArray, IntArray, int, int, int]

_SOURCE = Path(__file__).with_name("louvain_scan.c")
_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_LEVEL_ARGTYPES = [_I64, _I64, *[_PTR] * 5, _F64, _I64, *[_PTR] * 10]
_ORDER_ARGTYPES = [_I64, _PTR, _I64, *[_PTR] * 4]


def initial_labels(node_ids: IntArray, seed: tuple[IntArray, IntArray] | None) -> IntArray:
    """Initial community label per position of ``node_ids``.

    Without a ``seed`` every node is its own community, labelled by its
    id.  A seed (incremental mode) is a partition as ``(ids, labels)``
    arrays, node ``ids[i]`` in community ``labels[i]``, the ids distinct
    and in any order.  Seed labels are compacted in order of first
    appearance along ``node_ids``; unseeded positions take the labels
    after them, in position order.  Seed entries for nodes outside
    ``node_ids`` are ignored.
    """
    if seed is None:
        return np.array(node_ids, dtype=np.int64)
    keys, values = seed
    size = keys.size
    # at[p]: the seed entry for position p's node, if seeded[p].
    at = np.zeros(node_ids.size, dtype=np.intp)
    seeded = np.zeros(node_ids.size, dtype=bool)
    if size:
        by_key = np.argsort(keys)
        at = by_key[np.minimum(np.searchsorted(keys, node_ids, sorter=by_key), size - 1)]
        seeded = keys[at] == node_ids
    _, first, inverse = np.unique(values[at[seeded]], return_index=True, return_inverse=True)
    compact = np.empty(first.size, dtype=np.int64)
    compact[np.argsort(first)] = np.arange(first.size, dtype=np.int64)
    labels = np.empty(node_ids.size, dtype=np.int64)
    labels[seeded] = compact[inverse]
    unseeded = ~seeded
    labels[unseeded] = first.size + np.arange(np.count_nonzero(unseeded), dtype=np.int64)
    return labels


def louvain_csr(
    csr: CSRGraph,
    delta: float,
    seed: tuple[IntArray, IntArray] | None,
    rng: np.random.Generator,
) -> tuple[IntArray, IntArray, int]:
    """Run the Louvain level loop on ``csr``, seeded as :func:`initial_labels` reads ``seed``.

    Returns ``(labels, order, levels)``: each position's community label,
    the positions in partition order (see :func:`_c_order`) and the
    number of levels run.  The caller
    (:func:`repro.community.louvain.louvain`) validates arguments.
    """
    start = initial_labels(csr.node_ids, seed)
    library = _library()
    rec = get_recorder()
    scan = "python" if library is None else "c"
    with rec.span("kernels.louvain", nodes=csr.num_nodes, scan=scan):
        if library is None:
            labels, order, levels, passes, moves = _python_levels(csr, start, delta, rng)
        else:
            labels, order, levels, passes, moves = _c_levels(library, csr, start, delta, rng)
        if rec.enabled:
            rec.count("kernels.louvain_levels", levels)
            rec.count("kernels.louvain_passes", passes)
            rec.count("kernels.louvain_moves", moves)
    return labels, order, levels


def count_communities(
    csr: CSRGraph, labels: IntArray
) -> tuple[NDArray[np.intp], NDArray[np.intp], NDArray[np.intp], float]:
    """The communities of the partition giving each position ``labels[p]``, in one pass.

    Returns ``(community, internal_edges, degree_sums, modularity)``:
    each position's community number, the communities numbered by
    ascending label; each community's edges inside it and the sum of its
    members' degrees; and the partition's modularity.  The modularity is
    bit-identical to the dict-of-sets reference in ``tests/oracles.py``:
    the per-community counts are exact integers, and the float terms are
    summed with the same expression in the same order — communities by
    their first position, as the reference's dict acquires them.
    """
    _, first, community = np.unique(labels, return_index=True, return_inverse=True)
    internal2, degree_sums = label_edge_counts(csr, community, first.size)
    internal_edges = internal2 // 2
    m = csr.num_edges
    q = 0.0
    if m:
        internal = internal_edges.tolist()
        degree_sum = degree_sums.tolist()
        for c in np.argsort(first).tolist():
            q += internal[c] / m - (degree_sum[c] / (2.0 * m)) ** 2
    return community, internal_edges, degree_sums, q


def _python_levels(
    csr: CSRGraph, node_label: IntArray, delta: float, rng: np.random.Generator
) -> Levels:
    """The level loop with :func:`_python_scan` and :func:`_aggregate_arrays`."""
    n = csr.num_nodes
    indptr, indices = csr.indptr, csr.indices
    weights = np.ones(indices.size, dtype=np.float64)
    self_w = np.zeros(n, dtype=np.float64)
    # membership[p]: the super-node original position p now belongs to;
    # order: the originals grouped by super-node, the partition's order.
    membership = np.arange(n, dtype=np.int64)
    order = np.arange(n, dtype=np.int64)
    levels = passes = moves = 0
    while levels < MAX_LEVELS:
        improved, node_label, level_passes, level_moves = _one_level_arrays(
            indptr, indices, weights, self_w, node_label, delta, rng
        )
        levels += 1
        passes += level_passes
        moves += level_moves
        if not improved:
            break
        indptr, indices, weights, self_w, node_label, node_pos = _aggregate_arrays(
            indptr, indices, weights, self_w, node_label
        )
        membership = node_pos[membership]
        order = order[np.argsort(membership[order], kind="stable")]
    return node_label[membership], order, levels, passes, moves


def _one_level_arrays(
    indptr: IntArray,
    indices: IntArray,
    weights: FloatArray,
    self_w: FloatArray,
    node_label: IntArray,
    delta: float,
    rng: np.random.Generator,
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
    passes, moves, any_move = _python_scan(
        indptr, indices, weights, k, order, m2, delta, comm, comm_tot
    )
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


@functools.cache
def _library() -> _Library | None:
    """The compiled level and order functions, or ``None`` without a library."""
    level = native.load(_SOURCE, "louvain_level", _LEVEL_ARGTYPES, "kernels.louvain_build")
    order = native.load(_SOURCE, "louvain_order", _ORDER_ARGTYPES, "kernels.louvain_build")
    return None if level is None or order is None else _Library(level, order)


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


# -- one level per C call ---------------------------------------------------


class _Library(NamedTuple):
    """The compiled level and order functions."""

    level: ctypes._NamedFuncPointer
    order: ctypes._NamedFuncPointer


class _Level(NamedTuple):
    """One level's graph and community ranks, with the arrays' addresses.

    ``addresses`` holds the data pointers of ``indptr``, ``indices``,
    ``weights``, ``self_w`` and ``comm``, in that order.
    """

    indptr: IntArray
    indices: IntArray
    weights: FloatArray
    self_w: FloatArray
    comm: IntArray
    addresses: tuple[int, int, int, int, int]


def _c_levels(
    library: _Library,
    csr: CSRGraph,
    start: IntArray,
    delta: float,
    rng: np.random.Generator,
) -> Levels:
    """The level loop, each level one call to the compiled ``louvain_level``."""
    n = csr.num_nodes
    if csr.indices.size == 0:
        # m2 == 0: the level ends before drawing its visit order.
        return start, np.arange(n, dtype=np.int64), 1, 0, 0
    # Ranks of the initial labels, the community ids of every level.
    uniq, ranks = np.unique(start, return_inverse=True)
    ncomm = uniq.size
    indptr = np.ascontiguousarray(csr.indptr, dtype=np.int64)
    indices = np.ascontiguousarray(csr.indices, dtype=np.int64)
    weights = np.ones(indices.size, dtype=np.float64)
    self_w = np.zeros(n, dtype=np.float64)
    level = _first_level(indptr, indices, weights, self_w, ranks.astype(np.int64, copy=False))
    # The first level is the largest, so its scratch serves every level.
    fscratch = np.empty(n + 2 * ncomm, dtype=np.float64)
    iscratch = np.empty(3 * ncomm + 2 * n + 1, dtype=np.int64)
    scratch = (fscratch.ctypes.data, iscratch.ctypes.data)

    node_positions: list[IntArray] = []
    levels = passes = moves = 0
    while levels < MAX_LEVELS:
        visit = np.ascontiguousarray(rng.permutation(level.comm.size), dtype=np.int64)
        level_passes, level_moves, improved, node_pos, aggregated = _c_level(
            library.level, level, ncomm, visit, delta, scratch
        )
        levels += 1
        passes += level_passes
        moves += level_moves
        if not improved:
            break
        node_positions.append(node_pos)
        level = aggregated

    order, membership = _c_order(library.order, node_positions, n, level.comm.size)
    return uniq[level.comm][membership], order, levels, passes, moves


def _first_level(
    indptr: IntArray, indices: IntArray, weights: FloatArray, self_w: FloatArray, comm: IntArray
) -> _Level:
    """A :class:`_Level` over caller-owned arrays, checked for C."""
    n = comm.size
    _checked(indptr, np.int64, "indptr", n + 1)
    _checked(indices, np.int64, "indices", int(indptr[-1]))
    _checked(weights, np.float64, "weights", indices.size)
    _checked(self_w, np.float64, "self_w", n)
    _checked(comm, np.int64, "comm", n)
    addresses = (
        indptr.ctypes.data,
        indices.ctypes.data,
        weights.ctypes.data,
        self_w.ctypes.data,
        comm.ctypes.data,
    )
    return _Level(indptr, indices, weights, self_w, comm, addresses)


def _c_level(
    function: ctypes._NamedFuncPointer,
    level: _Level,
    ncomm: int,
    order: IntArray,
    delta: float,
    scratch: tuple[int, int],
) -> tuple[int, int, bool, IntArray, _Level]:
    """One ``louvain_level`` call: the scan on ``level`` and, after a move, its aggregation.

    ``level.comm`` is updated in place.  Returns ``(passes, moves,
    any_move, node_pos, next level)``; the last two are empty without a
    move.  ``scratch`` holds the addresses of at least ``n + 2 * ncomm``
    doubles and ``3 * ncomm + 2 * n + 1`` int64s.
    """
    n, nnz = level.comm.size, level.indices.size
    _checked(order, np.int64, "order", n)
    # Outputs share one block per dtype: ints are [node_pos | next indptr |
    # next comm | out | next indices], floats [next self_w | next weights].
    ints = np.empty(3 * n + 6 + nnz, dtype=np.int64)
    floats = np.empty(n + nnz, dtype=np.float64)
    at_indptr, at_comm, at_out, at_indices = n, 2 * n + 1, 3 * n + 1, 3 * n + 6
    i, f, word = ints.ctypes.data, floats.ctypes.data, ints.itemsize
    following = (
        i + word * at_indptr,
        i + word * at_indices,
        f + word * n,
        f,
        i + word * at_comm,
    )
    indptr, indices, weights, self_w, comm = level.addresses
    inputs = (indptr, indices, weights, self_w, order.ctypes.data)
    limits = (delta, MAX_PASSES_PER_LEVEL)
    function(n, ncomm, *inputs, *limits, comm, i, *following, *scratch, i + word * at_out)
    passes, moves, any_move, count, entries = ints[at_out:at_indices].tolist()
    aggregated = _Level(
        indptr=ints[at_indptr : at_indptr + count + 1],
        indices=ints[at_indices : at_indices + entries],
        weights=floats[n : n + entries],
        self_w=floats[:count],
        comm=ints[at_comm : at_comm + count],
        addresses=following,
    )
    return passes, moves, bool(any_move), ints[: n if any_move else 0], aggregated


def _c_order(
    function: ctypes._NamedFuncPointer, node_positions: list[IntArray], n: int, top: int
) -> tuple[IntArray, IntArray]:
    """``(order, membership)`` of the ``n`` originals from the aggregations' node positions.

    ``order`` lists the originals grouped by final super-node, then by the
    super-node one level down, ..., then by original position — the order
    the per-community member lists of the reference give.
    ``membership[p]`` is original ``p``'s final super-node (of ``top``).
    """
    sizes = np.array([pos.size for pos in node_positions], dtype=np.int64)
    chain = np.concatenate(node_positions) if node_positions else sizes
    order = np.empty(n, dtype=np.int64)
    membership = np.empty(n, dtype=np.int64)
    scratch = np.empty(2 * n + 1, dtype=np.int64)
    arrays = (sizes, chain, order, membership, scratch)
    sizes_at, chain_at, order_at, membership_at, scratch_at = (a.ctypes.data for a in arrays)
    function(len(node_positions), sizes_at, top, chain_at, order_at, membership_at, scratch_at)
    return order, membership


def _checked(array: IntArray | FloatArray, dtype: type, name: str, size: int) -> None:
    """Raise unless C can write ``array`` in place: ``dtype``, C-contiguous, ``size`` long.

    A copy would lose the writes, and a wrong dtype, stride or length
    would be read or written out of bounds, so nothing is converted.
    """
    if array.dtype != dtype:
        raise TypeError(f"{name} must be {np.dtype(dtype).name}, got {array.dtype}")
    if not array.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")
    if array.size != size:
        raise ValueError(f"{name} must have {size} elements, got {array.size}")
