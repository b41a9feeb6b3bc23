"""Array-based Louvain local moves (the flat-array twin of the reference).

The reference keeps the working graph as dict-of-dicts and per-community
totals in defaultdicts; this kernel keeps the same state in flat arrays:

* the level graph as CSR (``indptr``/``indices``/``weights``) with
  self-loop weights in a separate per-position array;
* ``k`` (weighted degrees) and ``comm_tot`` as flat float lists indexed
  by community rank;
* the sequential local-move scan walks CSR row slices (plain list
  slicing) and skips nodes whose whole neighborhood already shares
  their community — a state-identical no-op for the reference — while
  degrees, rank compression, and aggregation stay numpy-vectorized.

Bit-for-bit parity with the reference holds because every quantity
involved is exact:

* all edge weights are multiples of ``2**-level`` (aggregation halves
  intra-community weights once per level), so every weight/degree sum is
  an exactly-representable dyadic rational — summation order cannot
  change it;
* the modularity-gain expression is evaluated with the same IEEE-754
  operation sequence (``w_in - comm_tot * k / m2``) as the reference;
* community positions are ranked by ascending label value, and the
  first-maximum ``argmax`` scan reproduces the reference's
  smallest-label-wins tie-break;
* node visit order is the same ``rng.permutation`` over the same node
  ordering (CSR positions preserve adjacency insertion order), so both
  implementations consume identical RNG draws.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.kernels.csr import CSRGraph
from repro.obs import get_recorder
from repro.util.arrays import FloatArray, IntArray

__all__ = ["MAX_LEVELS", "MAX_PASSES_PER_LEVEL", "initial_assignment", "louvain_csr"]

# Shared level/pass caps: the kernel and the reference must stop
# identically, so the constants live here in the kernel layer and the
# reference implementation (repro.community.louvain) imports them downward.
MAX_PASSES_PER_LEVEL = 32
MAX_LEVELS = 32


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
) -> tuple[dict[int, int], int]:
    """Run the Louvain level loop on ``csr``; returns ``(partition, levels)``.

    The caller (:func:`repro.community.louvain.louvain`) validates
    arguments and computes the final modularity.
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
    carried: list[IntArray] = [np.array([p], dtype=np.int64) for p in range(n)]

    rec = get_recorder()
    levels = 0
    total_passes = 0
    total_moves = 0
    with rec.span("kernels.louvain", nodes=n):
        while levels < MAX_LEVELS:
            improved, node_label, passes, moves = _one_level_arrays(
                indptr, indices, weights, self_w, node_label, delta, rng
            )
            levels += 1
            total_passes += passes
            total_moves += moves
            if not improved:
                break
            indptr, indices, weights, self_w, node_label, carried = _aggregate_arrays(
                indptr, indices, weights, self_w, node_label, carried
            )
        if rec.enabled:
            rec.count("kernels.louvain_levels", levels)
            rec.count("kernels.louvain_passes", total_passes)
            rec.count("kernels.louvain_moves", total_moves)

    partition: dict[int, int] = {}
    for position, members in enumerate(carried):
        label = int(node_label[position])
        for original in members.tolist():
            partition[ids_list[original]] = label
    return partition, levels


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
    uniq, comm = np.unique(node_label, return_inverse=True)
    comm_tot = np.bincount(comm, weights=k, minlength=uniq.size)
    order = rng.permutation(n).tolist()
    # The sequential-move scan is pure Python over flat lists: per-node
    # neighborhoods are short, so list slices beat both per-node numpy
    # calls (call overhead) and the reference's dict-of-dict iteration.
    indptr_l = indptr.tolist()
    indices_l = indices.tolist()
    weights_l = weights.tolist()
    k_l = k.tolist()
    comm_l = comm.tolist()
    comm_tot_l = comm_tot.tolist()
    any_move = False
    passes = 0
    moves = 0
    for _ in range(MAX_PASSES_PER_LEVEL):
        passes += 1
        pass_gain = 0.0
        for u in order:
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
    return any_move, uniq[np.asarray(comm_l, dtype=np.int64)], passes, moves


def _aggregate_arrays(
    indptr: IntArray,
    indices: IntArray,
    weights: FloatArray,
    self_w: FloatArray,
    node_label: IntArray,
    carried: list[IntArray],
) -> tuple[IntArray, IntArray, FloatArray, FloatArray, IntArray, list[IntArray]]:
    """Condense communities into super-nodes (phase 2).

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

    member_order = np.argsort(node_pos, kind="stable")
    group_sizes = np.bincount(node_pos, minlength=count)
    new_carried: list[IntArray] = []
    offset = 0
    for p in range(count):
        group = member_order[offset : offset + int(group_sizes[p])]
        offset += int(group_sizes[p])
        new_carried.append(np.concatenate([carried[int(g)] for g in group]))

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
    return new_indptr, new_indices, new_weights, new_self, new_label, new_carried
