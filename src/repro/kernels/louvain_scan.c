/* Louvain in C: one level's local-move scan and aggregation, and the
 * originals' output order.  The twins in repro.kernels.louvain are
 * _python_scan (louvain_scan), _one_level_arrays followed by
 * _aggregate_arrays (louvain_level) and the per-level membership/order
 * updates of _python_levels (louvain_order).
 *
 * Community ids are ranks: the rank of each community's label among the
 * level-0 labels, in ascending label order.  Ranks are carried from level
 * to level unchanged (a super-node keeps its community's rank), so they
 * are sparse after the first level, but their order is still the labels'
 * order, and that order is all the scan's tie-break reads.
 *
 * The scan performs every operation that decides the result as the Python
 * scan does, in the same order and with the same IEEE-754 expressions, so
 * both produce the same bits:
 *   - links[c] sums edge weights in CSR order starting from 0.0;
 *   - a node with no edges, or whose neighbours all share its community,
 *     is skipped with no state change;
 *   - comm_tot[cu] -= ku happens before base is formed;
 *   - gains are links[c] - comm_tot[c] * ku / m2, evaluated left to right;
 *   - the largest gain - base above best_gain wins, the smallest community
 *     rank on an exact tie (what an ascending scan with a strict > keeps);
 *   - a pass ends the level when its summed gain is below delta.
 * The level's other sums (weighted degrees, m2, community totals and the
 * aggregated weights) add the same terms in the same order as numpy's
 * bincount does in _one_level_arrays and _aggregate_arrays.  Every weight
 * is a multiple of 2**-level, so those sums are exact in any order anyway;
 * m2 is summed left to right here and pairwise by numpy, and the
 * exactness is what makes the two equal.
 * Build with -ffp-contract=off so no multiply-add is fused.
 *
 * No function keeps state between calls or allocates: scratch comes from
 * the caller, and its contents on entry do not matter.
 */
#include <stdint.h>
#include <stdlib.h>

/* links, seen and touched are scratch of length ncomm.  out receives
 * {passes, moves, any_move}. */
static void louvain_scan(int64_t n, int64_t ncomm, const int64_t *indptr, const int64_t *indices,
                         const double *weights, const double *k, const int64_t *order, double m2,
                         double delta, int64_t max_passes, int64_t *comm, double *comm_tot,
                         double *links, int64_t *seen, int64_t *touched, int64_t *out)
{
    int64_t passes = 0, moves = 0, any_move = 0;
    for (int64_t c = 0; c < ncomm; c++) {
        links[c] = 0.0;
        seen[c] = 0;
    }
    while (passes < max_passes) {
        passes++;
        double pass_gain = 0.0;
        for (int64_t i = 0; i < n; i++) {
            int64_t u = order[i], lo = indptr[u], hi = indptr[u + 1], nt = 0;
            if (lo == hi)
                continue;
            int64_t cu = comm[u];
            for (int64_t e = lo; e < hi; e++) {
                int64_t c = comm[indices[e]];
                if (!seen[c]) {
                    seen[c] = 1;
                    touched[nt++] = c;
                }
                links[c] += weights[e];
            }
            if (!(nt == 1 && touched[0] == cu)) {
                double ku = k[u];
                comm_tot[cu] -= ku;
                double base = links[cu] - comm_tot[cu] * ku / m2;
                int64_t best_c = cu;
                double best_gain = 0.0;
                for (int64_t j = 0; j < nt; j++) {
                    int64_t c = touched[j];
                    if (c == cu)
                        continue;
                    double gain = links[c] - comm_tot[c] * ku / m2;
                    if (gain - base > best_gain
                        || (gain - base == best_gain && best_c != cu && c < best_c)) {
                        best_gain = gain - base;
                        best_c = c;
                    }
                }
                comm_tot[best_c] += ku;
                if (best_c != cu) {
                    comm[u] = best_c;
                    any_move = 1;
                    moves++;
                    pass_gain += 2.0 * best_gain / m2;
                }
            }
            for (int64_t j = 0; j < nt; j++) {
                links[touched[j]] = 0.0;
                seen[touched[j]] = 0;
            }
        }
        if (pass_gain < delta)
            break;
    }
    out[0] = passes;
    out[1] = moves;
    out[2] = any_move;
}

static int ascending(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* One Louvain level on the level graph (indptr, indices, weights, self_w)
 * of n positions: weighted degrees, community totals, the scan, and, when
 * the scan moved a node, the aggregation into the next level's graph.
 *
 * comm holds each position's community rank (< ncomm) and is updated by
 * the scan.  The aggregation writes, for `count` super-nodes:
 *   - node_pos[p], the super-node of position p.  Super-nodes are numbered
 *     by the first edge-bearing position (one with an edge or a self-loop)
 *     of their community, then edge-free communities by first position;
 *   - next_indptr[count + 1], next_indices and next_weights, each row's
 *     columns ascending, each weight the sum of the level's cross entries
 *     between the two super-nodes in CSR order;
 *   - next_self, a super-node's self-loop weights summed in position
 *     order, plus the halves of its intra entries summed in CSR order;
 *   - next_comm, each super-node's community rank.
 * next_indices and next_weights need room for the level's entries, the
 * other outputs for n.
 *
 * fscratch holds n + 2 * ncomm doubles, iscratch 3 * ncomm + 2 * n + 1
 * int64s.  out receives {passes, moves, any_move, count, nnz}; without a
 * move (or with m2 == 0) nothing past out[2] is written and count and nnz
 * read 0.
 */
void louvain_level(int64_t n, int64_t ncomm, const int64_t *indptr, const int64_t *indices,
                   const double *weights, const double *self_w, const int64_t *order,
                   double delta, int64_t max_passes, int64_t *comm, int64_t *node_pos,
                   int64_t *next_indptr, int64_t *next_indices, double *next_weights,
                   double *next_self, int64_t *next_comm, double *fscratch, int64_t *iscratch,
                   int64_t *out)
{
    double *k = fscratch, *comm_tot = k + n, *links = comm_tot + ncomm;
    int64_t *seen = iscratch, *touched = seen + ncomm, *pos_of_rank = touched + ncomm;
    int64_t *members = pos_of_rank + ncomm, *ends = members + n;
    for (int j = 0; j < 5; j++)
        out[j] = 0;

    double m2 = 0.0;
    for (int64_t p = 0; p < n; p++) {
        double row = 0.0;
        for (int64_t e = indptr[p]; e < indptr[p + 1]; e++)
            row += weights[e];
        k[p] = row + 2.0 * self_w[p];
        m2 += k[p];
    }
    if (m2 == 0.0)
        return;
    for (int64_t c = 0; c < ncomm; c++)
        comm_tot[c] = 0.0;
    for (int64_t p = 0; p < n; p++)
        comm_tot[comm[p]] += k[p];
    louvain_scan(n, ncomm, indptr, indices, weights, k, order, m2, delta, max_passes, comm,
                 comm_tot, links, seen, touched, out);
    if (!out[2])
        return;

    int64_t count = 0;
    for (int64_t c = 0; c < ncomm; c++)
        pos_of_rank[c] = -1;
    for (int64_t p = 0; p < n; p++)
        if ((indptr[p + 1] > indptr[p] || self_w[p] > 0.0) && pos_of_rank[comm[p]] < 0)
            pos_of_rank[comm[p]] = count++;
    for (int64_t p = 0; p < n; p++)
        if (pos_of_rank[comm[p]] < 0)
            pos_of_rank[comm[p]] = count++;
    /* Members of each super-node in ascending position (a counting sort);
     * super-node s's members end at ends[s] and start at ends[s - 1]. */
    for (int64_t s = 0; s <= count; s++)
        ends[s] = 0;
    for (int64_t p = 0; p < n; p++) {
        int64_t s = pos_of_rank[comm[p]];
        node_pos[p] = s;
        next_comm[s] = comm[p];
        ends[s + 1]++;
    }
    for (int64_t s = 0; s < count; s++)
        ends[s + 1] += ends[s];
    for (int64_t p = 0; p < n; p++)
        members[ends[node_pos[p]]++] = p;

    /* Each row is coalesced in a dense accumulator over super-nodes: links
     * and seen are free again once the scan returns, and count <= ncomm. */
    double *acc = links;
    int64_t *mark = seen, nnz = 0;
    for (int64_t s = 0; s < count; s++)
        mark[s] = 0;
    next_indptr[0] = 0;
    for (int64_t s = 0; s < count; s++) {
        int64_t lo = s ? ends[s - 1] : 0, hi = ends[s], nt = 0;
        double loops = 0.0, halves = 0.0;
        for (int64_t i = lo; i < hi; i++)
            loops += self_w[members[i]];
        for (int64_t i = lo; i < hi; i++) {
            int64_t p = members[i];
            for (int64_t e = indptr[p]; e < indptr[p + 1]; e++) {
                int64_t d = node_pos[indices[e]];
                if (d == s) {
                    halves += weights[e] / 2.0;
                    continue;
                }
                if (!mark[d]) {
                    mark[d] = 1;
                    acc[d] = 0.0;
                    touched[nt++] = d;
                }
                acc[d] += weights[e];
            }
        }
        next_self[s] = loops + halves;
        qsort(touched, (size_t)nt, sizeof(int64_t), ascending);
        for (int64_t j = 0; j < nt; j++) {
            int64_t d = touched[j];
            next_indices[nnz] = d;
            next_weights[nnz] = acc[d];
            nnz++;
            mark[d] = 0;
        }
        next_indptr[s + 1] = nnz;
    }
    out[3] = count;
    out[4] = nnz;
}

/* The originals' output order from the chain of aggregations.
 *
 * sizes[l] is the number of positions at level l (sizes[0]: the
 * originals) for the `levels` aggregated levels, and chain concatenates
 * their node_pos arrays; top is the number of positions after the last.
 * order lists the originals grouped by top position ascending, then by
 * level levels - 1 position ascending, ..., then by original position;
 * membership[p] is the top position of original p.  scratch holds
 * 2 * sizes[0] + 1 int64s (nothing when levels == 0).
 */
void louvain_order(int64_t levels, const int64_t *sizes, int64_t top, const int64_t *chain,
                   int64_t *order, int64_t *membership, int64_t *scratch)
{
    int64_t n = levels ? sizes[0] : top, offset = 0;
    int64_t *rank = scratch, *starts = rank + n;
    for (int64_t p = 0; p < n; p++)
        membership[p] = p;
    for (int64_t l = 0; l < levels; l++) {
        for (int64_t p = 0; p < n; p++)
            membership[p] = chain[offset + membership[p]];
        offset += sizes[l];
    }
    /* Top down: each level's positions, bucketed by their super-node's
     * place in the order one level up, ascending within a bucket. */
    for (int64_t s = 0; s < top; s++)
        order[s] = s;
    for (int64_t l = levels - 1; l >= 0; l--) {
        int64_t size = sizes[l], up = l + 1 < levels ? sizes[l + 1] : top;
        const int64_t *node_pos = chain + (offset -= size);
        for (int64_t i = 0; i < up; i++)
            rank[order[i]] = i;
        for (int64_t i = 0; i <= up; i++)
            starts[i] = 0;
        for (int64_t q = 0; q < size; q++)
            starts[rank[node_pos[q]] + 1]++;
        for (int64_t i = 0; i < up; i++)
            starts[i + 1] += starts[i];
        for (int64_t q = 0; q < size; q++)
            order[starts[rank[node_pos[q]]]++] = q;
    }
}
