/* Louvain local-move scan: the C twin of repro.kernels.louvain._python_scan.
 *
 * One level's sequential greedy scan over the CSR level graph, visiting
 * positions in the caller's rng.permutation order.  Every operation that
 * decides the result is the Python scan's, in the same order and with the
 * same IEEE-754 expressions, so both produce the same bits:
 *   - links[c] sums edge weights in CSR order starting from 0.0;
 *   - a node with no edges, or whose neighbours all share its community,
 *     is skipped with no state change;
 *   - comm_tot[cu] -= ku happens before base is formed;
 *   - gains are links[c] - comm_tot[c] * ku / m2, evaluated left to right;
 *   - the largest gain - base above best_gain wins, the smallest community
 *     rank on an exact tie (what an ascending scan with a strict > keeps);
 *   - a pass ends the level when its summed gain is below delta.
 * Build with -ffp-contract=off so no multiply-add is fused.
 *
 * links, seen and touched are scratch of length ncomm; their contents on
 * entry do not matter.  out receives {passes, moves, any_move}.  The
 * function keeps no state between calls and allocates nothing.
 */
#include <stdint.h>

void louvain_scan(int64_t n, int64_t ncomm, const int64_t *indptr, const int64_t *indices,
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
