/* Local clustering coefficients: the C twin of
 * repro.kernels.clustering._python_coefficients.
 *
 * For each position p in positions, in order: mark p's neighbours in
 * mask, count how many entries of the neighbours' CSR rows hit the mask
 * (each edge among the neighbours is seen from both ends), unmark them,
 * and write 2 * (hits / 2) / (k * (k - 1)), or 0.0 when k < 2.  Counts are
 * exact integers and the final expression is the Python loop's, so both
 * give the same bits.
 *
 * mask is scratch of length n; it is zeroed on entry, so its contents do
 * not matter.  The function keeps no state between calls and allocates
 * nothing.
 */
#include <stdint.h>

void clustering_coefficients(int64_t n, const int64_t *indptr, const int64_t *indices,
                             int64_t count, const int64_t *positions, unsigned char *mask,
                             double *out)
{
    for (int64_t i = 0; i < n; i++) {
        mask[i] = 0;
    }
    for (int64_t i = 0; i < count; i++) {
        const int64_t p = positions[i];
        const int64_t lo = indptr[p], hi = indptr[p + 1];
        const int64_t k = hi - lo;
        if (k < 2) {
            out[i] = 0.0;
            continue;
        }
        for (int64_t j = lo; j < hi; j++) {
            mask[indices[j]] = 1;
        }
        int64_t hits = 0;
        for (int64_t j = lo; j < hi; j++) {
            const int64_t v = indices[j];
            for (int64_t q = indptr[v]; q < indptr[v + 1]; q++) {
                hits += mask[indices[q]];
            }
        }
        for (int64_t j = lo; j < hi; j++) {
            mask[indices[j]] = 0;
        }
        out[i] = 2.0 * (double)(hits / 2) / (double)(k * (k - 1));
    }
}
