"""Neighborhood-intersection clustering kernels.

The set-based reference (``tests/oracles.py``) tests all
``k(k-1)/2`` neighbor pairs with set membership.  The CSR kernel instead
marks the node's neighborhood in a boolean mask and counts, over the
concatenated adjacency lists of all neighbors, how many entries hit the
mask — each triangle edge is seen from both endpoints, so the hit count
is exactly twice the number of edges among neighbors.  Cost is the sum of
the neighbors' degrees (a few numpy calls), not ``k^2`` Python set probes,
which is what makes hub nodes cheap.

Counts are exact integers, so the coefficient ``2 * links / (k * (k-1))``
is float-identical to the reference.

The per-node loop runs in C (``clustering.c``) when a C compiler is on
``PATH``: :mod:`repro.kernels.native` compiles it on the first call and
caches the library.  Without a compiler, or when the build or the load
fails, :func:`_python_coefficients` runs instead; the two give the same
bits, and the Python loop is the C loop's parity oracle.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.kernels import native
from repro.kernels.csr import CSRGraph, gather_neighbors
from repro.obs import get_recorder
from repro.util.arrays import FloatArray, IntArray
from repro.util.rng import make_rng

__all__ = ["local_clustering_csr", "clustering_coefficients", "average_clustering_csr"]

#: ``coefficients(csr, positions) -> float64 array``, one value per position.
Coefficients = Callable[[CSRGraph, IntArray], FloatArray]

_SOURCE = Path(__file__).with_name("clustering.c")
_ARGTYPES = [ctypes.c_int64] + [ctypes.c_void_p] * 2 + [ctypes.c_int64] + [ctypes.c_void_p] * 3


def clustering_coefficients(csr: CSRGraph, positions: IntArray) -> FloatArray:
    """Local clustering coefficient for each position, in the given order."""
    return _coefficients()(csr, positions)


def _python_coefficients(csr: CSRGraph, positions: IntArray) -> FloatArray:
    """The per-node loop in Python: the fallback and the C loop's oracle."""
    indptr, indices = csr.indptr, csr.indices
    mask = np.zeros(csr.num_nodes, dtype=bool)
    out = np.empty(positions.size, dtype=np.float64)
    degrees = csr.degrees
    for i, position in enumerate(positions):
        p = int(position)
        k = int(degrees[p])
        if k < 2:
            out[i] = 0.0
            continue
        neighborhood = indices[indptr[p] : indptr[p + 1]]
        mask[neighborhood] = True
        two_links = int(mask[gather_neighbors(indptr, indices, neighborhood)].sum())
        mask[neighborhood] = False
        out[i] = 2.0 * (two_links // 2) / (k * (k - 1))
    return out


def _c_coefficients(function: ctypes._NamedFuncPointer) -> Coefficients:
    """Wrap the compiled ``clustering_coefficients`` in the :data:`Coefficients` signature."""

    def coefficients(csr: CSRGraph, positions: IntArray) -> FloatArray:
        inputs = (
            np.ascontiguousarray(csr.indptr, dtype=np.int64),
            np.ascontiguousarray(csr.indices, dtype=np.int64),
        )
        positions = np.ascontiguousarray(positions, dtype=np.int64)
        mask = np.empty(csr.num_nodes, dtype=np.uint8)
        out = np.empty(positions.size, dtype=np.float64)
        function(
            csr.num_nodes,
            *(a.ctypes.data for a in inputs),
            positions.size,
            *(a.ctypes.data for a in (positions, mask, out)),
        )
        return out

    return coefficients


@functools.cache
def _coefficients() -> Coefficients:
    """The loop every call runs: the C loop if it builds and loads."""
    function = _library()
    return _python_coefficients if function is None else _c_coefficients(function)


def _library() -> ctypes._NamedFuncPointer | None:
    """Load the compiled loop through :mod:`repro.kernels.native`, or ``None``."""
    return native.load(_SOURCE, "clustering_coefficients", _ARGTYPES, "kernels.clustering_build")


def local_clustering_csr(csr: CSRGraph, node: int) -> float:
    """Clustering coefficient of one node id (0.0 when degree < 2)."""
    positions = csr.positions_of(np.array([node], dtype=np.int64))
    return float(clustering_coefficients(csr, positions)[0])


def average_clustering_csr(
    csr: CSRGraph,
    sample_size: int | None,
    rng: int | np.random.Generator | None,
) -> float:
    """CSR twin of :func:`repro.metrics.clustering.average_clustering`.

    Mirrors the reference exactly: same sorted sampling pool, same
    ``rng.choice`` draw, same evaluation order, same ``np.mean``.
    """
    n = csr.num_nodes
    if n == 0:
        return float("nan")
    rec = get_recorder()
    scan = "python" if _coefficients() is _python_coefficients else "c"
    with rec.span("kernels.clustering", nodes=n, scan=scan):
        if sample_size is not None and sample_size < n:
            pool = np.sort(csr.node_ids)
            sampled = make_rng(rng).choice(pool, size=sample_size, replace=False)
            positions = csr.positions_of(sampled)
        else:
            positions = np.arange(n, dtype=np.int64)
        if rec.enabled:
            rec.count("kernels.clustering_nodes", int(positions.size))
        return float(np.mean(clustering_coefficients(csr, positions)))
