"""Sampled average shortest-path length (Figure 1d).

The paper follows "the standard practice of sampling nodes to make path
length computation tractable": 1000 sources from the largest connected
component, once every three days.  We do the same — BFS from each sampled
source, averaging distances to all reachable nodes.

:func:`average_path_length_sampled` runs the frontier-array BFS kernel.
Sources are drawn from the *sorted* largest-component pool: set iteration
order is an implementation detail, and sampling must not depend on it or
parallel replay would drift from serial.  Distances accumulate in exact
integer arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.csr import CSRGraph
from repro.kernels.traversal import average_path_length_csr
from repro.util.rng import make_rng

__all__ = ["average_path_length_sampled"]


def average_path_length_sampled(
    csr: CSRGraph,
    sample_size: int = 1000,
    rng: int | np.random.Generator | None = None,
) -> float:
    """Average hop distance from sampled sources to all reachable nodes.

    Sources are drawn (without replacement) from the largest connected
    component.  Returns ``nan`` when the component has fewer than two
    nodes.
    """
    return average_path_length_csr(csr, sample_size, make_rng(rng))
