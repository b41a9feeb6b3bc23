"""Declarative metric suites with per-snapshot seeding.

:class:`MetricSpec` is a picklable description of a metric suite: metric
*names* plus sampling parameters plus a seed.  The callables are rebuilt
per snapshot with an RNG seeded by ``(seed, snapshot_index)``, so any
process evaluating any snapshot draws the same random numbers — the
property that makes windowed parallel replay bit-identical to a serial
run.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from repro.graph.dynamic import snapshot_times
from repro.kernels.csr import CSRGraph
from repro.metrics.assortativity import degree_assortativity
from repro.metrics.clustering import average_clustering
from repro.metrics.degree import average_degree
from repro.metrics.paths import average_path_length_sampled

__all__ = ["MetricSpec", "STANDARD_METRIC_NAMES", "snapshot_times"]

# Metric callables take the replay's CSR snapshot, which the runtime
# shares across the whole suite.
MetricFn = Callable[[CSRGraph], float]

STANDARD_METRIC_NAMES = (
    "average_degree",
    "average_path_length",
    "average_clustering",
    "assortativity",
)

_FACTORIES: dict[str, Callable[["MetricSpec", np.random.Generator], MetricFn]] = {
    "average_degree": lambda spec, rng: average_degree,
    "average_path_length": lambda spec, rng: (
        lambda csr: average_path_length_sampled(csr, spec.path_sample, rng)
    ),
    "average_clustering": lambda spec, rng: (
        lambda csr: average_clustering(csr, spec.clustering_sample, rng)
    ),
    "assortativity": lambda spec, rng: degree_assortativity,
}


@dataclass(frozen=True)
class MetricSpec:
    """A picklable description of which metrics to run and how to seed them.

    ``names`` selects from the registered metric suite; ``path_sample`` and
    ``clustering_sample`` are the paper's tractability knobs (§2).  The
    spec, not a generator object, crosses process boundaries — workers call
    :meth:`build` locally.
    """

    names: tuple[str, ...] = STANDARD_METRIC_NAMES
    path_sample: int = 400
    clustering_sample: int | None = 1500
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        unknown = [name for name in self.names if name not in _FACTORIES]
        if unknown:
            raise ValueError(f"unknown metrics {unknown}; available: {sorted(_FACTORIES)}")

    def build(self, snapshot_index: int) -> dict[str, MetricFn]:
        """Metric callables for the snapshot at ``snapshot_index``.

        All callables share one RNG seeded by ``(seed, snapshot_index)``
        and must be evaluated in ``names`` order, exactly once each, for
        reproducibility across runs and processes.
        """
        rng = np.random.default_rng((self.seed, snapshot_index))
        return {name: _FACTORIES[name](self, rng) for name in self.names}

    def fingerprint(self) -> str:
        """A stable hex digest of the spec, for cache keys."""
        payload = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(payload.encode()).hexdigest()


