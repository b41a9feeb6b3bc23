"""Declarative metric suites with per-snapshot seeding.

:func:`repro.metrics.timeseries.standard_metrics` returns closures that
share one RNG whose state threads through the whole replay — inherently
serial.  :class:`MetricSpec` replaces the closures with a picklable
description: metric *names* plus sampling parameters plus a seed.  The
callables are rebuilt per snapshot with an RNG seeded by
``(seed, snapshot_index)``, so any process evaluating any snapshot draws
the same random numbers — the property that makes windowed parallel
replay bit-identical to a serial run.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.snapshot import GraphSnapshot
from repro.metrics.assortativity import degree_assortativity
from repro.metrics.clustering import average_clustering
from repro.metrics.degree import average_degree
from repro.metrics.paths import average_path_length_sampled

if TYPE_CHECKING:
    from repro.kernels.csr import CSRGraph
    from repro.kernels.delta import DeltaMetricEngine

__all__ = ["DELTA_METRIC_NAMES", "MetricSpec", "STANDARD_METRIC_NAMES", "snapshot_times"]

# Metric callables take the snapshot plus an optional prebuilt CSRGraph of
# the same snapshot; the runtime builds one per snapshot and shares it
# across the whole suite.
MetricFn = Callable[[GraphSnapshot, "CSRGraph | None"], float]

STANDARD_METRIC_NAMES = (
    "average_degree",
    "average_path_length",
    "average_clustering",
    "assortativity",
)

# Metrics the delta engine maintains as event-delta accumulators.
# Anything else (sampled BFS path length) is evaluated on the engine's
# frozen CSR through the ordinary csr kernel, which is bit-identical.
DELTA_METRIC_NAMES = frozenset(
    {"average_degree", "average_clustering", "assortativity"}
)

_FACTORIES: dict[str, Callable[["MetricSpec", np.random.Generator], MetricFn]] = {
    "average_degree": lambda spec, rng: (lambda g, csr=None: average_degree(g)),
    "average_path_length": lambda spec, rng: (
        lambda g, csr=None: average_path_length_sampled(g, spec.path_sample, rng, csr=csr)
    ),
    "average_clustering": lambda spec, rng: (
        lambda g, csr=None: average_clustering(g, spec.clustering_sample, rng, csr=csr)
    ),
    "assortativity": lambda spec, rng: (lambda g, csr=None: degree_assortativity(g, csr=csr)),
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

    def build_delta(
        self, snapshot_index: int, engine: "DeltaMetricEngine"
    ) -> dict[str, MetricFn]:
        """Like :meth:`build`, but delta-maintained metrics read ``engine``.

        The engine must have consumed exactly the events of the snapshot
        being evaluated.  RNG discipline is identical to :meth:`build` —
        one generator seeded by ``(seed, snapshot_index)``, consumed in
        ``names`` order — and every engine metric replicates its batch
        kernel's draws and float expressions, so a delta run's series is
        bit-identical to a csr run's.
        """
        rng = np.random.default_rng((self.seed, snapshot_index))
        fns: dict[str, MetricFn] = {}
        for name in self.names:
            if name == "average_degree":
                fns[name] = _delta_average_degree(engine)
            elif name == "average_clustering":
                fns[name] = _delta_average_clustering(engine, self.clustering_sample, rng)
            elif name == "assortativity":
                fns[name] = _delta_assortativity(engine)
            else:
                fns[name] = _FACTORIES[name](self, rng)
        return fns

    def fingerprint(self) -> str:
        """A stable hex digest of the spec, for cache keys.

        The engine a replay runs on is not a spec field: csr and delta are
        bit-identical (enforced by the parity suite), so runs on either
        share cache entries.
        """
        payload = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(payload.encode()).hexdigest()


def _delta_average_degree(engine: "DeltaMetricEngine") -> MetricFn:
    def fn(g: GraphSnapshot, csr: "CSRGraph | None" = None) -> float:
        return engine.average_degree()

    return fn


def _delta_average_clustering(
    engine: "DeltaMetricEngine", sample: int | None, rng: np.random.Generator
) -> MetricFn:
    def fn(g: GraphSnapshot, csr: "CSRGraph | None" = None) -> float:
        return engine.average_clustering(sample, rng)

    return fn


def _delta_assortativity(engine: "DeltaMetricEngine") -> MetricFn:
    def fn(g: GraphSnapshot, csr: "CSRGraph | None" = None) -> float:
        return engine.assortativity()

    return fn


def snapshot_times(end_time: float, interval: float, start: float | None = None) -> list[float]:
    """The snapshot grid a fresh serial replay would visit.

    Mirrors :meth:`repro.graph.dynamic.DynamicGraph.snapshots` for a
    replay started from the beginning: samples every ``interval`` days
    from ``start`` (default one interval in), plus the final partial
    interval at ``end_time``.  Times accumulate by repeated addition so
    the floats match the serial iterator bit-for-bit.
    """
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    times: list[float] = []
    t = interval if start is None else start
    while t < end_time:
        times.append(t)
        t += interval
    times.append(end_time)
    return times
