"""Drive metric functions across a snapshot series.

The paper computes cheap metrics daily and expensive ones (path length) at a
3-day cadence on sampled nodes (§2).  :func:`compute_metric_timeseries`
replays a stream once and evaluates a :class:`~repro.runtime.spec.MetricSpec`
at a chosen interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from pathlib import Path

    from repro.graph.events import EventStream
    from repro.runtime.spec import MetricSpec
    from repro.store.reader import EventStore

__all__ = ["MetricTimeseries", "compute_metric_timeseries"]


@dataclass
class MetricTimeseries:
    """Sampled times and one value series per metric name.

    ``profile`` is optional run metadata attached by the runtime layer
    (resolved backend, per-metric wall-clock seconds per snapshot, cache
    hit/miss counts, and a ``worker_detail`` list attributing snapshots,
    busy seconds, and cache traffic to each worker lane — lane 0 is the
    parent/serial process).  It describes how the numbers were produced,
    never what they are, so it is excluded from equality.
    """

    times: list[float] = field(default_factory=list)
    values: dict[str, list[float]] = field(default_factory=dict)
    profile: dict | None = field(default=None, compare=False, repr=False)

    def as_arrays(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The series as numpy arrays ``(times, {name: values})``."""
        return (
            np.asarray(self.times),
            {name: np.asarray(vals) for name, vals in self.values.items()},
        )


def compute_metric_timeseries(
    stream: EventStream | EventStore,
    metrics: MetricSpec,
    interval: float = 3.0,
    start: float | None = None,
    *,
    workers: int = 1,
    cache_dir: str | Path | None = None,
) -> MetricTimeseries:
    """Evaluate ``metrics`` on snapshots every ``interval`` days.

    ``start`` defaults to the first interval boundary; snapshots with no
    nodes are skipped.  ``workers > 1`` evaluates contiguous snapshot
    windows in a process pool (bit-identical to serial), and ``cache_dir``
    enables the content-addressed on-disk result cache.  ``stream`` may
    also be an open :class:`~repro.store.reader.EventStore` (the columnar
    on-disk format).  This is :func:`repro.runtime.compute_timeseries`.
    """
    from repro.runtime.api import compute_timeseries

    return compute_timeseries(
        stream, metrics, interval=interval, start=start, workers=workers, cache_dir=cache_dir
    )
