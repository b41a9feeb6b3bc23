"""The result type of a metric run across a snapshot series.

The paper computes cheap metrics daily and expensive ones (path length) at a
3-day cadence on sampled nodes (§2).  :func:`repro.runtime.compute_timeseries`
replays a stream once, evaluates a :class:`~repro.runtime.spec.MetricSpec`
at a chosen interval and returns a :class:`MetricTimeseries`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MetricTimeseries"]


@dataclass
class MetricTimeseries:
    """Sampled times and one value series per metric name.

    ``cached`` is true when the runtime read the series from its result
    cache instead of evaluating it.  It describes how the numbers were
    produced, never what they are, so it is excluded from equality.  Run
    timings live in the trace (:mod:`repro.obs`), not here.
    """

    times: list[float] = field(default_factory=list)
    values: dict[str, list[float]] = field(default_factory=dict)
    cached: bool = field(default=False, compare=False, repr=False)

    def as_arrays(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The series as numpy arrays ``(times, {name: values})``."""
        return (
            np.asarray(self.times),
            {name: np.asarray(vals) for name, vals in self.values.items()},
        )
