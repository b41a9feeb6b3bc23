"""Network-level graph metrics over time (paper §2, Figure 1).

Each metric module exposes a pure function over a
:class:`~repro.kernels.csr.CSRGraph` snapshot;
:class:`~repro.metrics.timeseries.MetricTimeseries` holds their values
across a snapshot series (computed by :func:`repro.runtime.compute_timeseries`).
"""

from repro.metrics.assortativity import degree_assortativity
from repro.metrics.clustering import average_clustering, local_clustering
from repro.metrics.degree import average_degree, degree_distribution
from repro.metrics.diameter import effective_diameter_sampled
from repro.metrics.growth import GrowthSeries, daily_growth
from repro.metrics.paths import average_path_length_sampled
from repro.metrics.timeseries import MetricTimeseries

__all__ = [
    "effective_diameter_sampled",
    "GrowthSeries",
    "daily_growth",
    "average_degree",
    "degree_distribution",
    "average_path_length_sampled",
    "average_clustering",
    "local_clustering",
    "degree_assortativity",
    "MetricTimeseries",
]
