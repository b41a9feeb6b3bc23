"""Parallel, cached execution of the metrics pipeline.

The paper evaluates four graph metrics over 771 daily snapshots (§2); at
that scale a single-cursor replay is the bottleneck for every figure
driver.  This subpackage makes the same computation scale:

* :class:`~repro.runtime.spec.MetricSpec` — a picklable metric-suite
  description whose RNGs are derived per snapshot index, making results
  independent of which process evaluates which snapshot;
* :mod:`~repro.runtime.parallel` — splits the snapshot timeline into
  contiguous windows, replays each window's stream prefix in a process
  pool and evaluates its snapshots, bit-identical to serial;
* :mod:`~repro.runtime.cache` — a content-addressed on-disk result cache
  keyed by stream content + spec + cadence;
* :func:`~repro.runtime.api.compute_timeseries` — the front door that
  composes all three.
"""

from repro.runtime.api import compute_timeseries
from repro.runtime.cache import ResultCache, default_cache_dir, stream_digest
from repro.runtime.parallel import evaluate_timeseries, mp_context
from repro.runtime.spec import STANDARD_METRIC_NAMES, MetricSpec, snapshot_times

__all__ = [
    "MetricSpec",
    "ResultCache",
    "STANDARD_METRIC_NAMES",
    "compute_timeseries",
    "default_cache_dir",
    "evaluate_timeseries",
    "mp_context",
    "snapshot_times",
    "stream_digest",
]
