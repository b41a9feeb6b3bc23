"""repro — reproduction of "Multi-scale Dynamics in a Massive Online Social
Network" (Zhao et al., IMC 2012, arXiv:1205.4013).

The library has three layers:

* **Substrates** — :mod:`repro.graph` (timestamped event streams, snapshot
  replay), :mod:`repro.gen` (a synthetic Renren-like trace generator
  substituting the proprietary dataset), and :mod:`repro.ml` (a from-scratch
  linear SVM).
* **Analyses** — :mod:`repro.metrics` (Figure 1), :mod:`repro.edges`
  (Figure 2), :mod:`repro.pa` (Figure 3), :mod:`repro.community`
  (Figures 4-7), and :mod:`repro.osnmerge` (Figures 8-9).
* **Experiments** — :mod:`repro.analysis` maps every paper figure panel to
  a driver producing paper-comparable numbers.
* **Runtime** — :mod:`repro.runtime` executes the metrics pipeline with
  windowed parallel replay and a content-addressed result cache;
  :mod:`repro.store` is the columnar, memory-mapped on-disk event format
  it reads at paper scale.

Quickstart::

    from repro.gen import presets, generate_trace
    from repro.analysis import AnalysisContext, run_experiment

    ctx = AnalysisContext(presets.small(), seed=7)
    run_experiment("F1c", ctx).print_summary()
"""

from repro.analysis import AnalysisContext, list_experiments, run_experiment
from repro.gen import FastGenerator, GeneratorConfig, MergeConfig, generate_trace, presets
from repro.graph import DynamicGraph, EventStream
from repro.runtime import MetricSpec, compute_timeseries
from repro.store import EventStore, StoreWriter

__version__ = "1.0.0"

__all__ = [
    "MetricSpec",
    "compute_timeseries",
    "AnalysisContext",
    "list_experiments",
    "run_experiment",
    "GeneratorConfig",
    "MergeConfig",
    "FastGenerator",
    "generate_trace",
    "presets",
    "DynamicGraph",
    "EventStream",
    "EventStore",
    "StoreWriter",
    "__version__",
]
