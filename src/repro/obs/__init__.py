"""Structured observability for the replay/kernel/store/serve pipeline.

``repro.obs`` is a deterministic-safe instrumentation layer: hierarchical
spans, typed counters/gauges, streaming histograms, and exporters (JSONL,
Chrome trace-event JSON, human summary tables).  It sits at layer 0 of
the import contract — anything may use it, it imports nothing — and it is
the **sole** package allowed to read the wall clock (rule RPL004 exempts
exactly this package; see ``repro.devtools.rules_determinism``).

The disabled path is the default and costs one module-global read plus a
no-op method call per site (:class:`~repro.obs.recorder.NullRecorder` —
no locks, no allocation, no branching on configuration).  Tracing is
enabled by installing a :class:`~repro.obs.recorder.TraceRecorder` via
:func:`~repro.obs.recorder.use_recorder` (the CLI's ``--trace PATH`` and
``--profile`` do this, and the trace is the only record of a run's
timings); parallel replay workers each record their own shard, and the
parent merges them into stable per-window lanes — results are
bit-identical with tracing on or off.

Layout:

* :mod:`~repro.obs.recorder` — spans/counters/gauges/``observe``, the
  recorder singleton, and the sanctioned monotonic clock;
* :mod:`~repro.obs.metrics` — fixed-size log-bucket streaming histograms
  with a documented relative-error bound, windowed rollups, and
  deterministic tail-biased span sampling;
* :mod:`~repro.obs.merge` — deterministic shard merging, span trees,
  cross-lane rollups (histograms merge bucket-wise);
* :mod:`~repro.obs.export` — JSONL span log and Chrome trace-event JSON
  (Perfetto-loadable) writers/readers;
* :mod:`~repro.obs.summary` — the human trace table (what ``repro obs
  summarize`` and ``--profile`` print), and the snapshot loader and
  regression gate behind ``repro obs diff``.
"""

from repro.obs.export import read_jsonl, to_chrome, write_chrome, write_jsonl, write_trace
from repro.obs.merge import aggregate, attach_shards, lane_summary, span_tree
from repro.obs.metrics import (
    DEFAULT_LATENCY,
    QUANTILES,
    HistogramConfig,
    LogHistogram,
    TailSampler,
    WindowedHistogram,
    merge_histogram_dicts,
    prometheus_escape,
    prometheus_lines,
    quantile_summary,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    SpanRecord,
    TraceRecorder,
    get_recorder,
    peak_rss_bytes,
    perf_counter,
    set_recorder,
    use_recorder,
)
from repro.obs.summary import (
    diff_rows,
    flatten_numeric,
    load_snapshot,
    regressed,
    render_diff,
    render_trace,
)

__all__ = [
    "DEFAULT_LATENCY",
    "NULL_RECORDER",
    "QUANTILES",
    "HistogramConfig",
    "LogHistogram",
    "NullRecorder",
    "Recorder",
    "SpanRecord",
    "TailSampler",
    "TraceRecorder",
    "WindowedHistogram",
    "aggregate",
    "attach_shards",
    "diff_rows",
    "flatten_numeric",
    "get_recorder",
    "lane_summary",
    "load_snapshot",
    "merge_histogram_dicts",
    "peak_rss_bytes",
    "perf_counter",
    "prometheus_escape",
    "prometheus_lines",
    "quantile_summary",
    "read_jsonl",
    "regressed",
    "render_diff",
    "render_trace",
    "set_recorder",
    "span_tree",
    "to_chrome",
    "use_recorder",
    "write_chrome",
    "write_jsonl",
    "write_trace",
]
