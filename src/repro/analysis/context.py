"""Shared, lazily computed artifacts for the experiment drivers.

Most figure panels reuse the same expensive intermediates — the generated
event stream, the community-tracking run, the post-merge edge rates.  An
:class:`AnalysisContext` computes each at most once per instance.
"""

from __future__ import annotations

from pathlib import Path

from repro.community.tracking import CommunityTracker, track_deltas, track_stream
from repro.gen.config import GeneratorConfig
from repro.gen.fast import generate_trace
from repro.graph.dynamic import DynamicGraph
from repro.graph.events import EventStream
from repro.kernels.csr import CSRGraph
from repro.metrics.timeseries import MetricTimeseries
from repro.obs import get_recorder
from repro.osnmerge.activity import activity_threshold
from repro.osnmerge.edge_rates import EdgeRateSeries, edges_per_day_by_type
from repro.runtime.api import compute_timeseries
from repro.runtime.spec import MetricSpec

__all__ = ["DELTA_SWEEP", "AnalysisContext"]

#: The δ values the paper sweeps (§4.1).
DELTA_SWEEP: tuple[float, ...] = (0.0001, 0.001, 0.01, 0.1, 0.3)


class AnalysisContext:
    """Config + seed plus caches for everything the figures share.

    The stream comes from :func:`repro.gen.generate_trace` — the same
    vectorized engine that ``repro generate`` and the store path use — so a
    figure and a served query over the same ``(config, seed)`` see the same
    events.

    ``tracking_interval`` controls the community-snapshot cadence (the
    paper uses 3 days; compressed traces can afford the same).

    ``workers`` and ``cache_dir`` flow to the runtime layer: the metric
    timeseries every Figure-1 panel reads is evaluated in a process pool
    when ``workers > 1`` and persisted/reused across processes when
    ``cache_dir`` names a directory.  The metric timeseries is bit-identical
    in every combination; every metric reads the replay's CSR snapshots.
    Community tracking runs cold CSR Louvain seeded with the previous
    partition.
    """

    def __init__(
        self,
        config: GeneratorConfig,
        seed: int = 0,
        tracking_interval: float = 3.0,
        tracking_delta: float = 0.04,
        workers: int = 1,
        cache_dir: str | Path | None = None,
    ) -> None:
        self.config = config
        self.seed = seed
        self.tracking_interval = tracking_interval
        self.tracking_delta = tracking_delta
        self.workers = workers
        self.cache_dir = cache_dir
        self._stream: EventStream | None = None
        self._tracker: CommunityTracker | None = None
        self._delta_sweep: dict[float, CommunityTracker] | None = None
        self._final_graph: CSRGraph | None = None
        self._edge_rates: EdgeRateSeries | None = None
        self._activity_threshold: float | None = None
        self._metrics: MetricTimeseries | None = None

    @property
    def merge_day(self) -> float:
        """The configured merge day; raises if the config has no merge."""
        if self.config.merge is None:
            raise ValueError("this context's config has no merge event")
        return float(int(self.config.merge.merge_day))

    @property
    def stream(self) -> EventStream:
        """The generated event stream (cached)."""
        if self._stream is None:
            with get_recorder().span("analysis.stream", seed=self.seed):
                self._stream = generate_trace(self.config, seed=self.seed)
        return self._stream

    @property
    def tracker(self) -> CommunityTracker:
        """A completed community-tracking run over the stream (cached)."""
        if self._tracker is None:
            stream = self.stream
            with get_recorder().span("analysis.tracking", interval=self.tracking_interval):
                self._tracker = track_stream(
                    stream,
                    interval=self.tracking_interval,
                    delta=self.tracking_delta,
                    seed=self.seed,
                )
        return self._tracker

    @property
    def delta_sweep(self) -> dict[float, CommunityTracker]:
        """One completed tracker per δ in :data:`DELTA_SWEEP` (cached).

        All trackers step from one replay at a coarser cadence than
        :attr:`tracker` (about 14 snapshots over the trace), which keeps
        Figure 4's sweep affordable.
        """
        if self._delta_sweep is None:
            interval = max(self.tracking_interval, self.config.days / 14.0)
            stream = self.stream
            with get_recorder().span("analysis.delta_sweep", deltas=len(DELTA_SWEEP)):
                self._delta_sweep = track_deltas(
                    stream, DELTA_SWEEP, interval=interval, seed=self.seed
                )
        return self._delta_sweep

    @property
    def final_graph(self) -> CSRGraph:
        """The full graph at the end of the trace (cached)."""
        if self._final_graph is None:
            stream = self.stream
            with get_recorder().span("analysis.final_graph"):
                self._final_graph = DynamicGraph(stream).final()
        return self._final_graph

    @property
    def edge_rates(self) -> EdgeRateSeries:
        """Post-merge per-day edge counts by class (cached)."""
        if self._edge_rates is None:
            stream = self.stream
            with get_recorder().span("analysis.edge_rates"):
                self._edge_rates = edges_per_day_by_type(stream, self.merge_day)
        return self._edge_rates

    @property
    def metrics(self) -> MetricTimeseries:
        """Figure-1 metric timeseries (degree, path length, clustering,
        assortativity), sampled ~40 times over the trace (cached)."""
        if self._metrics is None:
            interval = max(2.0, self.config.days / 40.0)
            spec = MetricSpec(path_sample=200, clustering_sample=800, seed=self.seed)
            stream = self.stream
            with get_recorder().span("analysis.metrics", interval=interval):
                self._metrics = compute_timeseries(
                    stream,
                    spec,
                    interval=interval,
                    workers=self.workers,
                    cache_dir=self.cache_dir,
                )
        return self._metrics

    @property
    def activity_threshold_days(self) -> float:
        """Data-derived activity threshold (cached; capped at the post-merge span)."""
        if self._activity_threshold is None:
            stream = self.stream
            with get_recorder().span("analysis.activity_threshold"):
                t = activity_threshold(stream)
            span = stream.end_time - self.merge_day if self.config.merge else t
            self._activity_threshold = min(t, max(1.0, span / 4.0))
        return self._activity_threshold
