"""The recorder core: hierarchical spans, counters, gauges, the singleton.

``repro.obs`` is the **only** package in the tree allowed to read the
wall clock (rule RPL004 exempts it by construction — see
``repro.devtools.rules_determinism.WALL_CLOCK_EXEMPT``).  Every other
layer gets time exclusively through this module: either implicitly by
opening a span, or explicitly via :func:`perf_counter` for run *metadata*
(histogram observations) that never feeds back into computed results.

Two recorder implementations share one tiny interface:

* :class:`NullRecorder` — the default.  A stateless, lock-free singleton
  whose every method is a constant-time no-op; instrumented hot loops pay
  one attribute lookup and one call per site, nothing else.  There is no
  branching on configuration, no lock, and no allocation beyond the
  caller's own keyword dict.
* :class:`TraceRecorder` — an in-memory collector.  Spans nest through a
  name stack (so every record knows its parent path), counters are
  monotonic adds, gauges keep the maximum ever set (peak semantics — the
  one gauge family we record is peak RSS).

The module-level singleton (:func:`get_recorder` / :func:`use_recorder`)
is deliberately process-local state: parallel replay workers install
their *own* recorder (one lane per timeline window) and ship the
resulting shard back to the parent, which attaches it — see
:mod:`repro.obs.merge`.  Tracing is strictly observational: recorders
consume no randomness and influence no iteration order, so results are
bit-identical with tracing on or off.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass
from typing import Any

from repro.obs.metrics import DEFAULT_LATENCY, HistogramConfig, LogHistogram, TailSampler

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "SpanRecord",
    "TraceRecorder",
    "get_recorder",
    "peak_rss_bytes",
    "perf_counter",
    "set_recorder",
    "use_recorder",
]

#: The sanctioned monotonic clock for the whole tree.  Pure packages that
#: need wall-time *metadata* (never results) import this name instead of
#: the stdlib, keeping RPL004's "no wall clock outside repro.obs"
#: invariant a single grep away from verifiable.
perf_counter = time.perf_counter


def peak_rss_bytes() -> int:
    """Peak resident set size of this process in bytes (0 if unknown).

    Uses :mod:`resource`, so it costs one syscall and needs no third-party
    dependency; on platforms without it (Windows) the gauge reads 0.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS reports bytes.
    import sys

    return peak if sys.platform == "darwin" else peak * 1024


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: what ran, where in the tree, and for how long.

    ``start`` and ``duration`` are seconds on the recorder's monotonic
    clock, relative to the recorder's epoch (its construction time), so
    shards from different processes all start near zero.  ``parent`` is
    the ``/``-joined path of enclosing span names (``""`` for roots) —
    the tree structure is therefore part of the record itself and
    survives serialization without pointer fixup.
    """

    name: str
    start: float
    duration: float
    depth: int
    parent: str
    attrs: tuple[tuple[str, Any], ...] = ()

    @property
    def path(self) -> str:
        """The full ``/``-joined span path, root first."""
        return f"{self.parent}/{self.name}" if self.parent else self.name

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready plain-dict form (used by shards and exporters)."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "depth": self.depth,
            "parent": self.parent,
            "attrs": dict(self.attrs),
        }

    @staticmethod
    def from_dict(payload: dict[str, Any]) -> "SpanRecord":
        """Rebuild a record from :meth:`as_dict` output."""
        return SpanRecord(
            name=str(payload["name"]),
            start=float(payload["start"]),
            duration=float(payload["duration"]),
            depth=int(payload["depth"]),
            parent=str(payload["parent"]),
            attrs=tuple(sorted(dict(payload.get("attrs", {})).items())),
        )


class _NullSpan:
    """A reusable, allocation-free context manager that does nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """The recorder interface instrumented code talks to.

    ``enabled`` lets hot sites skip attribute-gathering work entirely
    (``if rec.enabled: rec.count(...)``); the methods themselves are
    always safe to call on either implementation.
    """

    enabled: bool = False

    def span(self, name: str, **attrs: Any) -> AbstractContextManager[None]:
        """A context manager timing the enclosed block as span ``name``."""
        raise NotImplementedError

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (monotonic)."""
        raise NotImplementedError

    def gauge(self, name: str, value: float) -> None:
        """Record ``value`` for gauge ``name``; the maximum is kept."""
        raise NotImplementedError

    def observe(self, name: str, value: float) -> None:
        """File ``value`` into the streaming histogram ``name``."""
        raise NotImplementedError


class NullRecorder(Recorder):
    """The disabled path: every operation is a constant-time no-op.

    A single shared instance (:data:`NULL_RECORDER`) serves the whole
    process; it holds no state, so there is nothing to lock and nothing
    to reset.
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> AbstractContextManager[None]:
        return _NULL_SPAN

    def count(self, name: str, n: float = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None


class TraceRecorder(Recorder):
    """An in-memory span/counter collector for one process (one lane).

    ``lane`` is the *stable* identity used for merging and display: the
    parent run is lane 0 and each parallel window is lane ``1 + window
    index``, so the merged trace is identical however the OS scheduled
    the worker processes.  The operating-system pid is recorded purely as
    informational metadata.

    ``observe(name, value)`` feeds fixed-size streaming histograms
    (:class:`repro.obs.metrics.LogHistogram`), so distributions are
    tracked at bounded memory alongside spans.  Long-running processes
    (the serve workers) additionally pass a
    :class:`~repro.obs.metrics.TailSampler` and a ``max_spans`` cap:
    spans over the sampler's latency threshold are always kept, the rest
    probabilistically, and drops are counted under ``obs.spans_dropped``.
    """

    enabled = True

    def __init__(
        self,
        lane: int = 0,
        label: str = "main",
        sampler: TailSampler | None = None,
        max_spans: int | None = None,
        histogram_config: HistogramConfig = DEFAULT_LATENCY,
    ) -> None:
        self.lane = lane
        self.label = label
        self.pid = os.getpid()
        self.epoch = time.perf_counter()
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, LogHistogram] = {}
        self.shards: list[dict[str, Any]] = []
        self.sampler = sampler
        self.max_spans = max_spans
        self._histogram_config = histogram_config
        self._stack: list[str] = []

    def _keep_span(self, duration: float) -> bool:
        """Sampling decision for one finished span.

        The sampler is consulted first even when the buffer is full, so
        its decision stream stays a pure function of the span sequence —
        two runs of the same work agree on which spans were *sampled*
        regardless of buffer pressure.
        """
        kept = self.sampler is None or self.sampler.keep(duration)
        if kept and (self.max_spans is None or len(self.spans) < self.max_spans):
            return True
        self.counters["obs.spans_dropped"] = (
            self.counters.get("obs.spans_dropped", 0) + 1
        )
        return False

    @contextmanager
    def _span(self, name: str, attrs: dict[str, Any]) -> Iterator[None]:
        parent = "/".join(self._stack)
        depth = len(self._stack)
        self._stack.append(name)
        began = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            self._stack.pop()
            if self._keep_span(ended - began):
                self.spans.append(
                    SpanRecord(
                        name=name,
                        start=began - self.epoch,
                        duration=ended - began,
                        depth=depth,
                        parent=parent,
                        attrs=tuple(sorted(attrs.items())),
                    )
                )

    def span(self, name: str, **attrs: Any) -> AbstractContextManager[None]:
        return self._span(name, attrs)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = LogHistogram(self._histogram_config)
            self.histograms[name] = hist
        hist.observe(value)

    # -- shard interchange ---------------------------------------------

    def shard(self) -> dict[str, Any]:
        """This recorder's collected data as one JSON/pickle-ready dict.

        Workers call this after evaluating their window and return the
        dict to the parent (it crosses the process boundary as plain
        data, so no recorder object is ever pickled).
        """
        return {
            "lane": self.lane,
            "label": self.label,
            "pid": self.pid,
            "spans": [span.as_dict() for span in self.spans],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: self.histograms[name].to_dict()
                for name in sorted(self.histograms)
            },
        }

    def attach_shard(self, shard: dict[str, Any]) -> None:
        """Adopt a worker's shard; ordering of attach calls is irrelevant
        (lanes are sorted at payload time, see :meth:`to_payload`)."""
        self.shards.append(shard)

    def to_payload(self) -> dict[str, Any]:
        """The full merged trace document: own lane plus attached shards.

        Lanes are emitted in ascending ``(lane, label)`` order, so the
        payload is a deterministic function of the recorded data no
        matter how worker results arrived.
        """
        lanes = [self.shard(), *self.shards]
        lanes.sort(key=lambda lane: (int(lane["lane"]), str(lane["label"])))
        return {"version": 1, "lanes": lanes}


#: The process-wide default recorder (tracing disabled).
NULL_RECORDER = NullRecorder()

_RECORDER: Recorder = NULL_RECORDER


def get_recorder() -> Recorder:
    """The currently installed recorder (the no-op singleton by default).

    This is a plain module-global read — no lock, no thread-local, no
    registry — which is what keeps the disabled path at one dict lookup
    per instrumented call site.
    """
    return _RECORDER


def set_recorder(recorder: Recorder) -> Recorder:
    """Install ``recorder`` as the process recorder; returns the previous one."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder
    return previous


@contextmanager
def use_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Scoped :func:`set_recorder`: installs ``recorder``, restores on exit."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
