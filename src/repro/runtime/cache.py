"""Content-addressed on-disk cache for metric timeseries.

Results are keyed by a digest of everything that determines them: the
stream's *content* (not its path or mtime), the metric spec fingerprint
(names, sampling parameters, seed), the snapshot cadence, and a format
version.  Worker count is deliberately excluded — serial and parallel
runs are bit-identical, so they share entries.  Any change to an input
changes the key, so invalidation is automatic and stale entries are
simply never read again.

Entries are single ``.npz`` files written atomically
(:func:`repro.util.atomic.atomic_writer`), so a crashed writer can never
publish a torn entry and concurrent readers always see complete files.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from pathlib import Path

import numpy as np

from repro.graph.events import EventStream
from repro.metrics.timeseries import MetricTimeseries
from repro.obs import get_recorder
from repro.runtime.spec import MetricSpec
from repro.store.reader import EventStore
from repro.util.atomic import atomic_writer

__all__ = ["ResultCache", "default_cache_dir", "stream_digest"]

# Bump when the cache entry layout or any result-affecting convention
# (RNG derivation, grid semantics) changes.
CACHE_FORMAT_VERSION = 1


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()


def stream_digest(stream: EventStream | EventStore) -> str:
    """SHA-256 over the stream's full event content.

    Hashes times, ids, and origin labels of every event in order, so any
    edit to the stream — reordering, relabeling, a single timestamp —
    produces a different digest.  Short-circuits wherever the digest is
    already known: an :class:`~repro.store.reader.EventStore` answers
    straight from its manifest (no events are decoded), and an
    :class:`EventStream` caches the hash after the first computation.
    Store and stream digests are byte-identical for equal content, so the
    two paths share cache entries.
    """
    if isinstance(stream, EventStore):
        return stream.content_digest
    return stream.content_digest()


class ResultCache:
    """A directory of ``<key>.npz`` metric-timeseries entries.

    ``hits`` and ``misses`` count :meth:`load` outcomes over the cache
    object's lifetime, feeding the runtime's ``--profile`` report.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0

    def key(
        self,
        digest: str,
        spec: MetricSpec,
        interval: float,
        start: float | None,
    ) -> str:
        """Cache key for evaluating ``spec`` over the stream with ``digest``."""
        payload = "\x00".join(
            [
                f"v{CACHE_FORMAT_VERSION}",
                digest,
                spec.fingerprint(),
                repr(float(interval)),
                repr(None if start is None else float(start)),
            ]
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def path(self, key: str) -> Path:
        """Filesystem path of the entry for ``key``."""
        return self.root / f"{key}.npz"

    def load(self, key: str) -> MetricTimeseries | None:
        """The cached series for ``key``, or ``None`` on a miss.

        A file that cannot be parsed (truncated, foreign, or from a layout
        this version cannot read) counts as a miss: the entry is recomputed
        and overwritten, never raised to the caller.
        """
        rec = get_recorder()
        with rec.span("cache.lookup"):
            path = self.path(key)
            if not path.exists():
                self.misses += 1
                if rec.enabled:
                    rec.count("cache.misses", 1)
                return None
            try:
                with np.load(path, allow_pickle=False) as data:
                    names = [str(name) for name in data["names"]]
                    times = data["times"]
                    values = data["values"]
            except (OSError, ValueError, KeyError, zipfile.BadZipFile):
                self.misses += 1
                if rec.enabled:
                    rec.count("cache.misses", 1)
                return None
            self.hits += 1
            if rec.enabled:
                rec.count("cache.hits", 1)
            return MetricTimeseries(
                times=times.tolist(),
                values={name: values[i].tolist() for i, name in enumerate(names)},
            )

    def store(self, key: str, series: MetricTimeseries) -> Path:
        """Atomically write ``series`` under ``key``; returns the entry path."""
        with get_recorder().span("cache.store"):
            return self._store(key, series)

    def _store(self, key: str, series: MetricTimeseries) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        names = list(series.values)
        times = np.asarray(series.times, dtype=np.float64)
        values = np.array(
            [np.asarray(series.values[name], dtype=np.float64) for name in names]
        ).reshape(len(names), times.size)
        with atomic_writer(self.path(key)) as handle:
            np.savez(handle, names=np.array(names), times=times, values=values)
        return self.path(key)
