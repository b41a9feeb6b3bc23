"""Content-addressed on-disk result cache.

:class:`ResultCache` is the one disk cache: a directory of
``<key><suffix>`` entries written atomically
(:func:`repro.util.atomic.atomic_writer`), so a crashed writer can never
publish a torn entry and concurrent readers always see complete files.
Callers bring the codec: metric timeseries are ``.npz`` arrays
(:func:`encode_series`, keyed by :func:`series_key`), and ``repro
serve`` keeps JSON reports under ``<cache_dir>/serve``.

Keys are digests of everything that determines the result.  For a metric
series that is the stream's *content* (not its path or mtime), the metric
spec fingerprint (names, sampling parameters, seed), the snapshot cadence
and a format version.  Worker count is deliberately excluded — serial
and parallel runs are bit-identical, so they share entries.  Any change
to an input changes the key, so invalidation is automatic and stale
entries are simply never read again.
"""

from __future__ import annotations

import hashlib
import io
import os
import zipfile
from collections.abc import Callable
from pathlib import Path
from typing import TypeVar

import numpy as np

from repro.graph.events import EventStream
from repro.metrics.timeseries import MetricTimeseries
from repro.obs import get_recorder
from repro.runtime.spec import MetricSpec
from repro.store.reader import EventStore
from repro.util.atomic import atomic_writer

__all__ = [
    "ResultCache",
    "decode_series",
    "default_cache_dir",
    "encode_series",
    "series_key",
    "stream_digest",
]

# Bump when the cache entry layout or any result-affecting convention
# (RNG derivation, grid semantics) changes.
CACHE_FORMAT_VERSION = 1

T = TypeVar("T")


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
    """A directory of ``<key><suffix>`` entries.

    :meth:`load` outcomes are counted on the installed recorder as
    ``cache.hits`` / ``cache.misses``; the cache itself keeps no tallies.
    """

    def __init__(self, root: str | Path, suffix: str = ".npz") -> None:
        self.root = Path(root).expanduser()
        self.suffix = suffix

    @staticmethod
    def key(*parts: str) -> str:
        """A stable hex key from ordered string ``parts``."""
        return hashlib.sha256("\x00".join(parts).encode()).hexdigest()

    def path(self, key: str) -> Path:
        """Filesystem path of the entry for ``key``."""
        return self.root / f"{key}{self.suffix}"

    def load(self, key: str, decode: Callable[[bytes], T]) -> T | None:
        """The decoded entry for ``key``, or ``None`` on a miss.

        An entry that is absent or unreadable, or whose bytes ``decode``
        rejects with :class:`ValueError` (truncated, foreign, or from a
        layout this version cannot read), counts as a miss: the caller
        recomputes and overwrites it, and nothing is raised.
        """
        rec = get_recorder()
        with rec.span("cache.lookup"):
            try:
                value = decode(self.path(key).read_bytes())
            except (OSError, ValueError):
                if rec.enabled:
                    rec.count("cache.misses", 1)
                return None
            if rec.enabled:
                rec.count("cache.hits", 1)
            return value

    def store(self, key: str, data: bytes) -> Path:
        """Atomically publish ``data`` under ``key``; returns the entry path."""
        with get_recorder().span("cache.store"):
            self.root.mkdir(parents=True, exist_ok=True)
            with atomic_writer(self.path(key)) as handle:
                handle.write(data)
            return self.path(key)


def series_key(
    digest: str, spec: MetricSpec, interval: float, start: float | None
) -> str:
    """Cache key for evaluating ``spec`` over the stream with ``digest``."""
    return ResultCache.key(
        f"v{CACHE_FORMAT_VERSION}",
        digest,
        spec.fingerprint(),
        repr(float(interval)),
        repr(None if start is None else float(start)),
    )


def encode_series(series: MetricTimeseries) -> bytes:
    """``series`` as ``.npz`` bytes (names, times, one value row per name)."""
    names = list(series.values)
    times = np.asarray(series.times, dtype=np.float64)
    values = np.array(
        [np.asarray(series.values[name], dtype=np.float64) for name in names]
    ).reshape(len(names), times.size)
    buffer = io.BytesIO()
    np.savez(buffer, names=np.array(names), times=times, values=values)
    return buffer.getvalue()


def decode_series(data: bytes) -> MetricTimeseries:
    """Inverse of :func:`encode_series`; :class:`ValueError` on foreign bytes."""
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as arrays:
            names = [str(name) for name in arrays["names"]]
            times = arrays["times"]
            values = arrays["values"]
    except (EOFError, KeyError, zipfile.BadZipFile) as exc:
        raise ValueError(f"not a metric series entry: {exc}") from exc
    return MetricTimeseries(
        times=times.tolist(),
        values={name: values[i].tolist() for i, name in enumerate(names)},
        cached=True,
    )
