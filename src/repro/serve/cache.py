"""Atomic on-disk JSON cache for replay-derived serve reports.

:class:`~repro.runtime.cache.ResultCache` holds metric timeseries as
``.npz`` arrays; community tracking and merge analysis produce nested
JSON documents instead, so the serve layer keeps them in a sibling cache
of ``<key>.json`` files.  The concurrency story is identical — entries
are published through the same :func:`repro.util.atomic.atomic_writer`,
so a crashed writer can never expose a torn entry and two processes
racing on the same key both end with a complete one (last writer wins;
the payloads are deterministic, so the races are benign).

Keys are caller-built digests (store content digest + canonical query
parameters), so invalidation is automatic: change any input and the old
entry is simply never read again.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.util.atomic import atomic_writer

__all__ = ["ServeCache"]


class ServeCache:
    """A directory of ``<key>.json`` report entries.

    ``hits`` and ``misses`` count :meth:`load` outcomes over this
    object's lifetime (each worker process owns one instance, so the
    counters are per-shard).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(*parts: str) -> str:
        """A stable hex key from ordered string ``parts``."""
        return hashlib.sha256("\x00".join(parts).encode()).hexdigest()

    def path(self, key: str) -> Path:
        """Filesystem path of the entry for ``key``."""
        return self.root / f"{key}.json"

    def load(self, key: str) -> str | None:
        """The cached JSON text for ``key``, or ``None`` on a miss.

        A file that is unreadable or not valid JSON (truncated, foreign)
        counts as a miss and is recomputed, never raised to the caller.
        """
        path = self.path(key)
        try:
            text = path.read_text(encoding="utf-8")
            json.loads(text)
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return text

    def store(self, key: str, text: str) -> Path:
        """Atomically publish ``text`` under ``key``; returns the entry path."""
        self.root.mkdir(parents=True, exist_ok=True)
        with atomic_writer(self.path(key)) as handle:
            handle.write(text.encode("utf-8"))
        return self.path(key)
