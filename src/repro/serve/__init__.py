"""``repro serve`` — a long-running query service over memory-mapped stores.

The paper's value is its *queries* — metric timeseries, per-snapshot
community structure, merge-impact reports — and after the store, cache,
and runtime layers, none of them needs a fresh replay to answer.  This
package turns that observation into a service:

* :mod:`~repro.serve.protocol` — request parsing/validation, canonical
  query keys, deterministic JSON encoding, typed error envelopes, and
  the minimal HTTP/1.1 framing shared by server and load generator;
* :mod:`~repro.serve.workers` — the process-pool worker side: each
  worker memory-maps the store once (``verify="lazy"``), owns a
  deterministic hash-shard of the cache, answers queries through the
  runtime front door (:func:`repro.runtime.compute_timeseries`), and
  keeps replay-derived reports (community tracking, merge analysis) as
  JSON entries of the runtime's :class:`~repro.runtime.cache.ResultCache`
  so the hot path never replays;
* :mod:`~repro.serve.server` — the asyncio front process: HTTP parsing,
  shard routing, request timeouts, per-request observability, graceful
  drain on shutdown;
* :mod:`~repro.serve.loadgen` — a seeded closed-loop load generator
  (Poisson think times with bursty modulation, per-user request-mix
  profiles) driving the server over real sockets and reporting
  p50/p95/p99 latency and throughput.

Responses are bit-identical across worker counts: bodies are
deterministic JSON (sorted keys, no wall-clock, no worker identity), so
``--workers 1`` and ``--workers 4`` serve byte-equal answers.
"""

from repro.serve.protocol import Query, QueryError, canonical_key, parse_query, shard_for
from repro.serve.server import ReproServer, ServeConfig

__all__ = [
    "Query",
    "QueryError",
    "ReproServer",
    "ServeConfig",
    "canonical_key",
    "parse_query",
    "shard_for",
]
