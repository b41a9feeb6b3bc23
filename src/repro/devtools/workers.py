"""The pickle-whitelist manifest for process-pool worker callables.

Every function shipped to a :class:`~concurrent.futures.ProcessPoolExecutor`
(as a ``submit``/``map`` target or an ``initializer=``) must be registered
here, mapping its qualified name to the payload types that cross the
process boundary.  RPL031 enforces membership at lint time; the test
suite (``tests/test_devtools_lint.py``) cross-checks that every entry
names a real module-level function and that every declared payload type
is in :data:`PICKLE_WHITELIST` — so the manifest cannot rot, exactly like
the RPL005 parity manifest.

Why a whitelist: under the ``spawn`` start method every payload is
pickled, and an unpicklable (or expensively picklable) payload fails *at
scale*, in a worker, long after review.  Declaring the payload types up
front makes the fork/spawn contract reviewable in one place — see
``docs/runtime.md`` ("Start-method contract").
"""

from __future__ import annotations

__all__ = ["PICKLE_WHITELIST", "WORKER_EXEMPT", "WORKER_MANIFEST"]

#: Types that are allowed to cross the process boundary.  Everything here
#: is either a builtin, a frozen dataclass of builtins/arrays, or a
#: container of those — cheap and deterministic to pickle.
PICKLE_WHITELIST: frozenset[str] = frozenset(
    {
        "bool",
        "int",
        "float",
        "str",
        "tuple",
        "list",
        "NoneType",
        "EventStream",
        "MetricSpec",
        "Window",
        "WindowResult",
    }
)

#: qualified function name -> payload type names it receives (initargs or
#: the mapped iterable's element type) and returns.
WORKER_MANIFEST: dict[str, tuple[str, ...]] = {
    "repro.runtime.parallel._init_worker": ("EventStream", "MetricSpec", "bool"),
    "repro.runtime.parallel._init_store_worker": ("str", "MetricSpec", "bool"),
    "repro.runtime.parallel._run_window": ("Window", "WindowResult"),
    # repro.serve shard workers: every request/response payload is a plain
    # JSON string, the cheapest possible pickle.
    "repro.serve.workers._init_serve_worker": ("str", "NoneType", "int", "bool"),
    "repro.serve.workers._serve_request": ("str",),
    "repro.serve.workers._drain_trace": ("bool", "str"),
    "repro.serve.workers._telemetry_snapshot": ("str",),
}

#: Worker callables exempt from the manifest, with a written reason.
WORKER_EXEMPT: dict[str, str] = {}
