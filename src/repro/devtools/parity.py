"""The parity-test manifest backing rule RPL005.

Every function that dispatches on ``backend=`` must either be **covered**
— mapped here to the parity test that pins its python/csr implementations
bit-for-bit — or **exempt** with a written reason.  RPL005 flags any
``backend=``-accepting function in neither table, so a new dispatcher
cannot land without a parity test (or an argued exemption).

``tests/test_devtools_lint.py`` cross-checks this file: every covered
entry's test reference must actually occur in the parity suite, so the
manifest cannot silently rot.
"""

from __future__ import annotations

__all__ = [
    "DELTA_PARITY_COVERED",
    "DELTA_PARITY_TEST_FILE",
    "ENGINE_EQUIVALENCE_COVERED",
    "ENGINE_EQUIVALENCE_TEST_FILE",
    "PARITY_COVERED",
    "PARITY_EXEMPT",
    "PARITY_TEST_FILE",
]

# The test module the coverage references point into.
PARITY_TEST_FILE = "tests/test_kernels_parity.py"

# Dispatcher qualname -> the parity test function that pins both backends.
# Empty: every kernel-enabled function calls its CSR kernel directly,
# and the parity suite compares it against its ``*_reference`` twin.  A
# reintroduced ``backend=`` dispatcher must register its parity test here.
PARITY_COVERED: dict[str, str] = {}

# The delta engine's parity harness.  The engine is a second
# implementation of the runtime suite: degree / clustering / assortativity
# (and the whole MetricSpec timeseries) must be *bit-identical* to the
# csr kernels.  Cross-checked against DELTA_PARITY_TEST_FILE by
# ``tests/test_devtools_lint.py`` exactly like PARITY_COVERED.
DELTA_PARITY_TEST_FILE = "tests/test_delta_parity.py"

DELTA_PARITY_COVERED: dict[str, str] = {
    "repro.kernels.delta.DeltaCSRGraph.to_csr": "test_delta_csr_matches_batch_build",
    "repro.kernels.delta.DeltaMetricEngine": "test_engine_metrics_bit_identical",
    "repro.runtime.parallel.evaluate_timeseries": "test_timeseries_delta_bit_identical",
}

# Generation-engine dispatchers (``engine="legacy"|"fast"``).  The two
# engines draw random numbers in different orders, so the contract is
# *distribution* equivalence (degree tail, clustering, burstiness) plus
# per-engine byte determinism — not bit parity.  RPL005 flags any new
# string-dispatch ``engine=`` function missing from this table, and
# ``tests/test_devtools_lint.py`` checks each referenced test exists.
ENGINE_EQUIVALENCE_TEST_FILE = "tests/test_gen_fast.py"

ENGINE_EQUIVALENCE_COVERED: dict[str, str] = {
    "repro.gen.dispatch.generate": "test_engines_distribution_equivalent",
    "repro.gen.dispatch.generate_store": "test_store_digest_matches_stream_digest",
}

# Dispatcher qualname -> why it needs no parity test of its own.
PARITY_EXEMPT: dict[str, str] = {}
