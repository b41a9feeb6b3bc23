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
# and the parity suite compares it against its dict-of-sets twin in
# ``tests/oracles.py``.  A
# reintroduced ``backend=`` dispatcher must register its parity test here.
PARITY_COVERED: dict[str, str] = {}

# The replay has one engine: its CSR snapshots are pinned against the
# per-event dict replay by ``test_replay_csr_matches_batch_build`` in
# ``tests/test_graph_dynamic.py``, and C kernels against their Python twins
# in ``tests/test_louvain_level.py`` and ``tests/test_clustering_c.py``.

# Generation-engine dispatchers (a string ``engine=`` parameter): none, one
# engine produces every trace.  A reintroduced switch must register its
# distribution-equivalence test here (RPL005 flags it otherwise), and
# ``tests/test_devtools_lint.py`` checks each referenced test exists.
ENGINE_EQUIVALENCE_TEST_FILE = "tests/test_gen_fast.py"

ENGINE_EQUIVALENCE_COVERED: dict[str, str] = {}

# Dispatcher qualname -> why it needs no parity test of its own.
PARITY_EXEMPT: dict[str, str] = {}
