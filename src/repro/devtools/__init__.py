"""Static analysis enforcing the repo's determinism and layering contracts.

The dynamic guarantees of the kernel and runtime layers — bit-identical
serial/parallel replay, exact kernel/reference parity — only hold because every
hot path avoids unordered iteration, global RNG, and order-sensitive float
accumulation.  This subpackage checks those invariants *statically*:

* :mod:`~repro.devtools.engine` — the rule-engine core: module discovery,
  AST-based file and project rules, ``# repro: noqa[RPL00x]`` suppressions
  (justification required), select/ignore filtering;
* :mod:`~repro.devtools.rules_determinism` — rules RPL001-RPL005
  (unordered iteration, global RNG, unordered accumulation, wall-clock in
  pure code, unregistered backend dispatchers);
* :mod:`~repro.devtools.rules_layering` — rule RPL010, the import-graph
  layering contract ``util → kernels → graph → {metrics, edges, pa,
  community, osnmerge} → runtime → cli``, plus a DOT dump for docs;
* :mod:`~repro.devtools.parity` — the parity-test manifest RPL005 checks
  backend dispatchers against;
* :mod:`~repro.devtools.baseline` — warn-only baselines for incremental
  rule rollout;
* :mod:`~repro.devtools.lint` — the CLI (``repro lint`` /
  ``python -m repro.devtools.lint``).

This package deliberately imports nothing from the rest of ``repro`` (it
sits at the bottom of the layer contract, beside ``util``): the analyzer
must be loadable even when the code it inspects is broken.
"""

from repro.devtools.diagnostics import Diagnostic
from repro.devtools.engine import LintResult, discover_modules, run_rules

__all__ = [
    "Diagnostic",
    "LintResult",
    "discover_modules",
    "main",
    "run_rules",
]


def __getattr__(name: str) -> object:
    # Lazy so ``python -m repro.devtools.lint`` does not trigger runpy's
    # found-in-sys.modules warning by importing lint during package init.
    if name == "main":
        from repro.devtools.lint import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
