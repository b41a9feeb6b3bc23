"""Parallel-safety rules (RPL03x): fork/pickle/async contracts.

The runtime ships work to :class:`~concurrent.futures.ProcessPoolExecutor`
pools whose behavior differs between ``fork`` (globals inherited
copy-on-write) and ``spawn`` (everything pickled, module re-imported).
Code that happens to work under fork breaks under spawn — on macOS,
Windows, or any future sandboxed runner — and breaks *in a worker*,
where the traceback is least helpful.  These rules enforce the contracts
statically:

* RPL030 — lambdas/closures/local functions submitted to a pool (they
  cannot be pickled under spawn);
* RPL031 — worker callables missing from the pickle-whitelist manifest
  (:data:`repro.devtools.workers.WORKER_MANIFEST`);
* RPL032 — worker-side reads of mutable module globals that no pool
  initializer installs (a stale/default value under spawn);
* RPL033 — blocking calls inside ``async def`` (landing before
  ``repro serve`` exists, so the service starts with the contract
  enforced).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.dataflow import Scope, Submission, dotted_name, name_bindings, walk_shallow
from repro.devtools.engine import FileRule, ModuleInfo
from repro.devtools.workers import WORKER_EXEMPT, WORKER_MANIFEST

__all__ = [
    "BlockingAsyncRule",
    "PoolCallableRule",
    "WorkerGlobalsRule",
    "WorkerManifestRule",
    "parallel_rules",
]


def _module_functions(tree: ast.Module) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _local_defs(scope: Scope) -> set[str]:
    """Functions defined *inside* this scope (not at module level)."""
    return {
        node.name
        for node in scope.nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _resolve_callable(
    sub: Submission,
    module_fns: dict[str, ast.FunctionDef | ast.AsyncFunctionDef],
) -> list[str] | None:
    """Module-level function names ``sub`` can refer to, or ``None``.

    Resolution follows one level of local name bindings (the
    ``run = _run_window`` idiom); anything else — attributes, calls,
    imported names — is unresolvable and left to RPL031's conservative
    finding.
    """
    node = sub.callable
    if isinstance(node, ast.Name):
        if node.id in module_fns:
            return [node.id]
        values = name_bindings(sub.scope).get(node.id)
        if values and all(
            isinstance(v, ast.Name) and v.id in module_fns for v in values
        ):
            return [v.id for v in values if isinstance(v, ast.Name)]
    return None


class PoolCallableRule(FileRule):
    """RPL030: lambdas and local functions cannot cross a spawn boundary."""

    code = "RPL030"
    name = "pool-callable"
    summary = (
        "lambda/closure/local function submitted to a process pool; only "
        "module-level functions pickle under the spawn start method"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        for sub in module.submissions:
            node = sub.callable
            if isinstance(node, ast.Lambda):
                yield (
                    sub.line,
                    sub.col,
                    f"lambda passed as a pool {sub.role} target cannot be "
                    "pickled under spawn; hoist it to a module-level function",
                )
            elif isinstance(node, ast.Name):
                local = _local_defs(sub.scope) - set(_module_functions(module.tree))
                if node.id in local:
                    yield (
                        sub.line,
                        sub.col,
                        f"local function {node.id!r} passed as a pool "
                        f"{sub.role} target closes over its defining frame "
                        "and cannot be pickled under spawn; move it to "
                        "module level",
                    )
                else:
                    bindings = name_bindings(sub.scope).get(node.id, [])
                    if any(isinstance(v, ast.Lambda) for v in bindings):
                        yield (
                            sub.line,
                            sub.col,
                            f"{node.id!r} is bound to a lambda before being "
                            f"passed as a pool {sub.role} target; lambdas "
                            "cannot be pickled under spawn",
                        )


class WorkerManifestRule(FileRule):
    """RPL031: worker callables must be in the pickle-whitelist manifest."""

    code = "RPL031"
    name = "worker-manifest"
    summary = (
        "process-pool worker callable missing from "
        "repro.devtools.workers.WORKER_MANIFEST (the pickle whitelist)"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        module_fns = _module_functions(module.tree)
        for sub in module.submissions:
            node = sub.callable
            if isinstance(node, ast.Lambda):
                continue  # RPL030 already rejects it
            resolved = _resolve_callable(sub, module_fns)
            if resolved is None:
                if isinstance(node, ast.Name) and node.id in _local_defs(sub.scope):
                    continue  # RPL030 already rejects local defs
                yield (
                    sub.line,
                    sub.col,
                    f"cannot statically resolve the pool {sub.role} target; "
                    "submit a module-level function registered in "
                    "repro.devtools.workers.WORKER_MANIFEST",
                )
                continue
            for name in resolved:
                qualname = f"{module.module}.{name}"
                if qualname in WORKER_MANIFEST or qualname in WORKER_EXEMPT:
                    continue
                yield (
                    sub.line,
                    sub.col,
                    f"worker callable {qualname} is not registered in "
                    "repro.devtools.workers.WORKER_MANIFEST; declare its "
                    "payload types (or add a justified WORKER_EXEMPT entry)",
                )


def _global_statement_names(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    return {
        name
        for node in ast.walk(fn)
        if isinstance(node, ast.Global)
        for name in node.names
    }


class WorkerGlobalsRule(FileRule):
    """RPL032: worker-side reads of globals no initializer installs."""

    code = "RPL032"
    name = "worker-globals"
    summary = (
        "worker-side function reads a mutable module global that no pool "
        "initializer installs; under spawn the worker sees a stale default"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        tree = module.tree
        module_fns = _module_functions(tree)
        worker_fns: set[str] = set()
        initializer_fns: set[str] = set()
        for sub in module.submissions:
            resolved = _resolve_callable(sub, module_fns) or []
            if sub.role == "initializer":
                initializer_fns.update(resolved)
            else:
                worker_fns.update(resolved)
        if not worker_fns:
            return
        module_globals = {
            target.id
            for node in tree.body
            for target in (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
                if isinstance(node, ast.AnnAssign)
                else []
            )
            if isinstance(target, ast.Name)
        }
        mutated = {
            name
            for fn in module_fns.values()
            for name in _global_statement_names(fn)
        }
        installed = {
            name
            for fn_name in initializer_fns
            for name in _global_statement_names(module_fns[fn_name])
        }
        hazardous = (module_globals & mutated) - installed
        if not hazardous:
            return
        for fn_name in sorted(worker_fns):
            fn = module_fns[fn_name]
            local = {
                arg.arg
                for arg in [
                    *fn.args.posonlyargs,
                    *fn.args.args,
                    *fn.args.kwonlyargs,
                ]
            } | {
                t.id
                for node in walk_shallow(fn.body)
                if isinstance(node, ast.Assign)
                for t in node.targets
                if isinstance(t, ast.Name)
            }
            for node in walk_shallow(fn.body):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in hazardous
                    and node.id not in local
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"worker function {fn_name!r} reads module global "
                        f"{node.id!r}, which is reassigned at runtime but "
                        "installed by no pool initializer; under spawn the "
                        "worker sees the import-time default",
                    )


class BlockingAsyncRule(FileRule):
    """RPL033: blocking calls stall the event loop inside ``async def``."""

    code = "RPL033"
    name = "blocking-in-async"
    summary = (
        "blocking call inside 'async def'; use the asyncio equivalent or "
        "run_in_executor"
    )

    #: module -> attribute names that block the calling thread.
    _BLOCKING_ATTRS = {
        "time": {"sleep"},
        "os": {"system", "popen"},
        "subprocess": {"run", "call", "check_call", "check_output", "Popen"},
        "socket": {"socket", "create_connection"},
        "urllib.request": {"urlopen"},
    }
    _BLOCKING_BUILTINS = frozenset({"open", "input"})

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        imports = module.imports
        for scope in module.scopes:
            if not isinstance(scope.node, ast.AsyncFunctionDef):
                continue
            for node in scope.nodes:
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    name = func.id
                    source, _, attr = imports.get(name, "").rpartition(".")
                elif isinstance(func, ast.Attribute) and (receiver := dotted_name(func.value)):
                    name = f"{receiver}.{func.attr}"
                    source, attr = imports.get(receiver, ""), func.attr
                else:
                    continue
                if name in self._BLOCKING_BUILTINS or attr in self._BLOCKING_ATTRS.get(
                    source, ()
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"blocking call {name}() inside 'async def' stalls "
                        "the event loop; await the asyncio equivalent or "
                        "push it through run_in_executor",
                    )


def parallel_rules() -> list[FileRule]:
    """The RPL03x family in code order."""
    return [
        PoolCallableRule(),
        WorkerManifestRule(),
        WorkerGlobalsRule(),
        BlockingAsyncRule(),
    ]
