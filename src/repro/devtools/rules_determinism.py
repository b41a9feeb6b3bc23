"""Determinism rules RPL001-RPL005.

These encode, as syntax checks, the invariants the dynamic parity suites
(`tests/test_kernels_parity.py`, `tests/test_runtime.py`) rely on: no
unordered iteration, no global RNG, no order-sensitive accumulation over
unordered collections, no wall-clock reads in pure analysis code, and no
``backend=`` dispatcher outside the parity-test manifest.

Set-typedness is inferred conservatively from syntax: literals,
``set()``/``frozenset()`` calls, set operators/methods on known sets,
names only ever assigned set expressions, and the repo's two adjacency
idioms (``<x>.adjacency[u]`` subscripts and ``.neighbors(...)`` calls
yield neighbor *sets*; ``<x>.adjacency.items()/.values()`` yield them as
loop targets).  Plain dict iteration is insertion-ordered in Python and
is deliberately *not* flagged — the reference implementations depend on
it for parity with the CSR kernels.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.dataflow import Scope, aliases
from repro.devtools.engine import FileRule, ModuleInfo
from repro.devtools.parity import (
    ENGINE_EQUIVALENCE_COVERED,
    PARITY_COVERED,
    PARITY_EXEMPT,
)

__all__ = [
    "GlobalRNGRule",
    "ParityManifestRule",
    "SetIterationRule",
    "UnorderedAccumulationRule",
    "WALL_CLOCK_EXEMPT",
    "WallClockRule",
    "determinism_rules",
]

#: Packages whose results must be bit-reproducible across runs/processes.
DETERMINISM_PACKAGES = frozenset(
    {"metrics", "kernels", "community", "graph", "runtime", "store"}
)

#: Packages that must be pure functions of their inputs (RPL004): the
#: determinism set plus every other analysis-side library layer.  The
#: runtime is included — its span and histogram timings come from the
#: observability layer's clock, never from a direct stdlib read.
PURE_PACKAGES = DETERMINISM_PACKAGES | frozenset(
    {"edges", "pa", "osnmerge", "util", "gen", "ml"}
)

#: The sole RPL004-exempt wall-clock site.  ``repro.obs`` owns the
#: monotonic clock (``repro.obs.recorder``): spans read it internally and
#: pure packages that need wall-time *metadata* import
#: ``repro.obs.perf_counter`` instead of the stdlib.  Kept disjoint from
#: :data:`PURE_PACKAGES` by construction; the engine never even runs the
#: rule there.  Anything else that reads the clock — including new
#: packages added without a LAYERS/PURE_PACKAGES decision — must carry a
#: justified ``# repro: noqa[RPL004]`` or move its timing into obs.
WALL_CLOCK_EXEMPT = frozenset({"obs"})
assert not (WALL_CLOCK_EXEMPT & PURE_PACKAGES), "the exemption must stay exclusive"

_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

# numpy.random attributes that are part of the seeded-Generator API (fine)
# rather than the legacy global-state API (flagged).
_NP_RANDOM_OK = frozenset(
    {
        "Generator",
        "default_rng",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "thread_time",
        "thread_time_ns",
        "localtime",
        "gmtime",
        "ctime",
    }
)
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})


class _SetTypes:
    """Set-typed-name inference for one scope."""

    def __init__(self, scope: Scope) -> None:
        self.nodes = scope.nodes
        self.set_names: set[str] = set()
        self._infer()

    def _infer(self) -> None:
        # Fixpoint over simple assignments plus the adjacency loop-target
        # idiom; names with any non-set binding never qualify.
        assignments: dict[str, list[ast.expr | None]] = {}
        for node in self.nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assignments.setdefault(target.id, []).append(node.value)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                assignments.setdefault(node.target.id, []).append(node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._loop_targets(node, assignments)
            elif isinstance(node, (ast.AugAssign,)) and isinstance(
                node.target, ast.Name
            ):
                assignments.setdefault(node.target.id, []).append(None)
        for _ in range(3):  # chains of aliases are short; 3 rounds suffice
            changed = False
            for name, values in assignments.items():
                if name in self.set_names:
                    continue
                if values and all(
                    value is not None and self.is_set(value) for value in values
                ):
                    self.set_names.add(name)
                    changed = True
            if not changed:
                break

    def _loop_targets(
        self,
        node: ast.For | ast.AsyncFor,
        assignments: dict[str, list[ast.expr | None]],
    ) -> None:
        """Propagate set-typedness through ``for _, nbrs in x.adjacency.items()``."""
        values_of_adjacency = _is_adjacency_view(node.iter, {"values"})
        items_of_adjacency = _is_adjacency_view(node.iter, {"items"})
        if values_of_adjacency and isinstance(node.target, ast.Name):
            assignments.setdefault(node.target.id, []).append(
                ast.Set(elts=[])  # marker: provably a set
            )
        elif (
            items_of_adjacency
            and isinstance(node.target, ast.Tuple)
            and len(node.target.elts) == 2
            and isinstance(node.target.elts[1], ast.Name)
        ):
            assignments.setdefault(node.target.elts[1].id, []).append(
                ast.Set(elts=[])
            )
        else:
            # Any other loop target binding shadows prior inference.
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    assignments.setdefault(sub.id, []).append(None)

    def is_set(self, node: ast.expr) -> bool:
        """Conservative: ``True`` only when ``node`` is provably a set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.IfExp):
            return self.is_set(node.body) and self.is_set(node.orelse)
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return self.is_set(node.left) or self.is_set(node.right)
        if isinstance(node, ast.Subscript):
            return _is_adjacency_expr(node.value)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute):
                if func.attr == "neighbors":
                    return True
                if func.attr in _SET_METHODS and self.is_set(func.value):
                    return True
                if func.attr == "copy" and self.is_set(func.value):
                    return True
        return False


def _is_adjacency_expr(node: ast.expr) -> bool:
    """Whether ``node`` names an adjacency dict (``x.adjacency`` or ``adjacency``)."""
    return (isinstance(node, ast.Attribute) and node.attr == "adjacency") or (
        isinstance(node, ast.Name) and node.id == "adjacency"
    )


def _is_adjacency_view(node: ast.expr, views: set[str]) -> bool:
    """Whether ``node`` is ``<adjacency>.<view>()`` for a view in ``views``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in views
        and _is_adjacency_expr(node.func.value)
    )


class SetIterationRule(FileRule):
    """RPL001: order-sensitive iteration over a set."""

    code = "RPL001"
    name = "set-iteration"
    summary = (
        "iteration over an unordered set in a determinism-sensitive module; "
        "wrap the iterable in sorted(...)"
    )
    packages = DETERMINISM_PACKAGES

    _CONSUMERS = frozenset({"list", "tuple", "enumerate"})

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        for scope in map(_SetTypes, module.scopes):
            for node in scope.nodes:
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    if scope.is_set(node.iter):
                        yield (
                            node.iter.lineno,
                            node.iter.col_offset,
                            "for-loop iterates a set; iteration order is "
                            "unspecified — use sorted(...)",
                        )
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
                ):
                    for gen in node.generators:
                        if scope.is_set(gen.iter):
                            yield (
                                gen.iter.lineno,
                                gen.iter.col_offset,
                                "comprehension iterates a set; iteration order "
                                "is unspecified — use sorted(...)",
                            )
                elif isinstance(node, ast.Call):
                    func = node.func
                    order_sensitive = (
                        isinstance(func, ast.Name) and func.id in self._CONSUMERS
                    ) or (isinstance(func, ast.Attribute) and func.attr == "fromiter")
                    if order_sensitive and node.args and scope.is_set(node.args[0]):
                        yield (
                            node.lineno,
                            node.col_offset,
                            "set converted to an ordered sequence; the result "
                            "order is unspecified — use sorted(...)",
                        )


class GlobalRNGRule(FileRule):
    """RPL002: global RNG instead of repro.util.rng seeded generators."""

    code = "RPL002"
    name = "global-rng"
    summary = (
        "global random state (random.* / legacy np.random.*) instead of a "
        "seeded generator from repro.util.rng"
    )
    packages = None  # randomness must be seeded everywhere

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        random_names = aliases(module.imports, "random")
        numpy_names = aliases(module.imports, "numpy")
        for node in module.nodes:
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    yield (
                        node.lineno,
                        node.col_offset,
                        "import from the stdlib 'random' module; use "
                        "repro.util.rng.make_rng(seed) instead",
                    )
                elif node.module == "numpy.random":
                    for item in node.names:
                        if item.name not in _NP_RANDOM_OK:
                            yield (
                                node.lineno,
                                node.col_offset,
                                f"import of legacy numpy.random.{item.name}; "
                                "use repro.util.rng.make_rng(seed) instead",
                            )
            elif isinstance(node, ast.Attribute):
                value = node.value
                if isinstance(value, ast.Name) and value.id in random_names:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"global stdlib RNG 'random.{node.attr}'; use "
                        "repro.util.rng.make_rng(seed) instead",
                    )
                elif (
                    isinstance(value, ast.Attribute)
                    and value.attr == "random"
                    and isinstance(value.value, ast.Name)
                    and value.value.id in numpy_names
                    and node.attr not in _NP_RANDOM_OK
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"legacy global numpy RNG 'np.random.{node.attr}'; use "
                        "repro.util.rng.make_rng(seed) instead",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "default_rng"
                    and not node.args
                    and not node.keywords
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        "default_rng() without a seed draws OS entropy; pass "
                        "an explicit seed (repro.util.rng.make_rng)",
                    )


class UnorderedAccumulationRule(FileRule):
    """RPL003: float accumulation whose order depends on a set."""

    code = "RPL003"
    name = "unordered-accumulation"
    summary = (
        "sum()/fsum() over an unordered set: float addition is not "
        "associative, so the result depends on hash order"
    )
    packages = DETERMINISM_PACKAGES

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        for scope in map(_SetTypes, module.scopes):
            for node in scope.nodes:
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                func = node.func
                is_acc = (isinstance(func, ast.Name) and func.id == "sum") or (
                    isinstance(func, ast.Attribute) and func.attr in ("fsum", "sum")
                )
                if not is_acc:
                    continue
                arg = node.args[0]
                unordered = scope.is_set(arg)
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                    unordered = any(
                        scope.is_set(gen.iter) for gen in arg.generators
                    )
                if unordered:
                    yield (
                        node.lineno,
                        node.col_offset,
                        "accumulation over a set; summation order is "
                        "unspecified — sort the operands first",
                    )


class WallClockRule(FileRule):
    """RPL004: wall-clock reads inside pure analysis code."""

    code = "RPL004"
    name = "wall-clock"
    summary = (
        "wall-clock read in pure analysis code; results must be a function "
        "of inputs only"
    )
    packages = PURE_PACKAGES

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        imports = module.imports
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                origin = imports.get(func.id, "")
                source, _, attr = origin.rpartition(".")
                if source == "time" and attr in _TIME_FUNCS:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"wall-clock call {origin}() in pure code",
                    )
            elif isinstance(func, ast.Attribute):
                value = func.value
                if isinstance(value, ast.Name):
                    origin = imports.get(value.id, "")
                    if origin == "time" and func.attr in _TIME_FUNCS:
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"wall-clock call time.{func.attr}() in pure code",
                        )
                    elif (
                        origin.startswith("datetime.")
                        and func.attr in _DATETIME_FUNCS
                    ):
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"wall-clock call datetime {value.id}.{func.attr}() "
                            "in pure code",
                        )
                elif (
                    isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and imports.get(value.value.id) == "datetime"
                    and value.attr in ("datetime", "date")
                    and func.attr in _DATETIME_FUNCS
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"wall-clock call datetime.{value.attr}.{func.attr}() "
                        "in pure code",
                    )


class ParityManifestRule(FileRule):
    """RPL005: every ``backend=`` / ``engine=`` dispatcher is in a manifest.

    ``backend=`` dispatchers need a bit-parity test (PARITY_COVERED);
    ``engine=`` string dispatchers (a parameter named ``engine`` with a
    string-literal default, like ``engine="legacy"``) need a
    distribution-equivalence test (ENGINE_EQUIVALENCE_COVERED).  Functions
    that take an engine *object* (no string default) are not dispatchers.
    """

    code = "RPL005"
    name = "parity-manifest"
    summary = (
        "backend/engine-dispatch function missing from the parity-test "
        "manifest (repro.devtools.parity)"
    )
    packages = None

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        yield from self._visit(module, module.tree.body, module.module)

    @staticmethod
    def _string_default_of(args: ast.arguments, name: str) -> bool:
        """Whether parameter ``name`` exists with a string-literal default."""
        positional = args.posonlyargs + args.args
        offset = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional):
            if arg.arg == name:
                default = args.defaults[i - offset] if i >= offset else None
                return isinstance(default, ast.Constant) and isinstance(default.value, str)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if arg.arg == name:
                return isinstance(default, ast.Constant) and isinstance(default.value, str)
        return False

    def _visit(
        self, module: ModuleInfo, body: list[ast.stmt], prefix: str
    ) -> Iterator[tuple[int, int, str]]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from self._visit(module, node.body, f"{prefix}.{node.name}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{node.name}"
                args = node.args
                names = {
                    a.arg for a in args.args + args.kwonlyargs + args.posonlyargs
                }
                if (
                    "backend" in names
                    and qualname not in PARITY_COVERED
                    and qualname not in PARITY_EXEMPT
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"'{qualname}' dispatches on backend= but is not in "
                        "the parity manifest; add a parity test and register "
                        "it in repro.devtools.parity (or record an exemption)",
                    )
                if (
                    self._string_default_of(args, "engine")
                    and qualname not in ENGINE_EQUIVALENCE_COVERED
                    and qualname not in PARITY_EXEMPT
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"'{qualname}' dispatches on engine= but is not in "
                        "the engine-equivalence manifest; add an equivalence "
                        "test and register it in repro.devtools.parity "
                        "(or record an exemption)",
                    )
                yield from self._visit(module, node.body, qualname)


def determinism_rules() -> list[FileRule]:
    """The determinism rule set, in code order."""
    return [
        SetIterationRule(),
        GlobalRNGRule(),
        UnorderedAccumulationRule(),
        WallClockRule(),
        ParityManifestRule(),
    ]
