"""Per-module facts and lightweight intraprocedural dataflow for the rules.

The facts every rule reads are computed here and cached on
:class:`repro.devtools.engine.ModuleInfo`, once per module per run: the
import table (:func:`import_table`), the scope list (:class:`Scope`, the
module body plus every function body), the per-statement dtype
environments (:func:`scope_statements`) and the pool submissions
(:func:`pool_submissions`).  Two analyses build on them:

* **dtype flow** (:class:`DtypeEnv`) — a per-scope fixpoint that tracks
  the numpy dtype of local names through assignments, ``np.*``
  constructors, ``astype`` casts, arithmetic promotion, and calls to
  sibling functions whose return annotation uses the
  ``repro.util.arrays`` aliases (:func:`alias_summaries`).  The model is
  deliberately conservative: a name with conflicting or unanalyzable
  bindings infers to ``None`` (unknown), and rules must treat unknown as
  "cannot prove safe" or "cannot prove unsafe" depending on their
  polarity.
* **binding flow** (:func:`name_bindings`) — the shallow map from local
  names to the expressions assigned to them, used by the parallel-safety
  rules to resolve what actually reaches a process pool.

Dtypes are canonical numpy names (``"uint16"``, ``"int64"``, ...) plus
the pseudo-dtypes ``"pyint"``/``"pyfloat"``/``"pybool"`` for plain Python
scalars, which have arbitrary precision and therefore never overflow.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "ARRAY_ALIAS_DTYPES",
    "DtypeEnv",
    "Guard",
    "Scope",
    "Statement",
    "Submission",
    "alias_summaries",
    "aliases",
    "collect_guards",
    "dotted_name",
    "dtype_from_node",
    "guarded",
    "import_table",
    "is_64bit",
    "is_narrow_int",
    "is_numpy_int",
    "itemsize",
    "name_bindings",
    "names_in",
    "pool_submissions",
    "scope_list",
    "scope_statements",
    "walk_shallow",
]

# -- dtype lattice ------------------------------------------------------

_INT_SIZES = {
    "int8": 1, "int16": 2, "int32": 4, "int64": 8,
    "uint8": 1, "uint16": 2, "uint32": 4, "uint64": 8,
}
_FLOAT_SIZES = {"float32": 4, "float64": 8}
_PY_SCALARS = {"pyint", "pyfloat", "pybool"}

#: Integer dtypes narrower than 8 bytes — the overflow hazard class.
NARROW_INTS = frozenset(d for d, size in _INT_SIZES.items() if size < 8)

# One-letter numpy kind codes -> canonical names, for "<u2"-style strings.
_KIND_SIZES = {"i": "int", "u": "uint", "f": "float"}

# Spelled-out dtype tokens accepted in string literals and np attributes.
_DTYPE_TOKENS = {
    **{name: name for name in _INT_SIZES},
    **{name: name for name in _FLOAT_SIZES},
    "bool": "bool", "bool_": "bool",
    "intp": "int64", "int_": "int64", "longlong": "int64",
    "single": "float32", "double": "float64", "float_": "float64",
    "byte": "int8", "short": "int16", "ubyte": "uint8", "ushort": "uint16",
}


def is_narrow_int(dtype: str | None) -> bool:
    """An integer dtype that can silently wrap at paper scale."""
    return dtype in NARROW_INTS


def is_numpy_int(dtype: str | None) -> bool:
    return dtype in _INT_SIZES


def is_64bit(dtype: str | None) -> bool:
    """A dtype wide enough that accumulation cannot lose width."""
    return dtype in {"int64", "uint64", "float64"}


def itemsize(dtype: str | None) -> int | None:
    if dtype in _INT_SIZES:
        return _INT_SIZES[dtype]
    if dtype in _FLOAT_SIZES:
        return _FLOAT_SIZES[dtype]
    return None


def _parse_dtype_string(text: str) -> str | None:
    """Canonicalize a dtype string literal (``"uint16"``, ``"<u2"``, ``"i8"``)."""
    token = text.strip().lstrip("<>=|")
    if token in _DTYPE_TOKENS:
        return _DTYPE_TOKENS[token]
    if len(token) == 2 and token[0] in _KIND_SIZES and token[1].isdigit():
        return f"{_KIND_SIZES[token[0]]}{8 * int(token[1])}"
    return None


# -- module facts: imports and scopes ----------------------------------

#: ``repro.util.arrays`` alias -> element dtype (``IntArray`` -> ``int64``).
ARRAY_ALIAS_DTYPES = {
    "repro.util.arrays.IntArray": "int64",
    "repro.util.arrays.FloatArray": "float64",
    "repro.util.arrays.BoolArray": "bool",
    "repro.util.arrays.UIntArray": "uint64",
    "repro.util.arrays.UInt16Array": "uint16",
}


def import_table(nodes: Iterable[ast.AST]) -> dict[str, str]:
    """Local name -> dotted origin for every import among ``nodes``.

    ``import numpy as np`` maps ``np`` to ``numpy``; ``from time import
    time as now`` maps ``now`` to ``time.time``.  ``import os.path``
    maps the dotted name ``os.path`` itself, so the bare name ``os`` is
    not taken as the ``os`` module.  A relative import keeps its leading
    dots.  When two imports bind one name, the later one in ``nodes``
    wins.
    """
    table: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for item in node.names:
                table[item.asname or item.name] = item.name
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            base = "." * node.level + node.module
            for item in node.names:
                table[item.asname or item.name] = f"{base}.{item.name}"
    return table


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of attributes on a bare name, else ``None``.

    The result is the key :func:`import_table` gives ``import a.b.c``.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def aliases(imports: dict[str, str], origin: str) -> set[str]:
    """Local names the import table binds to ``origin``."""
    return {name for name, source in imports.items() if source == origin}


class Scope:
    """The module body or one function body, with its nodes walked once.

    ``nodes`` is :func:`walk_shallow` of the body: nested function and
    lambda nodes appear but their bodies belong to their own scopes.
    """

    __slots__ = ("node", "nodes")

    def __init__(self, node: ast.Module | ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.node = node
        self.nodes = list(walk_shallow(node.body))


def scope_list(tree: ast.Module, nodes: Iterable[ast.AST]) -> list[Scope]:
    """The module scope, then every function in ``nodes`` order."""
    functions = (n for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return [Scope(tree), *map(Scope, functions)]


def alias_summaries(scopes: list[Scope], alias_dtypes: dict[str, str]) -> dict[str, str]:
    """Per-function dtype summaries from ``repro.util.arrays`` annotations.

    A module-level (or method) ``def f(...) -> IntArray`` contributes
    ``{"f": "int64"}``; calls to ``f`` then carry a known dtype without
    interprocedural analysis.  Methods are summarized by bare name, which
    is deliberately coarse: two same-named methods with different alias
    returns would collide, so only agreeing summaries are kept.
    ``alias_dtypes`` maps the module's local alias names to dtypes.
    """
    summaries: dict[str, str] = {}
    dropped: set[str] = set()
    for scope in scopes:
        node = scope.node
        if isinstance(node, ast.Module):
            continue
        returns = node.returns
        if isinstance(returns, ast.Name) and returns.id in alias_dtypes:
            dtype = alias_dtypes[returns.id]
            if summaries.get(node.name, dtype) != dtype:
                dropped.add(node.name)
            summaries[node.name] = dtype
    for name in dropped:
        del summaries[name]
    return summaries


def dtype_from_node(node: ast.expr | None, np_names: set[str]) -> str | None:
    """Parse a dtype *expression* (the value of a ``dtype=`` argument)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _parse_dtype_string(node.value)
    if isinstance(node, ast.Attribute):
        base = node.value
        if isinstance(base, ast.Name) and base.id in np_names:
            return _DTYPE_TOKENS.get(node.attr)
        return None
    if isinstance(node, ast.Name):
        return {"int": "int64", "float": "float64", "bool": "bool"}.get(node.id)
    if isinstance(node, ast.Call):
        # np.dtype("<u2") and np.dtype(np.uint16)
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "dtype"
            and isinstance(func.value, ast.Name)
            and func.value.id in np_names
            and node.args
        ):
            return dtype_from_node(node.args[0], np_names)
    return None


# -- scope walking ------------------------------------------------------


def walk_shallow(body: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Walk nodes without descending into nested function or lambda scopes."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # nested scope: analyzed separately
        stack.extend(ast.iter_child_nodes(node))


def names_in(node: ast.AST) -> frozenset[str]:
    """Every ``Name`` identifier occurring anywhere under ``node``."""
    return frozenset(
        child.id for child in ast.walk(node) if isinstance(child, ast.Name)
    )


def name_bindings(scope: Scope) -> dict[str, list[ast.expr]]:
    """Map of local name -> every expression assigned to it in ``scope``.

    Covers plain assignments and ``with ... as name`` (the expression is
    the context manager).  Tuple-unpacking targets are not resolved —
    callers treat unpacked names as unknown.
    """
    bindings: dict[str, list[ast.expr]] = {}
    for node in scope.nodes:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bindings.setdefault(target.id, []).append(node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                bindings.setdefault(node.target.id, []).append(node.value)
        elif isinstance(node, ast.withitem):
            if isinstance(node.optional_vars, ast.Name):
                bindings.setdefault(node.optional_vars.id, []).append(
                    node.context_expr
                )
    return bindings


# -- bounds guards ------------------------------------------------------


Guard = tuple[int, frozenset[str]]


def collect_guards(scope: Scope) -> list[Guard]:
    """``(line, names-under-test)`` for every ``if``/``assert`` in the scope.

    The dtype rules treat a preceding conditional that mentions one of
    the flagged statement's names as an explicit bounds guard.  This is a
    *syntactic* contract — the analysis does not prove the predicate is
    the right one, only that the author wrote a range check at all.
    """
    guards: list[Guard] = []
    for node in scope.nodes:
        if isinstance(node, (ast.If, ast.Assert)):
            guards.append((node.lineno, names_in(node.test)))
    return guards


def guarded(stmt: ast.stmt, guards: list[Guard]) -> bool:
    """Is ``stmt`` preceded by a guard naming any of its operands?"""
    stmt_names = names_in(stmt)
    return any(
        line < stmt.lineno and names & stmt_names for line, names in guards
    )


# -- dtype environment --------------------------------------------------

# np.* constructors whose result dtype is the dtype= argument (or a
# well-known default).
_FLOAT_DEFAULT_CTORS = frozenset({"zeros", "ones", "empty", "linspace"})
_DTYPE_CTORS = _FLOAT_DEFAULT_CTORS | frozenset(
    {"full", "arange", "asarray", "array", "fromiter", "asanyarray"}
)
# np.* element-wise functions that follow binary promotion.
_PROMOTING_FUNCS = frozenset({"minimum", "maximum", "add", "multiply", "subtract"})
# np.* reductions whose dtype= argument fixes the accumulator.
_REDUCTIONS = frozenset({"cumsum", "cumprod", "prod", "sum"})
# Constructors like np.int64(x) — scalar casts.
_SCALAR_CASTS = frozenset(_DTYPE_TOKENS)


def promote(left: str | None, right: str | None) -> str | None:
    """Binary dtype promotion, conservative: ``None`` when unsure."""
    if left is None or right is None:
        return None
    if left == right:
        return left
    if left in _PY_SCALARS and right in _PY_SCALARS:
        order = ["pybool", "pyint", "pyfloat"]
        return max(left, right, key=order.index)
    # NEP 50: a python scalar adopts the array operand's dtype.
    if left in _PY_SCALARS:
        return right if right not in _PY_SCALARS else None
    if right in _PY_SCALARS:
        return left
    if left in _FLOAT_SIZES or right in _FLOAT_SIZES:
        lf, rf = _FLOAT_SIZES.get(left), _FLOAT_SIZES.get(right)
        if lf is not None and rf is not None:
            return left if lf >= rf else right
        return None  # int/float mix: result width depends on the int
    if left in _INT_SIZES and right in _INT_SIZES:
        if left.startswith("u") != right.startswith("u"):
            return None  # signed/unsigned mix promotes unpredictably
        return left if _INT_SIZES[left] >= _INT_SIZES[right] else right
    return None


class DtypeEnv:
    """Dtypes of local names in one scope, inferred to a fixpoint.

    A name assigned expressions with conflicting dtypes — or any
    expression the model cannot type — infers to unknown (``None``),
    never to a guess.
    """

    def __init__(
        self,
        scope: Scope,
        np_names: set[str],
        summaries: dict[str, str],
        alias_dtypes: dict[str, str],
    ) -> None:
        """Infer ``scope``, seeding parameters annotated with an alias."""
        self.np_names = np_names
        self.summaries = summaries
        self._env: dict[str, str | None] = {}
        node = scope.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                annotation = arg.annotation
                if isinstance(annotation, ast.Name) and annotation.id in alias_dtypes:
                    self._env[arg.arg] = alias_dtypes[annotation.id]
        self._infer(scope)

    def _infer(self, scope: Scope) -> None:
        assignments: list[tuple[str, ast.expr]] = []
        for node in scope.nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                if isinstance(node.targets[0], ast.Name):
                    assignments.append((node.targets[0].id, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    assignments.append((node.target.id, node.value))
        for _ in range(4):  # few rounds reach fixpoint on real code
            changed = False
            for name, value in assignments:
                dtype = self.dtype_of(value)
                if name in self._env and self._env[name] != dtype:
                    # Conflicting bindings: degrade to unknown, once.
                    if self._env[name] is not None:
                        self._env[name] = None
                        changed = True
                elif name not in self._env:
                    self._env[name] = dtype
                    changed = True
            if not changed:
                return

    def dtype_of(self, node: ast.expr) -> str | None:
        """The inferred dtype of an expression, or ``None`` (unknown)."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return "pybool"
            if isinstance(node.value, int):
                return "pyint"
            if isinstance(node.value, float):
                return "pyfloat"
            return None
        if isinstance(node, ast.Name):
            return self._env.get(node.id)
        if isinstance(node, ast.BinOp):
            return promote(self.dtype_of(node.left), self.dtype_of(node.right))
        if isinstance(node, ast.UnaryOp):
            inner = self.dtype_of(node.operand)
            return "pybool" if isinstance(node.op, ast.Not) else inner
        if isinstance(node, ast.Compare):
            return "bool"
        if isinstance(node, ast.IfExp):
            return promote(self.dtype_of(node.body), self.dtype_of(node.orelse))
        if isinstance(node, ast.Subscript):
            # Slicing/indexing an array preserves its element dtype;
            # python containers fall out as None via their own dtype.
            base = self.dtype_of(node.value)
            return base if base not in _PY_SCALARS else None
        if isinstance(node, ast.Call):
            return self._dtype_of_call(node)
        return None

    def _dtype_of_call(self, node: ast.Call) -> str | None:
        func = node.func
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        if isinstance(func, ast.Attribute):
            # x.astype(D) — an explicit cast fixes the dtype.
            if func.attr == "astype" and node.args:
                return dtype_from_node(node.args[0], self.np_names)
            if func.attr in _REDUCTIONS and "dtype" in kwargs:
                return dtype_from_node(kwargs["dtype"], self.np_names)
            if func.attr == "copy" and not node.args:
                return self.dtype_of(func.value)
            if isinstance(func.value, ast.Name) and func.value.id in self.np_names:
                return self._dtype_of_np_call(func.attr, node, kwargs)
            return None
        if isinstance(func, ast.Name):
            if func.id in ("int", "len", "round"):
                return "pyint"
            if func.id == "float":
                return "pyfloat"
            if func.id == "bool":
                return "pybool"
            return self.summaries.get(func.id)
        return None

    def _dtype_of_np_call(
        self, attr: str, node: ast.Call, kwargs: dict[str, ast.expr]
    ) -> str | None:
        if attr in _SCALAR_CASTS:
            return _DTYPE_TOKENS[attr]
        if "dtype" in kwargs and (attr in _DTYPE_CTORS or attr in _REDUCTIONS):
            return dtype_from_node(kwargs["dtype"], self.np_names)
        if attr in _FLOAT_DEFAULT_CTORS:
            return "float64"
        if attr in _PROMOTING_FUNCS and len(node.args) >= 2:
            return promote(self.dtype_of(node.args[0]), self.dtype_of(node.args[1]))
        if attr == "where" and len(node.args) == 3:
            return promote(self.dtype_of(node.args[1]), self.dtype_of(node.args[2]))
        if attr in ("sort", "concatenate", "ascontiguousarray", "abs", "copy"):
            inner = node.args[0] if node.args else None
            if isinstance(inner, (ast.Tuple, ast.List)) and inner.elts:
                first = self.dtype_of(inner.elts[0])
                if all(self.dtype_of(e) == first for e in inner.elts):
                    return first
                return None
            return self.dtype_of(inner) if inner is not None else None
        if attr in ("repeat", "cumsum") and node.args and "dtype" not in kwargs:
            # Without dtype= the accumulator is platform-defined for
            # narrow ints; only a 64-bit input is width-stable.
            inner = self.dtype_of(node.args[0])
            return inner if is_64bit(inner) else None
        return None


# -- per-module facts the rule families share ---------------------------


class Statement(NamedTuple):
    """One statement of a scope, with what the RPL02x rules check it against."""

    env: DtypeEnv
    guards: list[Guard]
    stmt: ast.stmt
    #: The expression nodes that belong to ``stmt`` itself (not to a child
    #: statement), so each expression of a scope appears exactly once.
    exprs: list[ast.AST]


def _own_expressions(stmt: ast.stmt) -> list[ast.AST]:
    direct: list[ast.AST] = []
    for _field, value in ast.iter_fields(stmt):
        values = value if isinstance(value, list) else [value]
        direct.extend(v for v in values if isinstance(v, ast.expr))
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        direct.extend(item.context_expr for item in stmt.items)
    return list(walk_shallow(direct))


def scope_statements(scopes: list[Scope], imports: dict[str, str]) -> list[Statement]:
    """Every statement of every scope, with its dtype env and guards."""
    np_names = aliases(imports, "numpy")
    alias_dtypes = {
        name: ARRAY_ALIAS_DTYPES[origin]
        for name, origin in imports.items()
        if origin in ARRAY_ALIAS_DTYPES
    }
    summaries = alias_summaries(scopes, alias_dtypes)
    statements: list[Statement] = []
    for scope in scopes:
        env = DtypeEnv(scope, np_names, summaries, alias_dtypes)
        guards = collect_guards(scope)
        statements.extend(
            Statement(env, guards, node, _own_expressions(node))
            for node in scope.nodes
            if isinstance(node, ast.stmt)
        )
    return statements


@dataclass(frozen=True)
class Submission:
    """One callable reaching a pool: a submit/map target or initializer."""

    callable: ast.expr
    line: int
    col: int
    role: str  # "submit", "map", or "initializer"
    scope: Scope


def _is_executor_call(node: ast.expr, executor_names: set[str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in executor_names
    # concurrent.futures.ProcessPoolExecutor(...)
    return isinstance(func, ast.Attribute) and func.attr == "ProcessPoolExecutor"


def _scope_submissions(scope: Scope, executor_names: set[str]) -> Iterator[Submission]:
    """Callables shipped to a pool within one scope.

    Pools are recognized as direct ``ProcessPoolExecutor(...)`` calls,
    names assigned from one, and ``with ProcessPoolExecutor(...) as p``.
    ``initializer=`` is also recognized inside dict literals that carry a
    literal ``"initializer"`` key (the ``**pool_kwargs`` idiom).
    """
    pool_names = {
        name
        for name, values in name_bindings(scope).items()
        if any(_is_executor_call(v, executor_names) for v in values)
    }
    for node in scope.nodes:
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("submit", "map")
                and node.args
            ):
                receiver = func.value
                is_pool = (
                    isinstance(receiver, ast.Name) and receiver.id in pool_names
                ) or _is_executor_call(receiver, executor_names)
                if is_pool:
                    target = node.args[0]
                    yield Submission(
                        target, target.lineno, target.col_offset, func.attr, scope
                    )
            if _is_executor_call(node, executor_names):
                for kw in node.keywords:
                    if kw.arg == "initializer":
                        yield Submission(
                            kw.value, kw.value.lineno, kw.value.col_offset,
                            "initializer", scope,
                        )
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "initializer"
                    and value is not None
                ):
                    yield Submission(
                        value, value.lineno, value.col_offset, "initializer", scope
                    )


def pool_submissions(
    nodes: list[ast.AST], scopes: list[Scope], imports: dict[str, str]
) -> list[Submission]:
    """Every callable the module ships to a ``ProcessPoolExecutor``."""
    executor_names = aliases(imports, "concurrent.futures.ProcessPoolExecutor")
    uses_executor = bool(executor_names) or any(
        isinstance(n, ast.Attribute) and n.attr == "ProcessPoolExecutor" for n in nodes
    )
    if not uses_executor:
        return []
    return [sub for scope in scopes for sub in _scope_submissions(scope, executor_names)]
