"""Array-safety rules (RPL02x): dtype-width hazards at paper scale.

At the paper's full Renren scale (19.4M nodes, 199.6M edges) narrow
integer columns stop being "plenty of headroom": ``uint16`` origin codes,
``int32`` offsets, and 32-bit packing shifts all wrap *silently* under
numpy's modular arithmetic.  These rules use the dtype-flow layer in
:mod:`repro.devtools.dataflow` to reject the patterns that fail without
an exception:

* RPL020 — arithmetic (or a wide packing shift) on a narrow dtype;
* RPL021 — a downcast with no preceding bounds guard;
* RPL022 — ``np.prod``/``np.cumsum`` with a platform-defined accumulator;
* RPL023 — in-place mutation of arrays served by memmapped store readers.

A "bounds guard" is any earlier ``if``/``assert`` in the same scope whose
test mentions one of the flagged statement's names — a syntactic
contract, not a proof (see ``docs/static-analysis.md`` for the model's
limits).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.dataflow import (
    DtypeEnv,
    Scope,
    aliases,
    dtype_from_node,
    guarded,
    is_64bit,
    is_narrow_int,
    is_numpy_int,
    itemsize,
)
from repro.devtools.engine import FileRule, ModuleInfo

__all__ = [
    "DowncastWithoutGuardRule",
    "MemmapMutationRule",
    "NarrowArithmeticRule",
    "UnsizedAccumulatorRule",
    "array_rules",
]

#: Shift distances that consume a meaningful fraction of an int64.
_PACKING_SHIFT_BITS = 16

_OVERFLOW_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Pow)


class NarrowArithmeticRule(FileRule):
    """RPL020: narrow-dtype arithmetic (and packing shifts) can overflow."""

    code = "RPL020"
    name = "narrow-arithmetic"
    summary = (
        "arithmetic on a narrow integer dtype (or a wide packing shift) "
        "wraps silently at paper scale; widen to int64 or guard the range"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        for env, guards, stmt, exprs in module.statements:
            for node in exprs:
                if not isinstance(node, ast.BinOp):
                    continue
                left = env.dtype_of(node.left)
                right = env.dtype_of(node.right)
                if isinstance(node.op, (*_OVERFLOW_OPS, ast.LShift)):
                    narrow = next(
                        (d for d in (left, right) if is_narrow_int(d)), None
                    )
                    if narrow is not None and not guarded(stmt, guards):
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"arithmetic on {narrow} can overflow at paper "
                            "scale; widen to int64 (or add a bounds guard) "
                            "before accumulating",
                        )
                        continue
                if (
                    isinstance(node.op, ast.LShift)
                    and is_numpy_int(left)
                    and isinstance(node.right, ast.Constant)
                    and isinstance(node.right.value, int)
                    and node.right.value >= _PACKING_SHIFT_BITS
                    and not guarded(stmt, guards)
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"packing shift by {node.right.value} bits on {left} "
                        "silently collides once values reach the reserved "
                        "width; add an explicit bounds guard on the operands",
                    )


class DowncastWithoutGuardRule(FileRule):
    """RPL021: a narrowing cast with no visible range check wraps silently."""

    code = "RPL021"
    name = "downcast-without-guard"
    summary = (
        "cast to a narrow integer dtype without a preceding bounds check; "
        "numpy wraps out-of-range values instead of raising"
    )

    _CAST_FUNCS = frozenset({"asarray", "array", "fromiter", "asanyarray"})

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        for env, guards, stmt, exprs in module.statements:
            for node in exprs:
                if not isinstance(node, ast.Call):
                    continue
                finding = self._narrow_cast(node, env)
                if finding is None:
                    continue
                target, source = finding
                source_dtype = None if source is None else env.dtype_of(source)
                size = itemsize(source_dtype)
                target_size = itemsize(target)
                if (
                    is_numpy_int(source_dtype)
                    and size is not None
                    and target_size is not None
                    and size <= target_size
                ):
                    continue  # equal-or-narrower source: no wrap possible
                if guarded(stmt, guards):
                    continue
                yield (
                    node.lineno,
                    node.col_offset,
                    f"downcast to {target} without a bounds guard: "
                    "out-of-range values wrap silently; validate the range "
                    "first (raise on overflow) or widen the target dtype",
                )

    def _narrow_cast(
        self, node: ast.Call, env: DtypeEnv
    ) -> tuple[str, ast.expr | None] | None:
        """``(target_dtype, source_expr)`` when ``node`` is a narrowing cast."""
        np_names = env.np_names
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "astype" and node.args:
            target = dtype_from_node(node.args[0], np_names)
            if is_narrow_int(target):
                return target, func.value
            return None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in np_names
            and func.attr in self._CAST_FUNCS
        ):
            dtype_kw = next(
                (kw.value for kw in node.keywords if kw.arg == "dtype"), None
            )
            if dtype_kw is None and len(node.args) >= 2 and func.attr != "fromiter":
                dtype_kw = node.args[1]
            target = dtype_from_node(dtype_kw, np_names)
            if is_narrow_int(target):
                source = node.args[0] if node.args else None
                return target, source
        return None


class UnsizedAccumulatorRule(FileRule):
    """RPL022: ``np.prod``/``np.cumsum`` without ``dtype=`` accumulate in a
    platform-defined width."""

    code = "RPL022"
    name = "unsized-accumulator"
    summary = (
        "np.prod/np.cumsum without dtype= uses a platform-defined "
        "accumulator; pass dtype= (or out=) explicitly"
    )

    _REDUCTIONS = frozenset({"prod", "cumsum", "cumprod"})

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        math_names = aliases(module.imports, "math")
        for env, _guards, _stmt, exprs in module.statements:
            for node in exprs:
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr not in self._REDUCTIONS:
                    continue
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id in math_names
                ):
                    continue  # math.prod is arbitrary-precision python int
                is_np = (
                    isinstance(func.value, ast.Name) and func.value.id in env.np_names
                )
                kwarg_names = {kw.arg for kw in node.keywords}
                if "dtype" in kwarg_names or "out" in kwarg_names:
                    continue
                if is_np:
                    operand = node.args[0] if node.args else None
                else:
                    # Method form: arr.cumsum().  Anything else with a
                    # same-named method (a pandas-free tree) is an array.
                    operand = func.value
                if operand is not None and is_64bit(env.dtype_of(operand)):
                    continue  # 64-bit input: accumulator already maximal
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{func.attr} without dtype= accumulates in a "
                    "platform-defined width (C long); pass dtype= or out= "
                    "so results match across platforms and cannot narrow",
                )


class MemmapMutationRule(FileRule):
    """RPL023: arrays from memmapped store readers are read-only views."""

    code = "RPL023"
    name = "memmap-mutation"
    summary = (
        "in-place mutation of an array obtained from a memmapped store "
        "reader; copy it first"
    )

    #: Reader methods that hand out views over memmapped chunk files.
    _READER_METHODS = frozenset(
        {
            "map",
            "window",
            "rows",
            "column",
            "node_arrays",
            "edge_arrays",
            "nodes_in",
            "edges_in",
        }
    )
    _INPLACE_METHODS = frozenset({"sort", "fill", "partition", "put", "byteswap"})

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        for scope in module.scopes:
            mapped = self._mapped_names(scope)
            if not mapped:
                continue
            for node in scope.nodes:
                yield from self._mutations(node, mapped)

    def _is_reader_call(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr in self._READER_METHODS
        return isinstance(func, ast.Name) and func.id == "map_chunk"

    def _mapped_names(self, scope: Scope) -> set[str]:
        """Names bound (directly or by propagation) to reader results."""
        mapped: set[str] = set()
        for _ in range(2):  # one propagation round for chained aliases
            for node in scope.nodes:
                if not isinstance(node, ast.Assign):
                    continue
                tainted = self._is_reader_call(node.value) or self._propagates(
                    node.value, mapped
                )
                if not tainted:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        mapped.add(target.id)
                    elif isinstance(target, ast.Tuple):
                        mapped.update(
                            elt.id
                            for elt in target.elts
                            if isinstance(elt, ast.Name)
                        )
        return mapped

    def _propagates(self, value: ast.expr, mapped: set[str]) -> bool:
        """Aliases and subscripts of mapped names stay memmap-backed."""
        if isinstance(value, ast.Name):
            return value.id in mapped
        if isinstance(value, ast.Subscript):
            return self._propagates(value.value, mapped)
        return False

    def _root_name(self, node: ast.expr) -> str | None:
        while isinstance(node, ast.Subscript):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def _mutations(
        self, node: ast.AST, mapped: set[str]
    ) -> Iterator[tuple[int, int, str]]:
        message = (
            "mutates an array served by a memmapped store reader — these "
            "are read-only views over the chunk files; np.copy() the "
            "array before writing to it"
        )
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and self._root_name(target) in mapped
                ):
                    yield node.lineno, node.col_offset, message
        elif isinstance(node, ast.AugAssign):
            if self._root_name(node.target) in mapped:
                yield node.lineno, node.col_offset, message
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._INPLACE_METHODS
                and self._root_name(func.value) in mapped
            ):
                yield node.lineno, node.col_offset, message
            for kw in node.keywords:
                if (
                    kw.arg == "out"
                    and isinstance(kw.value, ast.Name)
                    and kw.value.id in mapped
                ):
                    yield node.lineno, node.col_offset, message


def array_rules() -> list[FileRule]:
    """The RPL02x family in code order."""
    return [
        NarrowArithmeticRule(),
        DowncastWithoutGuardRule(),
        UnsizedAccumulatorRule(),
        MemmapMutationRule(),
    ]
