"""RPL010: the import-graph layering contract.

The architecture contract is a total order of layers (lower = more
fundamental)::

    util, devtools
      → kernels
        → graph
          → metrics, edges, pa, community, osnmerge, gen, ml, store
            → runtime
              → analysis, serve
                → cli

An import must point from a higher (or equal) layer to a lower (or equal)
one.  Three import kinds are distinguished:

* **eager** (module top level) — the real load-time dependency graph;
  must respect the layer order strictly and be acyclic at both module and
  package granularity;
* **type-checking** (under ``if TYPE_CHECKING:``) — erased at runtime;
  always allowed;
* **deferred** (function-scoped) — allowed downward freely; an *upward*
  deferred import is allowed only if the package edge is declared in
  :data:`DEFERRED_EDGES` with a written justification.

:func:`render_dot` dumps the package graph as Graphviz DOT (solid =
eager, dashed = deferred, dotted = type-checking) for the docs.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.devtools.engine import ModuleInfo, ProjectRule

__all__ = [
    "DEFERRED_EDGES",
    "ImportEdge",
    "LAYERS",
    "LayeringRule",
    "collect_edges",
    "render_dot",
]

#: Package -> layer index.  Equal-layer cross-package imports are allowed
#: (the fan layer's siblings may compose) as long as the graph stays
#: acyclic; the cycle checks below enforce that.
LAYERS: dict[str, int] = {
    "util": 0,
    "devtools": 0,
    "obs": 0,
    "kernels": 1,
    "graph": 2,
    "metrics": 3,
    "edges": 3,
    "pa": 3,
    "community": 3,
    "osnmerge": 3,
    "gen": 3,
    "ml": 3,
    "store": 3,
    "runtime": 4,
    "analysis": 5,
    "serve": 5,
    "cli": 6,
    "__init__": 6,
    "__main__": 6,
}

#: Declared upward *deferred* seams: (src_package, dst_package) -> reason.
#: Each is a deliberate, documented inversion kept out of load time.
DEFERRED_EDGES: dict[tuple[str, str], str] = {}


@dataclass(frozen=True)
class ImportEdge:
    """One repro-internal import statement."""

    src_module: str
    dst_module: str
    line: int
    kind: str  # "eager" | "deferred" | "type-checking"

    @property
    def src_package(self) -> str:
        return _package_of(self.src_module)

    @property
    def dst_package(self) -> str:
        return _package_of(self.dst_module)


def _package_of(module: str) -> str:
    parts = module.split(".")
    if parts[0] == "repro":
        parts = parts[1:]
    return parts[0] if parts else ""


def _is_type_checking_test(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _known_packages(modules: Sequence[ModuleInfo]) -> set[str]:
    return {m.package for m in modules}


def collect_edges(modules: Sequence[ModuleInfo]) -> list[ImportEdge]:
    """Every internal import in ``modules``, classified by kind.

    Internal means the target resolves into the scanned tree: a
    ``repro.*`` import, or (for fixture trees) an import whose first
    component names a scanned package.  Edges come in source order.
    """
    packages = _known_packages(modules)
    edges: list[ImportEdge] = []
    for module in modules:
        eager = {
            id(node)
            for node in module.scopes[0].nodes
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
        type_checking = {
            id(node)
            for block in module.nodes
            if isinstance(block, ast.If) and _is_type_checking_test(block.test)
            for stmt in block.body
            for node in ast.walk(stmt)
        }
        statements = sorted(
            (n for n in module.nodes if isinstance(n, (ast.Import, ast.ImportFrom))),
            key=lambda n: (n.lineno, n.col_offset),
        )
        for node in statements:
            if id(node) in type_checking:
                kind = "type-checking"
            else:
                kind = "eager" if id(node) in eager else "deferred"
            for target in _targets(module, node):
                first = target.split(".")[0]
                if first == "repro" or first in packages:
                    edges.append(ImportEdge(module.module, target, node.lineno, kind))
    return edges


def _targets(module: ModuleInfo, node: ast.Import | ast.ImportFrom) -> list[str]:
    """The dotted modules one import statement names."""
    if isinstance(node, ast.Import):
        return [item.name for item in node.names]
    if node.level:  # relative import: resolve against this module
        base = module.module.split(".")[: -node.level]
        return [".".join(base + ([node.module] if node.module else []))]
    return [node.module] if node.module is not None else []


class LayeringRule(ProjectRule):
    """RPL010: no back-edges, no cycles, every package in the contract."""

    code = "RPL010"
    name = "layering"
    summary = (
        "import violates the layer contract util -> kernels -> graph -> "
        "{metrics, edges, pa, community, osnmerge} -> runtime -> "
        "{analysis, serve} -> cli"
    )

    def check_project(
        self, modules: Sequence[ModuleInfo]
    ) -> Iterator[tuple[ModuleInfo, int, int, str]]:
        by_module = {m.module: m for m in modules}
        edges = collect_edges(modules)

        reported_unknown: set[str] = set()
        for module in modules:
            if module.package not in LAYERS and module.package not in reported_unknown:
                reported_unknown.add(module.package)
                yield (
                    module,
                    1,
                    0,
                    f"package '{module.package}' is not in the layer "
                    "contract; add it to repro.devtools.rules_layering.LAYERS",
                )

        for edge in edges:
            src_pkg, dst_pkg = edge.src_package, edge.dst_package
            if src_pkg == dst_pkg or edge.kind == "type-checking":
                continue
            src_layer = LAYERS.get(src_pkg)
            dst_layer = LAYERS.get(dst_pkg)
            if src_layer is None or dst_layer is None:
                continue  # unknown package already reported above
            if dst_layer <= src_layer:
                continue  # downward or sibling: fine for any kind
            src = by_module.get(edge.src_module)
            if src is None:
                continue
            if edge.kind == "deferred" and (src_pkg, dst_pkg) in DEFERRED_EDGES:
                continue
            direction = "eager" if edge.kind == "eager" else "undeclared deferred"
            yield (
                src,
                edge.line,
                0,
                f"{direction} back-edge: layer-{src_layer} package "
                f"'{src_pkg}' imports layer-{dst_layer} package '{dst_pkg}' "
                f"({edge.dst_module})",
            )

        yield from self._cycles(modules, by_module, edges)

    def _cycles(
        self,
        modules: Sequence[ModuleInfo],
        by_module: dict[str, ModuleInfo],
        edges: list[ImportEdge],
    ) -> Iterator[tuple[ModuleInfo, int, int, str]]:
        """Module- and package-level cycle detection over eager edges."""
        known = set(by_module)

        def resolve(target: str) -> str | None:
            # 'from repro.graph.events import EventStream' targets a
            # module; 'from repro.graph import events' targets names in a
            # package -- try the longest known prefix.
            candidate = target
            while candidate:
                if candidate in known:
                    return candidate
                candidate = candidate.rpartition(".")[0]
            return None

        module_graph: dict[str, set[str]] = {m.module: set() for m in modules}
        package_graph: dict[str, set[str]] = {}
        package_edge_line: dict[tuple[str, str], tuple[str, int]] = {}
        for edge in edges:
            if edge.kind != "eager":
                continue
            dst = resolve(edge.dst_module)
            if dst is not None and dst != edge.src_module:
                module_graph[edge.src_module].add(dst)
            src_pkg, dst_pkg = edge.src_package, edge.dst_package
            if src_pkg != dst_pkg:
                package_graph.setdefault(src_pkg, set()).add(dst_pkg)
                package_edge_line.setdefault(
                    (src_pkg, dst_pkg), (edge.src_module, edge.line)
                )

        cycle = _find_cycle(module_graph)
        if cycle is not None:
            head = by_module[cycle[0]]
            yield (
                head,
                1,
                0,
                "eager import cycle: " + " -> ".join([*cycle, cycle[0]]),
            )
        package_cycle = _find_cycle(package_graph)
        if package_cycle is not None:
            src_module, line = package_edge_line[
                (package_cycle[0], package_cycle[1 % len(package_cycle)])
            ]
            yield (
                by_module[src_module],
                line,
                0,
                "eager package cycle: "
                + " -> ".join([*package_cycle, package_cycle[0]]),
            )


def _find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """First cycle found by DFS (deterministic: sorted visit order)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(graph, WHITE)
    stack: list[str] = []

    def dfs(node: str) -> list[str] | None:
        color[node] = GRAY
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if color.get(nxt, BLACK) == GRAY:
                return stack[stack.index(nxt) :]
            if color.get(nxt, BLACK) == WHITE:
                found = dfs(nxt)
                if found is not None:
                    return found
        stack.pop()
        color[node] = BLACK
        return None

    for start in sorted(graph):
        if color[start] == WHITE:
            found = dfs(start)
            if found is not None:
                return found
    return None


def render_dot(modules: Sequence[ModuleInfo]) -> str:
    """The package import graph as Graphviz DOT, ranked by layer."""
    edges = collect_edges(modules)
    packages = sorted(
        {p for p in _known_packages(modules) if p in LAYERS}, key=lambda p: (LAYERS[p], p)
    )
    seen: set[tuple[str, str, str]] = set()
    lines = [
        "digraph layers {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    by_layer: dict[int, list[str]] = {}
    for pkg in packages:
        by_layer.setdefault(LAYERS[pkg], []).append(pkg)
    for layer in sorted(by_layer):
        members = " ".join(f'"{p}"' for p in by_layer[layer])
        lines.append(f"  {{ rank=same; {members} }}  // layer {layer}")
    style = {"eager": "solid", "deferred": "dashed", "type-checking": "dotted"}
    for edge in edges:
        src_pkg, dst_pkg = edge.src_package, edge.dst_package
        if src_pkg == dst_pkg or src_pkg not in LAYERS or dst_pkg not in LAYERS:
            continue
        key = (src_pkg, dst_pkg, edge.kind)
        if key in seen:
            continue
        seen.add(key)
        attrs = [f"style={style[edge.kind]}"]
        if LAYERS[dst_pkg] > LAYERS[src_pkg]:
            attrs.append("color=red")  # upward seam (declared or not)
        lines.append(f'  "{src_pkg}" -> "{dst_pkg}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
