"""The rule-engine core: module discovery, rules, suppressions.

Rules come in two shapes:

* :class:`FileRule` — checks one module at a time (RPL001-RPL005,
  RPL020-RPL023, RPL030-RPL033);
* :class:`ProjectRule` — sees every discovered module at once (the
  layering rule RPL010, which needs the whole import graph).

Rules read a module's shared facts from :class:`ModuleInfo` — its node
list, import table, scope list, per-statement dtype environments and pool
submissions — each computed once per module, on first use.

Suppression syntax, on the offending line::

    risky_thing()  # repro: noqa[RPL001] -- neighbor order feeds a set; order-independent

The justification after ``--`` is *required*: an unjustified ``noqa``
does not suppress and additionally raises RPL100.  A ``noqa`` whose codes
match no finding on its line raises RPL101, so stale suppressions cannot
accumulate.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.devtools.dataflow import (
    Scope,
    Statement,
    Submission,
    import_table,
    pool_submissions,
    scope_list,
    scope_statements,
)
from repro.devtools.diagnostics import Diagnostic

__all__ = [
    "FileRule",
    "LintResult",
    "ModuleInfo",
    "ProjectRule",
    "Rule",
    "Suppression",
    "discover_modules",
    "run_rules",
]

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\[(?P<codes>[A-Z0-9,\s]+)\]\s*(?:--\s*(?P<why>.*\S))?\s*$"
)

# Meta-rule codes emitted by the engine itself.
CODE_UNJUSTIFIED = "RPL100"
CODE_UNUSED = "RPL101"


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro: noqa[...]`` comment on one physical line."""

    line: int
    codes: tuple[str, ...]
    justification: str | None

    @property
    def justified(self) -> bool:
        return bool(self.justification)


@dataclass
class ModuleInfo:
    """One parsed source file, the naming context rules key off, and the
    facts every rule shares.

    ``module`` is the dotted name (``repro.kernels.csr``); ``package`` is
    the component rules scope on — the sub-package directly under
    ``repro`` (``kernels``), or the module stem for top-level modules
    (``cli``).
    """

    path: Path
    rel: str
    module: str
    package: str
    source: str
    tree: ast.Module
    suppressions: list[Suppression] = field(default_factory=list)

    # The facts below are what rules read instead of re-walking the tree.
    # Each is computed on first use and at most once per module.

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the tree, in ``ast.walk`` order."""
        return list(ast.walk(self.tree))

    @cached_property
    def imports(self) -> dict[str, str]:
        """The import table: local name -> dotted origin."""
        return import_table(self.nodes)

    @cached_property
    def scopes(self) -> list[Scope]:
        """The module scope, then every function scope."""
        return scope_list(self.tree, self.nodes)

    @cached_property
    def statements(self) -> list[Statement]:
        """Every statement with its scope's dtype env and guards (RPL02x)."""
        return scope_statements(self.scopes, self.imports)

    @cached_property
    def submissions(self) -> list[Submission]:
        """Every callable shipped to a process pool (RPL030-RPL032)."""
        return pool_submissions(self.nodes, self.scopes, self.imports)


class Rule:
    """Base: a code, a one-line summary, and an optional package scope."""

    code: str = ""
    name: str = ""
    summary: str = ""
    #: Packages the rule applies to; ``None`` means every package.
    packages: frozenset[str] | None = None

    def applies_to(self, module: ModuleInfo) -> bool:
        return self.packages is None or module.package in self.packages


class FileRule(Rule):
    """A rule that inspects one module at a time."""

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        """Yield ``(line, col, message)`` findings for ``module``."""
        raise NotImplementedError

    def run(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        if not self.applies_to(module):
            return
        for line, col, message in self.check_module(module):
            yield Diagnostic(module.rel, line, col, self.code, message)


class ProjectRule(Rule):
    """A rule that inspects the whole module set at once."""

    def check_project(
        self, modules: Sequence[ModuleInfo]
    ) -> Iterator[tuple[ModuleInfo, int, int, str]]:
        """Yield ``(module, line, col, message)`` findings."""
        raise NotImplementedError

    def run_project(self, modules: Sequence[ModuleInfo]) -> Iterator[Diagnostic]:
        for module, line, col, message in self.check_project(modules):
            yield Diagnostic(module.rel, line, col, self.code, message)


@dataclass
class LintResult:
    """Every diagnostic produced by a run, in location order."""

    diagnostics: list[Diagnostic]

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.status == "error"]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0


def parse_suppressions(source: str) -> list[Suppression]:
    """Extract ``# repro: noqa[...]`` comments via the token stream.

    Tokenizing (rather than line-regexing) means a ``repro: noqa`` inside
    a string literal is never mistaken for a suppression.
    """
    suppressions: list[Suppression] = []
    if "repro:" not in source:
        return suppressions  # no noqa comment can match: skip tokenizing
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(tok.string)
            if match is None:
                continue
            codes = tuple(
                code.strip() for code in match.group("codes").split(",") if code.strip()
            )
            suppressions.append(
                Suppression(tok.start[0], codes, match.group("why"))
            )
    except tokenize.TokenError:
        pass  # unparseable tail; the ast.parse error is reported elsewhere
    return suppressions


def _module_identity(path: Path, root: Path) -> tuple[str, str]:
    """``(module, package)`` for ``path`` relative to the scan ``root``."""
    parts = path.relative_to(root).with_suffix("").parts
    if root.name == "repro":
        module = ".".join(("repro", *parts))
        package = parts[0]
    else:
        module = ".".join(parts)
        package = parts[0]
    return module, package


def discover_modules(root: Path, *, files: Iterable[Path] | None = None) -> list[ModuleInfo]:
    """Parse every ``.py`` file under ``root`` (or just ``files``) in sorted order.

    ``root`` is normally the ``repro`` package directory itself; fixture
    trees in tests pass a directory whose immediate children are the
    package names the rules scope on.
    """
    root = root.resolve()
    paths = sorted(files) if files is not None else sorted(root.rglob("*.py"))
    modules: list[ModuleInfo] = []
    for path in paths:
        path = path.resolve()
        source = path.read_text(encoding="utf-8")
        module, package = _module_identity(path, root)
        modules.append(
            ModuleInfo(
                path=path,
                rel=path.relative_to(root.parent).as_posix(),
                module=module,
                package=package,
                source=source,
                tree=ast.parse(source, filename=str(path)),
                suppressions=parse_suppressions(source),
            )
        )
    return modules


def _apply_suppressions(
    module_diags: list[Diagnostic],
    suppressions: list[Suppression],
    inactive_codes: frozenset[str] = frozenset(),
) -> Iterator[Diagnostic]:
    """Resolve findings against the module's ``noqa`` comments.

    Emits the (possibly suppressed) findings plus RPL100/RPL101
    meta-findings for unjustified and unused suppressions.  A suppression
    whose codes are all in ``inactive_codes`` (known rules filtered out
    by select/ignore) is exempt from both meta-checks — a subset run must
    not flag the suppressions of the rules it skipped.  Unknown codes are
    never inactive, so typo'd suppressions still raise RPL101.
    """
    used: set[int] = set()
    for diag in module_diags:
        matched = False
        for index, sup in enumerate(suppressions):
            if sup.line == diag.line and diag.rule in sup.codes:
                used.add(index)
                if sup.justified:
                    matched = True
                    yield Diagnostic(
                        diag.path, diag.line, diag.col, diag.rule, diag.message,
                        status="suppressed", justification=sup.justification,
                    )
                break
        if not matched:
            yield diag
    for index, sup in enumerate(suppressions):
        if all(code in inactive_codes for code in sup.codes):
            continue
        if not sup.justified:
            yield Diagnostic(
                module_diags[0].path if module_diags else "",
                sup.line, 0, CODE_UNJUSTIFIED,
                f"suppression of {', '.join(sup.codes)} lacks a justification "
                "(use '# repro: noqa[CODE] -- reason')",
            )
        elif index not in used:
            yield Diagnostic(
                module_diags[0].path if module_diags else "",
                sup.line, 0, CODE_UNUSED,
                f"unused suppression of {', '.join(sup.codes)}: no matching "
                "finding on this line",
            )


def run_rules(
    modules: Sequence[ModuleInfo],
    rules: Sequence[Rule],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] = (),
) -> LintResult:
    """Run ``rules`` over ``modules`` and resolve suppressions.

    ``select``/``ignore`` filter by rule code; the engine's RPL100/RPL101
    meta-findings are always active (they guard the suppression mechanism
    itself, not any one rule), but skip suppressions that only name
    filtered-out rules.
    """
    selected = set(select) if select is not None else None
    ignored = set(ignore)

    def active(rule: Rule) -> bool:
        if rule.code in ignored:
            return False
        return selected is None or rule.code in selected

    file_rules = [r for r in rules if isinstance(r, FileRule) and active(r)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule) and active(r)]
    inactive_codes = frozenset(r.code for r in rules if not active(r))

    per_module: dict[str, list[Diagnostic]] = {m.rel: [] for m in modules}
    for module in modules:
        for rule in file_rules:
            per_module[module.rel].extend(rule.run(module))
    for rule in project_rules:
        for diag in rule.run_project(modules):
            per_module.setdefault(diag.path, []).append(diag)

    diagnostics: list[Diagnostic] = []
    by_rel = {m.rel: m for m in modules}
    for rel in sorted(per_module):
        module = by_rel.get(rel)
        raw = sorted(per_module[rel])
        if module is None:
            diagnostics.extend(raw)
            continue
        resolved = _apply_suppressions(raw, module.suppressions, inactive_codes)
        diagnostics.extend(
            d if d.path else Diagnostic(rel, d.line, d.col, d.rule, d.message)
            for d in resolved
        )
    diagnostics.sort()
    return LintResult(diagnostics)
