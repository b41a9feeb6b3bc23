"""Experiment registry and the structured result type.

Every paper figure panel has an id (``F1a`` … ``F9c``) mapping to a driver
``fn(context) -> ExperimentResult``.  Results carry named series (what the
figure plots) and scalar findings (the numbers quoted in the paper text),
so benchmarks and EXPERIMENTS.md can print paper-comparable rows.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.obs import get_recorder

__all__ = ["ExperimentResult", "EXPERIMENTS", "register", "run_experiment", "list_experiments"]


@dataclass
class ExperimentResult:
    """Structured output of one experiment driver.

    ``series`` maps a curve name to ``(x, y)`` arrays; ``findings`` maps a
    scalar finding name to its measured value; ``paper`` records the
    corresponding value/shape reported by the paper (for side-by-side
    output).
    """

    experiment: str
    title: str
    series: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    findings: dict[str, float] = field(default_factory=dict)
    paper: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        """Human-readable report: findings vs. the paper's numbers."""
        lines = [f"[{self.experiment}] {self.title}"]
        for name, value in self.findings.items():
            paper_note = self.paper.get(name, "")
            suffix = f"   (paper: {paper_note})" if paper_note else ""
            lines.append(f"  {name:<42s} = {value:10.4g}{suffix}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return lines

    def print_summary(self) -> None:
        """Print :meth:`summary_lines`."""
        for line in self.summary_lines():
            print(line)


ExperimentFn = Callable[[AnalysisContext], ExperimentResult]

EXPERIMENTS: dict[str, ExperimentFn] = {}


def register(experiment_id: str) -> Callable[[ExperimentFn], ExperimentFn]:
    """Decorator adding a driver to :data:`EXPERIMENTS` under ``experiment_id``."""

    def deco(fn: ExperimentFn) -> ExperimentFn:
        if experiment_id in EXPERIMENTS:
            raise ValueError(f"duplicate experiment id {experiment_id}")
        EXPERIMENTS[experiment_id] = fn
        return fn

    return deco


def run_experiment(experiment_id: str, context: AnalysisContext) -> ExperimentResult:
    """Run one registered experiment on ``context``."""
    _ensure_loaded()
    try:
        fn = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    with get_recorder().span("analysis.experiment", id=experiment_id):
        return fn(context)


def list_experiments() -> list[str]:
    """All registered experiment ids, sorted."""
    _ensure_loaded()
    return sorted(EXPERIMENTS)


def series_from(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Coerce a curve to float arrays (helper for drivers)."""
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float)


def finite(values: Mapping[str, float]) -> dict[str, float]:
    """Drop non-finite findings (helper for drivers)."""
    return {k: float(v) for k, v in values.items() if np.isfinite(v)}


def _ensure_loaded() -> None:
    # Import the figure modules lazily to avoid a circular import at
    # package-init time; each registers its drivers on import.
    from repro.analysis import fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9  # noqa: F401
