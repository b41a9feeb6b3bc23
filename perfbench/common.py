"""Shared machinery for the three workloads: stage timing, estimators, output.

Every workload measures from outside the program: it times calls into the
public functions of ``repro`` inside spans it owns (:class:`Stages`).  With
tracing off the installed recorder is the no-op default, so the spans cost
nothing; a traced repetition installs a fresh ``repro.obs.TraceRecorder``
and the program's own spans (``kernels.louvain``, ``store.decode``, ...)
land beside the benchmark's.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import Any

import numpy as np
from repro.obs import TraceRecorder, get_recorder, perf_counter, use_recorder

#: Root of the checkout the benchmark runs in; all scratch files live under it.
ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_tmp"


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 1] of a non-empty sample."""
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def supports_tail(count: int, q: float, beyond: int = 10) -> bool:
    """Whether ``count`` samples leave ``beyond`` samples above percentile ``q``."""
    return count - min(count - 1, int(q * count)) - 1 >= beyond


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process in MiB, 0 if gone."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (Linux ``/proc`` task lists)."""
    pids: list[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            pids.extend(int(p) for p in task.read_text().split())
        except OSError:
            continue
    return pids


class Workspace:
    """Fresh scratch directories inside the checkout, removed on close.

    Every run gets its own directory keyed by pid, and every repetition a
    fresh subdirectory, so no store, manifest cache or result cache can
    carry over from one run (or one repetition) to the next.
    """

    def __init__(self) -> None:
        self.root = SCRATCH / f"run-{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self._serial = 0

    def fresh(self, label: str) -> Path:
        """A new, empty directory path (not yet created) under the workspace."""
        self._serial += 1
        return self.root / f"{label}-{self._serial}"

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


_CAL_ARRAY = np.random.default_rng(0).random(20_000)


def _calibration_work() -> int:
    """A fixed mix of interpreter work and a NumPy sort (~2 ms)."""
    total = 0
    table: dict[int, int] = {}
    for i in range(12_000):
        table[i & 255] = table.get(i & 255, 0) + i
        total += i * i
    np.sort(_CAL_ARRAY)
    return total


class Calibrator:
    """Tracks the machine's current speed with a fixed probe.

    The host alternates between speed phases that last seconds and differ
    by up to a quarter, so raw seconds from two runs minutes apart do not
    compare.  A probe is the best of three runs of a fixed loop; a stage
    timed between two probes is rescaled by ``REFERENCE_S / mean(probes)``,
    i.e. reported in seconds of a machine on which the probe takes
    ``REFERENCE_S``.  A change to the program does not touch the probe, so
    it moves the rescaled time exactly as much as the raw time.
    """

    REFERENCE_S = 0.0015

    def __init__(self) -> None:
        self.spent = 0.0
        self.last = self.probe()

    def probe(self) -> float:
        """The probe's current duration; also becomes :attr:`last`."""
        began = perf_counter()
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            _calibration_work()
            best = min(best, perf_counter() - start)
        self.spent += perf_counter() - began
        self.last = best
        return best

    def rescale(self, raw: float) -> float:
        """Rescale ``raw`` seconds, just measured, against probes around it."""
        before = self.last
        return raw * self.REFERENCE_S / (0.5 * (before + self.probe()))


class Stages:
    """Per-stage samples of one repetition kind, timed in benchmark-owned spans.

    ``samples`` hold calibrated seconds (see :class:`Calibrator`), ``raw``
    the wall-clock seconds.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time the block as stage ``name`` (and as a span of the same name)."""
        self.calibrator.probe()
        began = perf_counter()
        with get_recorder().span(name):
            yield
        raw = perf_counter() - began
        self.raw[name].append(raw)
        self.samples[name].append(self.calibrator.rescale(raw))

    @contextmanager
    def repetition(self) -> Iterator[None]:
        """Time one repetition of stages.

        Records its calibrated total as ``wall`` and the part outside every
        stage (probe time excluded) as ``unattributed_s``.
        """
        calibrator = self.calibrator
        spent = calibrator.spent
        before = {name: len(values) for name, values in self.raw.items()}
        began = perf_counter()
        yield
        wall = perf_counter() - began - (calibrator.spent - spent)
        ran = [name for name, values in self.raw.items() if len(values) > before.get(name, 0)]
        outside = wall - sum(self.raw[name][-1] for name in ran)
        outside *= calibrator.REFERENCE_S / calibrator.last
        self.add("unattributed_s", outside)
        self.add("wall", sum(self.samples[name][-1] for name in ran) + outside)
        self.raw["wall"].append(wall)

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def median(self, name: str) -> float:
        return median(self.samples[name])

    def total(self, names: Sequence[str]) -> float:
        """The sum over ``names`` of each stage's median."""
        return sum(self.median(name) for name in names)


@contextmanager
def traced(enabled: bool) -> Iterator[TraceRecorder | None]:
    """Install a fresh trace recorder for the block when ``enabled``."""
    if not enabled:
        yield None
        return
    recorder = TraceRecorder(label="perfbench")
    with use_recorder(recorder):
        yield recorder


def span_totals(recorder: TraceRecorder, name: str) -> tuple[int, float]:
    """``(calls, seconds)`` of every span called ``name`` the recorder kept."""
    spans = [span for span in recorder.spans if span.name == name]
    return len(spans), sum(span.duration for span in spans)


class Result:
    """Metrics, operation counts and failures of one benchmark run."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def attempt(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if problem and len(self.problems) < 20:
                self.problems.append(problem)

    def ledger(
        self, workload: str, names: Sequence[str], untraced: "Stages", traced: "Stages"
    ) -> None:
        """Report per-layer rows from traced repetitions, and print the ledger.

        The rows are the traced stage medians plus ``unattributed_s`` (time
        of a traced repetition outside every stage); the tracing overhead is
        the traced total minus the untraced one, so the printed ledger reads
        ``rows + unattributed_s - trace_overhead_s = untraced total``.
        """
        rows = [(name, traced.median(name)) for name in names]
        rows.append(("unattributed_s", traced.median("unattributed_s")))
        traced_total = sum(value for _, value in rows)
        untraced_total = untraced.total(names) + untraced.median("unattributed_s")
        overhead = traced_total - untraced_total
        for name, value in rows:
            self.put(name, value, "s")
        self.put("trace_overhead_pct", 100.0 * overhead / untraced_total, "%")
        print(f"{workload} ledger (calibrated s, medians of traced repetitions)", file=sys.stderr)
        for name, value in [*rows, ("-trace_overhead_s", -overhead)]:
            share = 100.0 * value / untraced_total
            print(f"  {name:<30} {value:10.4f}  {share:6.1f}%", file=sys.stderr)
        print(f"  {'= untraced total':<30} {untraced_total:10.4f}", file=sys.stderr)

    def document(self) -> dict[str, Any]:
        return {
            "correct": self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": self.metrics,
        }
