"""Workload ``figures``: the paper reproduction that ``repro experiment all`` runs.

One repetition builds a fresh ``AnalysisContext`` (``workers=1``, result
cache off) and runs every registered experiment, forcing the shared
artifacts first so each lands in its own stage: trace generation,
community tracking, the F4a δ-sweep, the runtime metric timeseries, the
PA α fits (F3ab, F3c), the cross-network distance (F9c), and every other
driver.  The end-to-end pass time is the sum over stages of each stage's
median, so a slow machine phase that hits one repetition of one stage
moves nothing.
"""

from __future__ import annotations

import json
import sys

from repro.analysis import AnalysisContext, list_experiments, run_experiment
from repro.gen.config import GeneratorConfig, presets
from repro.obs import perf_counter

from common import Calibrator, Result, Stages, median, self_peak_rss_mb, span_totals, traced

#: The measured trace: presets.small's proportions (merge at half time,
#: four seasonal dips, 160 days) at 2,500 target users, so one pass takes
#: seconds and a run holds several repetitions of every stage.
MEASURED = presets.small(target_nodes=2500)
#: Set-up passes run a small trace through every code path.
WARMUP = presets.small(days=40.0, target_nodes=300)

STAGES = (
    "gen.generate_trace_s",
    "community.track_stream_s",
    "analysis.delta_sweep_s",
    "runtime.compute_timeseries_s",
    "pa.alpha_s",
    "osnmerge.distance_s",
    "analysis.other_drivers_s",
)
#: Experiments timed in a stage of their own; the rest are "other drivers".
NAMED_EXPERIMENTS = ("F4a", "F3ab", "F3c", "F9c")

#: Set-up repetitions: discarded warm-up passes over a small trace.
SETUP_REPEATS = 5


class Pass:
    """One reproduction pass over a fresh context; records stage times."""

    def __init__(self, config: GeneratorConfig, seed: int, stages: Stages) -> None:
        self.ctx = AnalysisContext(config, seed=seed, workers=1, cache_dir=None)
        self.stages = stages
        self.findings: dict[str, dict[str, str]] = {}
        self.skipped: dict[str, str] = {}

    def _experiments(self, ids: list[str]) -> None:
        for experiment in ids:
            try:
                result = run_experiment(experiment, self.ctx)
            except ValueError as exc:
                self.skipped[experiment] = str(exc)
                continue
            self.findings[experiment] = {
                name: float(value).hex() for name, value in sorted(result.findings.items())
            }

    def run(self) -> None:
        ctx, stage = self.ctx, self.stages.stage
        with stage("gen.generate_trace_s"):
            ctx.stream
        with stage("community.track_stream_s"):
            ctx.tracker
        with stage("analysis.delta_sweep_s"):
            self._experiments(["F4a"])
        with stage("runtime.compute_timeseries_s"):
            ctx.metrics
        with stage("pa.alpha_s"):
            self._experiments(["F3ab", "F3c"])
        with stage("osnmerge.distance_s"):
            self._experiments(["F9c"])
        with stage("analysis.other_drivers_s"):
            self._experiments([e for e in list_experiments() if e not in NAMED_EXPERIMENTS])

    def digest(self) -> str:
        return json.dumps(self.findings, sort_keys=True)


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    calibrator = Calibrator()
    setup = []
    for _ in range(SETUP_REPEATS):
        calibrator.probe()
        began = perf_counter()
        Pass(WARMUP, seed, Stages(calibrator)).run()
        setup.append(calibrator.rescale(perf_counter() - began))

    untraced, traced_stages = Stages(calibrator), Stages(calibrator)
    louvain: list[tuple[int, float]] = []
    reference = ""
    began = perf_counter()
    reps = 0
    while True:
        traced_rep = trace and reps % 2 == 1
        stages = traced_stages if traced_rep else untraced
        with traced(traced_rep) as recorder, stages.repetition():
            done = Pass(MEASURED, seed, stages)
            done.run()
        if recorder is not None:
            louvain.append(span_totals(recorder, "kernels.louvain"))
        reps += 1
        for experiment in list_experiments():
            problem = done.skipped.get(experiment)
            result.attempt(problem is None, f"{experiment} skipped: {problem}")
        reference = reference or done.digest()
        result.attempt(done.digest() == reference, "findings digest differs between repetitions")
        elapsed = perf_counter() - began
        if reps >= 2 and elapsed + median(untraced.raw["wall"]) > seconds:
            break

    if not trace:
        result.put("setup_s", median(setup), "s")
        result.put("peak_rss_mb", self_peak_rss_mb(), "MB")
        result.put("primary_ms", 1000.0 * untraced.total(STAGES), "ms")
        result.put("secondary_ms", 1000.0 * untraced.median("wall"), "ms")
        raw = sum(median(untraced.raw[name]) for name in STAGES)
        print(f"figures: {reps} passes, raw pass {raw:.3f} s", file=sys.stderr)
        return result

    result.ledger("figures", STAGES, untraced, traced_stages)
    result.put("kernels.louvain_calls", median([c for c, _ in louvain]), "count")
    result.put("kernels.louvain_s", median([s for _, s in louvain]), "s")
    ctx = done.ctx
    result.put("events", len(ctx.stream.nodes) + len(ctx.stream.edges), "count")
    result.put("tracked_snapshots", len(ctx.tracker.snapshots), "count")
    result.put("metric_snapshots", len(ctx.metrics.times), "count")
    result.put("experiments_ok", len(done.findings), "count")
    result.put("experiments_skipped", len(done.skipped), "count")
    return result
