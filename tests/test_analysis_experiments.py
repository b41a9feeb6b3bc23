"""Tests for the repro.analysis experiment layer."""

import numpy as np
import pytest

from repro.analysis import AnalysisContext, list_experiments, run_experiment
from repro.analysis.experiments import ExperimentResult
from repro.gen.config import presets
from repro.kernels import native
from repro.obs import TraceRecorder, use_recorder

ALL_EXPERIMENTS = [
    "F1a", "F1b", "F1c", "F1d", "F1e", "F1f",
    "F2a", "F2b", "F2c",
    "F3ab", "F3c",
    "F4a", "F4b", "F4c",
    "F5a", "F5b", "F5c",
    "F6a", "F6b", "F6c",
    "F7a", "F7b", "F7c",
    "F8a", "F8b", "F8c",
    "F9a", "F9b", "F9c",
]


def test_registry_complete():
    assert list_experiments() == sorted(ALL_EXPERIMENTS)


def test_unknown_experiment_raises():
    ctx = AnalysisContext(presets.tiny(), seed=0)
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("F99", ctx)


class TestContextCaching:
    def test_stream_cached(self):
        ctx = AnalysisContext(presets.tiny(days=25, target_nodes=120), seed=0)
        assert ctx.stream is ctx.stream

    def test_merge_day_requires_merge(self):
        ctx = AnalysisContext(presets.tiny(), seed=0)
        with pytest.raises(ValueError):
            _ = ctx.merge_day

    def test_merge_day_value(self):
        cfg = presets.tiny_merge(days=40, target_nodes=400)
        ctx = AnalysisContext(cfg, seed=0)
        assert ctx.merge_day == float(int(cfg.merge.merge_day))


class TestResultType:
    def test_summary_lines_format(self):
        result = ExperimentResult(
            experiment="FX",
            title="Example",
            findings={"metric": 1.2345},
            paper={"metric": "about 1.2"},
            notes=["a note"],
        )
        lines = result.summary_lines()
        assert lines[0] == "[FX] Example"
        assert any("metric" in line and "about 1.2" in line for line in lines)
        assert any("note: a note" in line for line in lines)


@pytest.fixture(scope="module")
def merge_ctx():
    cfg = presets.tiny_merge(days=80, target_nodes=1200)
    return AnalysisContext(cfg, seed=13, tracking_interval=5.0)


@pytest.mark.parametrize("experiment", ALL_EXPERIMENTS)
def test_experiment_runs_and_produces_findings(merge_ctx, experiment):
    try:
        result = run_experiment(experiment, merge_ctx)
    except ValueError as exc:
        # Some community experiments need more events than a tiny trace has.
        pytest.skip(f"{experiment} needs a larger trace: {exc}")
    assert result.experiment == experiment
    assert result.title
    assert result.findings or result.series
    for name, value in result.findings.items():
        assert np.isfinite(value), f"finding {name} not finite"
    for name, (x, y) in result.series.items():
        assert x.shape == y.shape, f"series {name} misaligned"


class TestFigure3:
    @pytest.mark.parametrize("experiment", ["F3ab", "F3c"])
    def test_short_trace_names_the_edges_it_needs(self, experiment):
        ctx = AnalysisContext(presets.small(days=40.0, target_nodes=60), seed=1)
        assert ctx.stream.num_edges == 678
        with pytest.raises(ValueError, match="needs at least 1000 edges .* the trace has 678"):
            run_experiment(experiment, ctx)

    def test_warmup_trace_runs_both_drivers(self):
        ctx = AnalysisContext(presets.small(days=40.0, target_nodes=300), seed=1)
        assert ctx.stream.num_edges == 2870
        for experiment in ("F3ab", "F3c"):
            assert run_experiment(experiment, ctx).findings

    def test_traced_f3c_makes_two_pe_passes(self, merge_ctx):
        _ = merge_ctx.stream  # generated outside the trace
        recorder = TraceRecorder(lane=0, label="main")
        with use_recorder(recorder):
            run_experiment("F3c", merge_ctx)
        experiments = [s for s in recorder.spans if s.name == "analysis.experiment"]
        assert [dict(s.attrs) for s in experiments] == [{"id": "F3c"}]
        passes = [s for s in recorder.spans if s.name == "pa.edge_probability"]
        assert [s.parent for s in passes] == ["analysis.experiment"] * 2
        assert sorted(dict(s.attrs)["rule"] for s in passes) == ["higher_degree", "random"]
        assert {dict(s.attrs)["edges"] for s in passes} == {merge_ctx.stream.num_edges}


class TestFigure4:
    @pytest.mark.skipif(native.find_compiler() is None, reason="no C compiler")
    def test_traced_f4a_runs_the_c_scan(self):
        # A fresh context: a shared one may hold F4a's δ-sweep already.
        ctx = AnalysisContext(presets.tiny_merge(days=60, target_nodes=700), seed=5)
        _ = ctx.stream  # generated outside the trace
        recorder = TraceRecorder(lane=0, label="main")
        with use_recorder(recorder):
            run_experiment("F4a", ctx)
        scans = [dict(s.attrs)["scan"] for s in recorder.spans if s.name == "kernels.louvain"]
        assert len(scans) > 5
        assert set(scans) == {"c"}


class TestArtifactSpans:
    """Each shared artifact is built in a span of its own, once per context."""

    def test_traced_f8a_records_its_artifact_spans(self):
        ctx = AnalysisContext(presets.tiny_merge(days=60, target_nodes=700), seed=5)
        _ = ctx.stream  # generated outside the trace
        recorder = TraceRecorder(lane=0, label="main")
        with use_recorder(recorder):
            run_experiment("F8a", ctx)
            run_experiment("F8b", ctx)
        names = [s.name for s in recorder.spans]
        assert names.count("analysis.activity_threshold") == 1
        assert names.count("graph.node_edge_columns") == 1
        parent = {s.name: s.parent for s in recorder.spans}
        assert parent["analysis.activity_threshold"] == "analysis.experiment"
        assert parent["graph.node_edge_columns"] == (
            "analysis.experiment/analysis.activity_threshold"
        )

    def test_delta_sweep_final_graph_and_edge_rates_have_spans(self):
        ctx = AnalysisContext(presets.tiny_merge(days=40, target_nodes=300), seed=2)
        _ = ctx.stream
        recorder = TraceRecorder(lane=0, label="main")
        with use_recorder(recorder):
            for experiment in ("F4a", "F7c", "F8c", "F9a"):
                run_experiment(experiment, ctx)
        names = [s.name for s in recorder.spans]
        for artifact in ("analysis.delta_sweep", "analysis.final_graph", "analysis.edge_rates"):
            assert names.count(artifact) == 1, artifact
