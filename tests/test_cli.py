"""Tests for the repro CLI."""

import pytest

from repro.cli import build_parser, main
from repro.graph.stream_io import read_event_stream, write_event_stream


@pytest.fixture()
def trace_path(tmp_path, tiny_stream):
    path = tmp_path / "trace.tsv"
    write_event_stream(tiny_stream, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--preset", "tiny", "--out", "x.tsv", "--nodes", "100"]
        )
        assert args.command == "generate"
        assert args.nodes == 100

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--preset", "bogus", "--out", "x"])

    def test_engine_flag_removed(self):
        # One generator: there is no engine to choose.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--out", "x", "--engine", "fast"])


class TestCommands:
    def test_generate_writes_valid_trace(self, tmp_path, capsys):
        out = tmp_path / "gen.tsv"
        code = main([
            "generate", "--preset", "tiny", "--seed", "3",
            "--nodes", "150", "--days", "25", "--out", str(out),
        ])
        assert code == 0
        stream = read_event_stream(out)
        assert stream.num_nodes > 50
        out = capsys.readouterr().out
        assert "wrote" in out
        assert out.rstrip().endswith("(tsv)")

    def test_generate_tsv_and_store_hold_the_same_trace(self, tmp_path):
        from repro.store.reader import EventStore

        args = ["generate", "--preset", "tiny", "--seed", "4", "--nodes", "150", "--days", "25"]
        assert main([*args, "--out", str(tmp_path / "t.tsv")]) == 0
        assert main([*args, "--out", str(tmp_path / "t.store")]) == 0
        tsv_digest = read_event_stream(tmp_path / "t.tsv").content_digest()
        assert EventStore(tmp_path / "t.store").manifest.content_digest == tsv_digest

    def test_info(self, trace_path, capsys):
        assert main(["info", trace_path]) == 0
        out = capsys.readouterr().out
        assert "valid" in out
        assert "avg degree" in out

    def test_info_on_empty_trace(self, tmp_path, capsys):
        # An empty file is a valid empty stream: zero degrees, no crash.
        path = tmp_path / "empty.tsv"
        path.write_text("")
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "nodes      : 0" in out
        assert "avg degree : 0.00  (max 0)" in out

    def test_metrics(self, trace_path, capsys):
        assert main(["metrics", trace_path, "--interval", "30", "--path-sample", "30"]) == 0
        out = capsys.readouterr().out
        assert "average_degree" in out
        assert len(out.strip().splitlines()) >= 3

    def test_communities(self, trace_path, capsys):
        assert main(["communities", trace_path, "--interval", "20"]) == 0
        out = capsys.readouterr().out
        assert "modularity" in out
        assert "events:" in out

    def test_experiment_single(self, capsys):
        code = main([
            "experiment", "F2b", "--preset", "tiny",
            "--seed", "3", "--nodes", "300", "--days", "40",
        ])
        assert code == 0
        assert "[F2b]" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        args = ["experiment", "F99", "--preset", "tiny", "--nodes", "100", "--days", "20"]
        assert main(args) == 2
        assert "error" in capsys.readouterr().err


def _counters(text):
    """``{name: value}`` from the counter block of a ``render_trace`` table."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:2] == ["counter", "value"])
    rows = {}
    for line in lines[start + 1:]:
        if not line.strip():
            break
        name, value = line.split()
        rows[name] = float(value)
    return rows


def _lanes(text):
    """Lane ids of the lane block of a ``render_trace`` table."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:2] == ["lane", "label"])
    return [int(line.split()[0]) for line in lines[start + 1:]]


class TestProfileAndBackend:
    """``--profile`` prints the run's trace table to stderr; stdout is unchanged."""

    def test_metrics_profile_table(self, trace_path, capsys):
        args = ["metrics", trace_path, "--interval", "30", "--path-sample", "30"]
        assert main(args) == 0
        plain = capsys.readouterr()
        assert main(args + ["--profile"]) == 0
        profiled = capsys.readouterr()
        assert profiled.out == plain.out
        assert plain.err == ""
        header = profiled.err.splitlines()[0].split()
        assert header == ["span", "count", "total", "s", "self", "s", "mean", "ms"]
        assert "metric.average_path_length" in profiled.err
        assert "busy s" in profiled.err
        assert _counters(profiled.err)["runtime.snapshots"] == len(plain.out.splitlines()) - 1
        assert _lanes(profiled.err) == [0]

    def test_metrics_profile_lanes_per_worker(self, trace_path, capsys):
        args = [
            "metrics", trace_path, "--interval", "10", "--path-sample", "30",
            "--workers", "3", "--profile",
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert _lanes(captured.err) == [0, 1, 2, 3]
        rows = len(captured.out.splitlines()) - 1
        assert _counters(captured.err)["runtime.snapshots"] == rows

    def test_metrics_profile_counts_cache_hits(self, trace_path, tmp_path, capsys):
        args = [
            "metrics", trace_path, "--interval", "30", "--path-sample", "30",
            "--profile", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        cold = _counters(capsys.readouterr().err)
        assert cold["cache.misses"] == 1
        assert "cache.hits" not in cold
        assert main(args) == 0
        warm = _counters(capsys.readouterr().err)
        assert warm["cache.hits"] == 1
        assert "cache.misses" not in warm
        assert "runtime.snapshots" not in warm

    def test_metrics_json_profile_prints_only_times_and_values(self, trace_path, capsys):
        import json

        args = [
            "metrics", trace_path, "--interval", "30", "--path-sample", "30",
            "--json", "--profile",
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert set(payload) == {"times", "values"}
        assert len(payload["times"]) > 0
        assert "metric.average_path_length" in captured.err

    def test_experiment_profile(self, capsys):
        args = [
            "experiment", "F1d", "--preset", "tiny",
            "--seed", "3", "--nodes", "300", "--days", "40",
        ]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--profile"]) == 0
        profiled = capsys.readouterr()
        assert profiled.out == plain
        assert "analysis.experiment" in profiled.err
        assert "self s" in profiled.err


class TestObsCommand:
    def test_diff_flags_regressions_and_sets_exit_code(self, tmp_path, capsys):
        import json

        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        before.write_text(json.dumps({"endpoints": {"/metrics": {"p99": 0.010}}}))
        after.write_text(json.dumps({"endpoints": {"/metrics": {"p99": 0.030}}}))
        assert main(["obs", "diff", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "endpoints./metrics.p99" in out
        assert "+200.0%" in out
        # With a threshold the same regression fails the command.
        assert main([
            "obs", "diff", str(before), str(after), "--fail-above", "0.10"
        ]) == 1
        assert "!" in capsys.readouterr().out

    def test_diff_accepts_trace_jsonl_inputs(self, tmp_path, capsys):
        from repro.obs import TraceRecorder, write_jsonl

        paths = []
        for run, latency in (("a", 0.01), ("b", 0.02)):
            recorder = TraceRecorder(lane=0, label="main")
            recorder.observe("serve.latency", latency)
            recorder.count("requests", 5)
            path = tmp_path / f"{run}.trace.jsonl"
            write_jsonl(recorder.to_payload(), path)
            paths.append(str(path))
        assert main(["obs", "diff", *paths]) == 0
        out = capsys.readouterr().out
        assert "histograms.serve.latency.max" in out
        assert "counters.requests" in out

    def test_diff_rejects_chrome_trace_like_read_jsonl(self, tmp_path, capsys):
        from repro.obs import TraceRecorder, read_jsonl, write_chrome, write_jsonl

        recorder = TraceRecorder(lane=0, label="main")
        recorder.count("requests", 5)
        jsonl = tmp_path / "run.trace.jsonl"
        chrome = tmp_path / "run.json"
        write_jsonl(recorder.to_payload(), jsonl)
        write_chrome(recorder.to_payload(), chrome)
        with pytest.raises(ValueError) as expected:
            read_jsonl(chrome)
        for args in ([str(jsonl), str(chrome)], [str(chrome), str(jsonl)]):
            assert main(["obs", "diff", *args, "--fail-above", "0.20"]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: {expected.value}\n"
            assert captured.out == ""

    def test_diff_fails_when_nothing_is_compared(self, tmp_path, capsys):
        import json

        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        before.write_text(json.dumps({"a": 1.0}))
        after.write_text(json.dumps({"b": 1.0}))
        assert main(["obs", "diff", str(before), str(after)]) == 0
        capsys.readouterr()
        assert main(["obs", "diff", str(before), str(after), "--fail-above", "0.20"]) == 1
        assert "no metric is present in both" in capsys.readouterr().err

    def test_diff_missing_file_is_an_error(self, tmp_path, capsys):
        good = tmp_path / "a.json"
        good.write_text("{}")
        assert main(["obs", "diff", str(good), str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_scrape_unreachable_server_is_an_error(self, capsys):
        # Port 1 on localhost: reliably refused, never listened on.
        assert main(["obs", "scrape", "--host", "127.0.0.1", "--port", "1"]) == 1
        assert "cannot scrape" in capsys.readouterr().err

    def test_scrape_live_server_writes_snapshot(self, tmp_path, tiny_stream, capsys):
        import asyncio
        import json
        import threading

        from repro.serve import ReproServer, ServeConfig
        from repro.store.convert import write_store

        store = tmp_path / "tiny.store"
        write_store(tiny_stream, store, chunk_events=512)
        address: list = []
        ready, done = threading.Event(), threading.Event()

        def serve():
            async def run():
                server = ReproServer(ServeConfig(store_path=str(store)))
                address.extend(await server.start())
                ready.set()
                while not done.is_set():
                    await asyncio.sleep(0.05)
                await server.stop()

            asyncio.run(run())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(timeout=60)
        try:
            out_path = tmp_path / "snap.json"
            code = main([
                "obs", "scrape", "--host", address[0], "--port", str(address[1]),
                "--format", "json", "--out", str(out_path),
            ])
            assert code == 0
            doc = json.loads(out_path.read_text())
            assert "endpoints" in doc and "shards" in doc
            prom_code = main([
                "obs", "scrape", "--host", address[0], "--port", str(address[1]),
            ])
            assert prom_code == 0
            assert "repro_serve_uptime_seconds" in capsys.readouterr().out
        finally:
            done.set()
            thread.join(timeout=60)
