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
        assert "wrote" in capsys.readouterr().out

    def test_info(self, trace_path, capsys):
        assert main(["info", trace_path]) == 0
        out = capsys.readouterr().out
        assert "valid" in out
        assert "avg degree" in out

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


class TestProfileAndBackend:
    def test_metrics_profile_table(self, trace_path, capsys):
        args = ["metrics", trace_path, "--interval", "30", "--path-sample", "30", "--profile"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "backend: csr" in out
        assert "cache: 0 hit(s) / 0 miss(es)" in out
        assert "mean ms" in out

    def test_metrics_profile_counts_cache_hits(self, trace_path, tmp_path, capsys):
        args = [
            "metrics", trace_path, "--interval", "30", "--path-sample", "30",
            "--profile", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        assert "cache: 0 hit(s) / 1 miss(es)" in capsys.readouterr().out
        assert main(args) == 0
        assert "cache: 1 hit(s) / 0 miss(es)" in capsys.readouterr().out

    def test_metrics_json_includes_profile(self, trace_path, capsys):
        import json

        args = [
            "metrics", trace_path, "--interval", "30", "--path-sample", "30",
            "--json", "--profile",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"times", "values", "profile"}
        assert payload["profile"]["backend"] == "csr"
        assert len(payload["times"]) > 0
        seconds = payload["profile"]["metric_seconds"]["average_path_length"]
        assert len(seconds) == len(payload["times"])

    def test_engine_choice_does_not_change_values(self, trace_path, capsys, monkeypatch):
        from repro.runtime import parallel

        base = ["metrics", trace_path, "--interval", "30", "--path-sample", "30"]
        monkeypatch.setattr(parallel, "select_engine", lambda spec, snapshots: "delta")
        assert main(base) == 0
        delta_out = capsys.readouterr().out
        monkeypatch.setattr(parallel, "select_engine", lambda spec, snapshots: "csr")
        assert main(base) == 0
        assert capsys.readouterr().out == delta_out

    def test_experiment_profile(self, capsys):
        code = main([
            "experiment", "F1d", "--preset", "tiny",
            "--seed", "3", "--nodes", "300", "--days", "40", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend:" in out
        assert "mean ms" in out


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
