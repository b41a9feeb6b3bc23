"""Store ⇄ runtime integration: parallel windows, cache parity, CLI."""

import pytest

from repro.cli import main
from repro.graph.stream_io import write_event_stream
from repro.runtime import MetricSpec, compute_timeseries, evaluate_timeseries
from repro.runtime.cache import series_key, stream_digest
from repro.store import EventStore, write_store


@pytest.fixture(scope="module")
def spec() -> MetricSpec:
    return MetricSpec(path_sample=40, clustering_sample=120, seed=5)


@pytest.fixture()
def store(tmp_path, tiny_stream) -> EventStore:
    write_store(tiny_stream, tmp_path / "t.store", chunk_events=173)
    return EventStore(tmp_path / "t.store")


class TestStreamDigest:
    def test_store_digest_matches_stream_digest(self, store, tiny_stream):
        assert stream_digest(store) == stream_digest(tiny_stream)

    def test_store_digest_reads_manifest_only(self, store):
        # The short-circuit answers from the manifest: no chunk is mapped.
        assert store._nodes._maps == {} and store._edges._maps == {}
        stream_digest(store)
        assert store._nodes._maps == {} and store._edges._maps == {}


class TestParallelStoreWindows:
    def test_store_backed_parallel_is_bit_identical(self, store, tiny_stream, spec):
        serial = evaluate_timeseries(tiny_stream, spec, interval=12.0)
        parallel = evaluate_timeseries(
            tiny_stream, spec, interval=12.0, workers=3, store=store
        )
        assert parallel.times == serial.times
        assert parallel.values == serial.values

    def test_compute_timeseries_accepts_store(self, store, tiny_stream, spec):
        serial = compute_timeseries(tiny_stream, spec, interval=12.0)
        from_store = compute_timeseries(store, spec, interval=12.0, workers=2)
        assert from_store.times == serial.times
        assert from_store.values == serial.values


class TestCacheParity:
    def test_tsv_run_seeds_cache_for_store_run(self, tmp_path, store, tiny_stream, spec):
        cache_dir = tmp_path / "cache"
        first = compute_timeseries(tiny_stream, spec, interval=15.0, cache_dir=cache_dir)
        assert not first.cached
        second = compute_timeseries(store, spec, interval=15.0, cache_dir=cache_dir)
        assert second.cached
        assert second.values == first.values

    def test_store_run_seeds_cache_for_tsv_run(self, tmp_path, store, tiny_stream, spec):
        cache_dir = tmp_path / "cache"
        first = compute_timeseries(store, spec, interval=15.0, workers=2, cache_dir=cache_dir)
        assert not first.cached
        second = compute_timeseries(tiny_stream, spec, interval=15.0, cache_dir=cache_dir)
        assert second.cached
        assert second.values == first.values

    def test_cache_keys_are_identical(self, store, tiny_stream, spec):
        assert series_key(stream_digest(store), spec, 3.0, None) == series_key(
            stream_digest(tiny_stream), spec, 3.0, None
        )

    def test_facade_passes_store_through(self, store, tiny_stream, spec):
        via_store = compute_timeseries(store, spec, interval=15.0)
        via_stream = compute_timeseries(tiny_stream, spec, interval=15.0)
        assert via_store.values == via_stream.values


class TestStoreCLI:
    @pytest.fixture()
    def tsv_path(self, tmp_path, tiny_stream) -> str:
        path = tmp_path / "trace.tsv"
        write_event_stream(tiny_stream, path)
        return str(path)

    def test_convert_info_verify(self, tmp_path, tsv_path, capsys):
        store_path = str(tmp_path / "trace.store")
        assert main(["store", "convert", tsv_path, store_path, "--chunk-events", "250"]) == 0
        assert "digest" in capsys.readouterr().out
        assert main(["store", "info", store_path]) == 0
        out = capsys.readouterr().out
        assert "repro-event-store v1" in out and "xiaonei" in out
        assert main(["store", "verify", store_path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_convert_back_to_tsv(self, tmp_path, tsv_path, capsys):
        store_path = str(tmp_path / "trace.store")
        main(["store", "convert", tsv_path, store_path])
        back = tmp_path / "back.tsv"
        assert main(["store", "convert", store_path, str(back)]) == 0
        assert back.read_bytes() == (tmp_path / "trace.tsv").read_bytes()

    def test_convert_store_to_tsv_rejects_chunk_events(self, tmp_path, tsv_path, capsys):
        store_path = str(tmp_path / "trace.store")
        main(["store", "convert", tsv_path, store_path])
        capsys.readouterr()
        code = main(["store", "convert", store_path, "out.tsv", "--chunk-events", "9"])
        assert code == 2
        assert "only applies" in capsys.readouterr().err

    def test_verify_detects_corruption(self, tmp_path, tsv_path, capsys):
        store_path = tmp_path / "trace.store"
        main(["store", "convert", tsv_path, str(store_path), "--chunk-events", "200"])
        chunk = store_path / "node-000000.bin"
        blob = bytearray(chunk.read_bytes())
        blob[20] ^= 0xFF
        chunk.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["store", "verify", str(store_path)]) == 1
        assert "checksum mismatch" in capsys.readouterr().err

    def test_info_on_non_store(self, tmp_path, capsys):
        assert main(["store", "info", str(tmp_path)]) == 1
        assert "not an event store" in capsys.readouterr().err

    def test_generate_store_format_auto(self, tmp_path, capsys):
        out = tmp_path / "gen.store"
        code = main([
            "generate", "--preset", "tiny", "--seed", "3",
            "--nodes", "120", "--days", "20", "--out", str(out),
        ])
        assert code == 0
        assert "(store)" in capsys.readouterr().out
        store = EventStore(out)
        store.verify()
        assert store.num_node_events > 0

    def test_metrics_on_store_matches_tsv(self, tmp_path, tsv_path, capsys):
        store_path = str(tmp_path / "trace.store")
        main(["store", "convert", tsv_path, store_path])
        capsys.readouterr()
        args = ["--interval", "30", "--path-sample", "30", "--seed", "2"]
        assert main(["metrics", tsv_path, *args]) == 0
        from_tsv = capsys.readouterr().out
        assert main(["metrics", store_path, *args]) == 0
        assert capsys.readouterr().out == from_tsv
