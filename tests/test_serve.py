"""Tests for ``repro.serve``: protocol, workers, server end-to-end.

The end-to-end tests run a real :class:`~repro.serve.server.ReproServer`
(asyncio listener + shard process pools) on an ephemeral port inside
``asyncio.run`` — real sockets, real worker processes, no mocks — which
is exactly the path ``repro serve`` exercises.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs import TraceRecorder, use_recorder
from repro.runtime.cache import ResultCache
from repro.serve import ReproServer, ServeConfig
from repro.serve.loadgen import PROFILES, LoadConfig, _pick_target
from repro.serve.protocol import (
    QueryError,
    canonical_key,
    dumps,
    http_request,
    json_safe,
    parse_query,
    parse_request_head,
    parse_response_head,
    shard_for,
)
from repro.serve.workers import _json_text
from repro.store.convert import write_store


@pytest.fixture(scope="module")
def tiny_store(tiny_stream, tmp_path_factory):
    """The tiny trace as an on-disk store (module-scoped: built once)."""
    path = tmp_path_factory.mktemp("serve") / "tiny.store"
    write_store(tiny_stream, path, chunk_events=512)
    return path


# -- protocol ----------------------------------------------------------------


class TestParseQuery:
    def test_defaults_are_filled_in(self):
        query = parse_query("/metrics")
        assert query.params["interval"] == 10.0
        assert query.params["seed"] == 0
        assert query.params["names"] == [
            "average_degree",
            "average_path_length",
            "average_clustering",
            "assortativity",
        ]

    def test_explicit_default_equals_omitted_default(self):
        spelled = parse_query("/metrics?interval=10.0&seed=0")
        omitted = parse_query("/metrics")
        assert canonical_key(spelled) == canonical_key(omitted)

    def test_unknown_endpoint_is_404(self):
        with pytest.raises(QueryError) as err:
            parse_query("/nope")
        assert err.value.status == 404
        assert err.value.code == "not-found"

    def test_unknown_parameter_is_400(self):
        with pytest.raises(QueryError) as err:
            parse_query("/metrics?bogus=1")
        assert err.value.status == 400

    def test_bad_type_is_400(self):
        with pytest.raises(QueryError, match="expected a number"):
            parse_query("/metrics?interval=soon")

    def test_missing_required_is_400(self):
        with pytest.raises(QueryError, match="missing required"):
            parse_query("/snapshot")

    def test_unknown_metric_name_is_400(self):
        with pytest.raises(QueryError) as err:
            parse_query("/metrics?names=average_degree,bogus")
        assert err.value.status == 400

    def test_non_finite_is_rejected(self):
        with pytest.raises(QueryError, match="finite"):
            parse_query("/snapshot?t=nan")

    def test_health_takes_no_params(self):
        with pytest.raises(QueryError, match="no parameters"):
            parse_query("/health?x=1")


class TestCanonicalKey:
    def test_shard_routing_is_stable_and_in_range(self):
        key = canonical_key(parse_query("/metrics"))
        assert shard_for(key, 4) == shard_for(key, 4)
        for shards in (1, 2, 4, 7):
            assert 0 <= shard_for(key, shards) < shards

    def test_distinct_queries_get_distinct_keys(self):
        a = canonical_key(parse_query("/metrics?seed=0"))
        b = canonical_key(parse_query("/metrics?seed=1"))
        assert a != b

    def test_dumps_is_order_insensitive(self):
        assert dumps({"b": 1, "a": 2}) == dumps({"a": 2, "b": 1})

    def test_json_safe_replaces_non_finite(self):
        cleaned = json_safe({"x": float("nan"), "y": [1.0, float("inf")], "z": 3})
        assert cleaned == {"x": None, "y": [1.0, None], "z": 3}
        dumps(cleaned)  # must not raise


class TestHttpFraming:
    def test_request_head_roundtrip(self):
        method, target, headers = parse_request_head(
            http_request("/metrics?seed=1", "example").partition(b"\r\n\r\n")[0]
        )
        assert (method, target) == ("GET", "/metrics?seed=1")
        assert headers["host"] == "example"

    def test_response_head_roundtrip(self):
        from repro.serve.protocol import http_response

        raw = http_response(404, '{"error":{}}')
        head, _, body = raw.partition(b"\r\n\r\n")
        status, headers = parse_response_head(head)
        assert status == 404
        assert int(headers["content-length"]) == len(body)

    def test_malformed_request_line_is_400(self):
        with pytest.raises(QueryError) as err:
            parse_request_head(b"FETCH\r\n")
        assert err.value.status == 400


class TestServeReportCache:
    """The serve shards' JSON report entries in the runtime's ResultCache."""

    def test_store_load_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "serve", suffix=".json")
        key = ResultCache.key("a", "b")
        with use_recorder(TraceRecorder()) as rec:
            assert cache.load(key, _json_text) is None
            cache.store(key, b'{"x":1}')
            assert cache.load(key, _json_text) == '{"x":1}'
        assert (rec.counters["cache.hits"], rec.counters["cache.misses"]) == (1, 1)

    def test_invalid_json_counts_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path, suffix=".json")
        key = ResultCache.key("k")
        cache.store(key, b'{"x":1}')
        cache.path(key).write_text('{"x":', encoding="utf-8")
        assert cache.load(key, _json_text) is None

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path, suffix=".json")
        cache.store(ResultCache.key("k"), b"{}")
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]


# -- end-to-end --------------------------------------------------------------


async def _fetch(host, port, target):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(http_request(target, host))
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status, headers = parse_response_head(head)
        body = await reader.readexactly(int(headers.get("content-length", "0")))
        return status, body.decode()
    finally:
        writer.close()
        await writer.wait_closed()


async def _fetch_with_headers(host, port, target):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(http_request(target, host))
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status, headers = parse_response_head(head)
        body = await reader.readexactly(int(headers.get("content-length", "0")))
        return status, headers, body.decode()
    finally:
        writer.close()
        await writer.wait_closed()


def _serve_and_fetch(config, targets):
    """Start a server, fetch ``targets`` in order, stop; returns responses."""

    async def main():
        server = ReproServer(config)
        host, port = await server.start()
        try:
            return [await _fetch(host, port, target) for target in targets]
        finally:
            await server.stop()

    return asyncio.run(main())


class TestServerEndToEnd:
    def test_health_info_snapshot(self, tiny_store, tiny_stream, tmp_path):
        responses = _serve_and_fetch(
            ServeConfig(store_path=str(tiny_store), cache_dir=str(tmp_path / "c")),
            ["/health", "/info", f"/snapshot?t={tiny_stream.end_time / 2:g}"],
        )
        (h_status, h_body), (i_status, i_body), (s_status, s_body) = responses
        assert (h_status, json.loads(h_body)) == (200, {"status": "ok"})
        info = json.loads(i_body)
        assert i_status == 200
        assert info["node_events"] == tiny_stream.num_nodes
        assert info["edge_events"] == tiny_stream.num_edges
        snap = json.loads(s_body)
        assert s_status == 200
        assert 0 < snap["node_events"] < snap["total_node_events"]

    def test_metrics_second_request_hits_cache(self, tiny_store, tmp_path):
        config = ServeConfig(store_path=str(tiny_store), cache_dir=str(tmp_path / "c"))

        async def main():
            server = ReproServer(config)
            host, port = await server.start()
            try:
                first = await _fetch(host, port, "/metrics?interval=20")
                second = await _fetch(host, port, "/metrics?interval=20")
                stats = json.loads((await _fetch(host, port, "/stats"))[1])
            finally:
                await server.stop()
            return first, second, stats

        first, second, stats = asyncio.run(main())
        assert first[0] == second[0] == 200
        assert first[1] == second[1]
        # The repeat was answered from the worker-side memo, not recomputed.
        assert stats["cache"].get("/metrics:memo", 0) >= 1

    def test_metrics_cache_status_is_miss_hit_or_none(self, tiny_store, tmp_path):
        def metrics_status(cache_dir):
            config = ServeConfig(store_path=str(tiny_store), cache_dir=cache_dir)
            (metrics, (_, stats)) = _serve_and_fetch(config, ["/metrics?interval=20", "/stats"])
            counts = json.loads(stats)["cache"]
            return metrics, {key: n for key, n in counts.items() if key.startswith("/metrics:")}

        cache_dir = str(tmp_path / "c")
        cold, cold_counts = metrics_status(cache_dir)
        # A fresh server has no memo: the second run reads the result cache.
        warm, warm_counts = metrics_status(cache_dir)
        bare, bare_counts = metrics_status(None)
        assert cold == warm == bare
        assert cold_counts == {"/metrics:miss": 1}
        assert warm_counts == {"/metrics:hit": 1}
        assert bare_counts == {"/metrics:none": 1}

    def test_error_envelopes(self, tiny_store, tmp_path):
        responses = _serve_and_fetch(
            ServeConfig(store_path=str(tiny_store), cache_dir=None),
            ["/nope", "/metrics?interval=-1", "/snapshot?t=1e9"],
        )
        for expected, (status, body) in zip([404, 400, 404], responses):
            assert status == expected
            envelope = json.loads(body)["error"]
            assert envelope["status"] == expected
            assert envelope["code"] in ("not-found", "bad-request")
            assert envelope["message"]

    def test_worker_parity_across_worker_counts(self, tiny_store, tmp_path):
        """workers=1 and workers=4 must answer with byte-identical bodies."""
        targets = [
            "/info",
            "/metrics?interval=20",
            "/snapshot?t=12.5",
            "/communities?interval=20",
            "/communities?interval=20&at=50",
        ]
        by_workers = {}
        for workers in (1, 4):
            config = ServeConfig(
                store_path=str(tiny_store),
                workers=workers,
                cache_dir=str(tmp_path / f"cache-{workers}"),
            )
            by_workers[workers] = _serve_and_fetch(config, targets)
        for target, one, four in zip(targets, by_workers[1], by_workers[4]):
            assert one == four, f"{target} differs between worker counts"

    def test_warm_preload_makes_first_request_a_hit(self, tiny_store, tmp_path):
        config = ServeConfig(
            store_path=str(tiny_store),
            cache_dir=str(tmp_path / "c"),
            warm=("metrics",),
        )

        async def main():
            server = ReproServer(config)
            host, port = await server.start()
            try:
                assert server.warm_seconds > 0
                await _fetch(host, port, "/metrics")
                stats = json.loads((await _fetch(host, port, "/stats"))[1])
            finally:
                await server.stop()
            return stats

        stats = asyncio.run(main())
        # The warmed query answers from the memo/result cache, never "miss".
        assert stats["cache"].get("/metrics:miss", 0) == 0
        assert (
            stats["cache"].get("/metrics:memo", 0)
            + stats["cache"].get("/metrics:hit", 0)
        ) >= 1

    def test_timeout_answers_504(self, tiny_store, tmp_path):
        config = ServeConfig(
            store_path=str(tiny_store),
            cache_dir=None,
            timeout=1e-4,
        )
        ((status, body),) = _serve_and_fetch(config, ["/metrics"])
        assert status == 504
        assert json.loads(body)["error"]["code"] == "timeout"

    def test_graceful_shutdown_drains_inflight(self, tiny_store, tmp_path):
        config = ServeConfig(store_path=str(tiny_store), cache_dir=None)

        async def main():
            server = ReproServer(config)
            host, port = await server.start()
            inflight = asyncio.create_task(_fetch(host, port, "/metrics?interval=20"))
            await asyncio.sleep(0.1)  # let the request reach a worker
            await server.stop()
            return await inflight

        status, body = asyncio.run(main())
        assert status == 200
        assert "times" in json.loads(body)

    def test_first_close_request_sees_eof(self, tiny_store):
        """Regression: shard workers must spawn before the listener opens.

        ProcessPoolExecutor forks its worker lazily on first submit; if
        that first submit happens after accept(), the fork duplicates
        the live connection fd into the worker, which holds it open for
        its lifetime — so the server's close after a
        ``Connection: close`` request never reaches the client as EOF.
        """
        config = ServeConfig(store_path=str(tiny_store), cache_dir=None)

        async def request_to_eof(host, port, target):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                f"GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".encode()
            )
            await writer.drain()
            # Read to EOF: hangs forever if the fd leaked into a worker
            # or the server ignored the Connection: close header.
            data = await asyncio.wait_for(reader.read(), timeout=15)
            writer.close()
            await writer.wait_closed()
            return data

        async def main():
            server = ReproServer(config)
            host, port = await server.start()
            try:
                ok = await request_to_eof(host, port, "/info")
                # Error responses must honor Connection: close as well.
                err = await request_to_eof(host, port, "/nope")
                return ok, err
            finally:
                await server.stop()

        ok, err = asyncio.run(main())
        head, _, body = ok.partition(b"\r\n\r\n")
        assert b"200" in head.split(b"\r\n")[0]
        assert b"connection: close" in head.lower()
        assert json.loads(body)["node_events"] > 0
        err_head, _, err_body = err.partition(b"\r\n\r\n")
        assert b"404" in err_head.split(b"\r\n")[0]
        assert json.loads(err_body)["error"]["code"] == "not-found"

    def test_stats_reports_per_shard_cache_and_inflight(self, tiny_store, tmp_path):
        """Satellite contract: /stats carries worker-shard cache ratios."""
        config = ServeConfig(
            store_path=str(tiny_store), workers=2, cache_dir=str(tmp_path / "c")
        )
        responses = _serve_and_fetch(
            config, ["/info", "/info", "/metrics?interval=20", "/stats"]
        )
        stats = json.loads(responses[-1][1])
        assert stats["inflight"] >= 1  # the /stats request itself
        assert len(stats["shards"]) == 2
        lookups = 0
        for shard in stats["shards"]:
            assert set(shard["cache"]) == {"hit", "memo", "miss", "none"}
            assert shard["inflight"] == 0
            assert shard["spans_kept"] >= 0 and shard["spans_dropped"] >= 0
            ratio = shard["cache_hit_ratio"]
            assert ratio is None or 0.0 <= ratio <= 1.0
            lookups += sum(shard["cache"].values())
        # The repeated /info answered from a worker memo somewhere.
        assert lookups >= 3

    def test_telemetry_prometheus_and_json_twin(self, tiny_store, tmp_path):
        config = ServeConfig(
            store_path=str(tiny_store), workers=2, cache_dir=str(tmp_path / "c")
        )

        async def main():
            server = ReproServer(config)
            host, port = await server.start()
            try:
                await _fetch(host, port, "/info")
                await _fetch(host, port, "/metrics?interval=20")
                prom = await _fetch_with_headers(host, port, "/telemetry")
                twin = await _fetch(host, port, "/telemetry?format=json")
                bad = await _fetch(host, port, "/telemetry?format=xml")
            finally:
                await server.stop()
            return prom, twin, bad

        (prom_status, prom_headers, prom_body), twin, bad = asyncio.run(main())
        assert prom_status == 200
        assert prom_headers["content-type"].startswith("text/plain")
        lines = prom_body.splitlines()
        assert any(line.startswith("repro_serve_uptime_seconds ") for line in lines)
        assert any(
            line.startswith('repro_serve_requests_total{endpoint="/metrics"}')
            for line in lines
        )
        assert any("repro_serve_request_latency_seconds_bucket" in line for line in lines)
        doc = json.loads(twin[1])
        assert twin[0] == 200
        assert doc["workers"] == 2
        metrics_row = doc["endpoints"]["/metrics"]
        assert metrics_row["latency"]["count"] >= 1.0
        assert set(metrics_row["windows"]) == {"1s", "10s", "60s"}
        assert "serve.latency./metrics" in doc["worker_histograms"]
        # Unknown formats are a client error, not a silent default.
        assert bad[0] == 400
        assert json.loads(bad[1])["error"]["code"] == "bad-request"

    def test_telemetry_excluded_from_determinism_contract(self, tiny_store, tmp_path):
        """Deterministic endpoints stay byte-identical; /telemetry may differ."""
        config = ServeConfig(store_path=str(tiny_store), cache_dir=None)
        first = _serve_and_fetch(config, ["/info", "/telemetry?format=json"])
        second = _serve_and_fetch(config, ["/info", "/telemetry?format=json"])
        assert first[0] == second[0]  # /info bodies byte-identical
        assert first[1][0] == second[1][0] == 200  # /telemetry just answers

    def test_rejects_non_store_path(self, tmp_path):
        with pytest.raises(ValueError, match="not an event store"):
            ServeConfig(store_path=str(tmp_path))

    def test_bad_warm_target_rejected(self, tiny_store):
        with pytest.raises(ValueError, match="unknown warm target"):
            ServeConfig(store_path=str(tiny_store), warm=("everything",))


class TestLoadgen:
    def test_pick_target_is_seeded_and_mix_weighted(self):
        import numpy as np

        config = LoadConfig(mix="mixed")
        rng_a = np.random.default_rng((0, 7))
        rng_b = np.random.default_rng((0, 7))
        seq_a = [_pick_target(rng_a, config, 60.0) for _ in range(50)]
        seq_b = [_pick_target(rng_b, config, 60.0) for _ in range(50)]
        assert seq_a == seq_b
        drawn = {target.partition("?")[0] for target in seq_a}
        assert "/metrics" in drawn  # the heaviest weight must appear

    def test_profiles_cover_known_endpoints(self):
        from repro.serve.protocol import ENDPOINTS, LOCAL_ENDPOINTS

        known = set(ENDPOINTS) | set(LOCAL_ENDPOINTS)
        for profile in PROFILES.values():
            assert {endpoint for endpoint, _ in profile} <= known

    def test_loadgen_against_live_server(self, tiny_store, tmp_path):
        """A short real-socket run: traffic flows, zero 5xx, sane report."""

        async def main():
            server = ReproServer(
                ServeConfig(
                    store_path=str(tiny_store),
                    cache_dir=str(tmp_path / "c"),
                    warm=("metrics",),
                )
            )
            host, port = await server.start()
            try:
                from repro.serve.loadgen import _run

                return await _run(
                    LoadConfig(
                        host=host,
                        port=port,
                        users=20,
                        duration=1.5,
                        seed=3,
                        think_mean=0.05,
                    )
                )
            finally:
                await server.stop()

        report = asyncio.run(main())
        aggregate = report["aggregate"]
        assert aggregate["requests"] > 0
        assert aggregate["responses_5xx"] == 0
        assert aggregate["transport_errors"] == 0
        assert aggregate["p99_ms"] >= aggregate["p50_ms"] >= 0
        assert set(report["endpoints"]) <= {
            "/metrics",
            "/snapshot",
            "/info",
            "/communities",
            "/health",
        }

    def test_run_loadgen_entrypoint(self, tiny_store, tmp_path):
        """The sync entry used by the CLI, against a subprocess-free server."""

        async def serve_in_background(ready, done, address):
            server = ReproServer(
                ServeConfig(store_path=str(tiny_store), cache_dir=None)
            )
            address.extend(await server.start())
            ready.set()
            await done.wait()
            await server.stop()

        async def main():
            ready, done = asyncio.Event(), asyncio.Event()
            address: list = []
            task = asyncio.create_task(serve_in_background(ready, done, address))
            await ready.wait()
            host, port = address
            from repro.serve.loadgen import _run

            report = await _run(
                LoadConfig(host=host, port=port, users=5, duration=1.0, think_mean=0.05)
            )
            done.set()
            await task
            return report

        report = asyncio.run(main())
        assert report["aggregate"]["responses_5xx"] == 0

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError, match="unknown mix"):
            LoadConfig(mix="chaos")
