"""Concurrent multi-process access to the on-disk caches.

``repro serve --workers N`` points N shard processes at one
``--cache-dir``, and nothing stops a second server (or a batch
``repro metrics`` run) from sharing the same directory.  The safety
story is the write-rename discipline of :func:`repro.util.atomic.atomic_writer`:
every entry is written to a ``mkstemp`` temp file in the cache directory
and published with ``os.replace``, so a reader can only ever observe *no
entry* or a *complete* entry — never a torn one.  These tests audit that
discipline at the source level, inject a failing write, and then hammer
it with real processes.
"""

from __future__ import annotations

import ast
import asyncio
import errno
import json
import os
import types
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.metrics.timeseries import MetricTimeseries
from repro.runtime import MetricSpec, mp_context
from repro.runtime.cache import ResultCache
from repro.serve.cache import ServeCache
from repro.store.writer import StoreWriter
from repro.util import atomic

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

KEYS = [f"key-{i}" for i in range(8)]


def expected_payload(key: str) -> str:
    """The deterministic JSON payload every writer stores under ``key``."""
    return json.dumps({"key": key, "values": list(range(32))}, sort_keys=True)


def serve_cache_worker(args: tuple[str, int, int]) -> int:
    """Interleave stores and loads; count observations of torn entries.

    Every load must return either ``None`` (no complete entry yet) or
    exactly the payload some writer stored — anything else means a torn
    read escaped the rename discipline.
    """
    root, seed, rounds = args
    cache = ServeCache(root)
    rng = np.random.default_rng(seed)
    torn = 0
    for _ in range(rounds):
        key = KEYS[int(rng.integers(len(KEYS)))]
        if rng.random() < 0.5:
            cache.store(ServeCache.key(key), expected_payload(key))
        else:
            text = cache.load(ServeCache.key(key))
            if text is not None and text != expected_payload(key):
                torn += 1
    return torn


def expected_series(key_index: int) -> MetricTimeseries:
    times = [float(t) for t in range(6)]
    return MetricTimeseries(
        times=times,
        values={"average_degree": [key_index + t / 10.0 for t in times]},
    )


def result_cache_worker(args: tuple[str, int, int]) -> int:
    """Same interleaved stress against the ``.npz`` metric cache."""
    root, seed, rounds = args
    cache = ResultCache(root)
    spec = MetricSpec(names=("average_degree",))
    rng = np.random.default_rng(seed)
    torn = 0
    for _ in range(rounds):
        index = int(rng.integers(len(KEYS)))
        key = cache.key(f"digest-{index}", spec, 10.0, None)
        if rng.random() < 0.5:
            cache.store(key, expected_series(index))
        else:
            series = cache.load(key)
            if series is None:
                continue
            want = expected_series(index)
            if series.times != want.times or series.values != want.values:
                torn += 1
    return torn


def called_names(path: Path) -> list[str]:
    """Names of every function called in the module at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute):
                names.append(node.func.attr)
            elif isinstance(node.func, ast.Name):
                names.append(node.func.id)
    return names


class DiskFullHandle:
    """A binary handle that takes a few bytes, then fails like a full disk."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        self._handle.write(bytes(data)[:8])
        self._handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


def publish_result_cache(root: Path) -> None:
    ResultCache(root).store("k", expected_series(0))


def publish_serve_cache(root: Path) -> None:
    ServeCache(root).store("k", expected_payload("k"))


def publish_manifest(root: Path) -> None:
    with StoreWriter(root) as writer:
        writer.append_nodes([0.0, 1.0], [0, 1], ["xiaonei", "xiaonei"])
        writer.append_edges([1.0], [0], [1])


class TestWriteRenameAudit:
    """Source-level audit: cache writers publish only via ``os.replace``."""

    @pytest.mark.parametrize("relpath", ["runtime/cache.py", "serve/cache.py", "store/writer.py"])
    def test_store_path_uses_mkstemp_and_replace(self, relpath):
        calls = called_names(REPO_SRC / relpath)
        # Writers stage and publish through the shared helper, which is
        # audited in their place.
        if "atomic_writer" in calls:
            calls += called_names(REPO_SRC / "util" / "atomic.py")
        assert "mkstemp" in calls, f"{relpath}: writes must stage via mkstemp"
        assert "replace" in calls, f"{relpath}: writes must publish via os.replace"
        # rename() is not atomic-overwrite on all platforms; replace() is.
        assert "rename" not in calls, f"{relpath}: use os.replace, not os.rename"

    def test_serve_cache_temp_files_stay_in_cache_dir(self, tmp_path):
        # mkstemp staging in the same directory is what makes os.replace
        # a same-filesystem rename (atomic) rather than a copy.
        cache = ServeCache(tmp_path / "serve")
        cache.store(ServeCache.key("k"), "{}")
        assert {p.suffix for p in (tmp_path / "serve").iterdir()} == {".json"}

    @pytest.mark.parametrize(
        ("publish", "entry"),
        [
            (publish_result_cache, "k.npz"),
            (publish_serve_cache, "k.json"),
            (publish_manifest, "manifest.json"),
        ],
    )
    def test_failed_write_leaves_no_temp_file_and_no_entry(
        self, publish, entry, tmp_path, monkeypatch
    ):
        failing_os = types.SimpleNamespace(
            fdopen=lambda fd, mode: DiskFullHandle(os.fdopen(fd, mode)),
            replace=os.replace,
            unlink=os.unlink,
            path=os.path,
        )
        monkeypatch.setattr(atomic, "os", failing_os)
        with pytest.raises(OSError, match="No space left"):
            publish(tmp_path)
        assert not list(tmp_path.glob("*.tmp"))
        assert not (tmp_path / entry).exists()
        # The same publisher without the fault does create the entry.
        monkeypatch.undo()
        publish(tmp_path / "clean")
        assert (tmp_path / "clean" / entry).exists()


class TestServeCacheConcurrency:
    def test_multiprocess_stress_no_torn_reads(self, tmp_path):
        root = str(tmp_path / "shared")
        with ProcessPoolExecutor(max_workers=4, mp_context=mp_context()) as pool:
            torn = list(
                pool.map(
                    serve_cache_worker,
                    [(root, seed, 120) for seed in range(4)],
                )
            )
        assert torn == [0, 0, 0, 0]
        # Every published entry is complete and no temp files leaked.
        for entry in Path(root).iterdir():
            assert entry.suffix == ".json"
            json.loads(entry.read_text(encoding="utf-8"))

    def test_truncated_entry_is_a_miss_then_repaired(self, tmp_path):
        cache = ServeCache(tmp_path)
        key = ServeCache.key("k")
        cache.store(key, expected_payload("k"))
        # Simulate a foreign/corrupt entry published by a buggy writer.
        cache.path(key).write_text('{"torn', encoding="utf-8")
        assert cache.load(key) is None
        cache.store(key, expected_payload("k"))
        assert cache.load(key) == expected_payload("k")


class TestResultCacheConcurrency:
    def test_multiprocess_stress_no_torn_reads(self, tmp_path):
        root = str(tmp_path / "shared")
        with ProcessPoolExecutor(max_workers=4, mp_context=mp_context()) as pool:
            torn = list(
                pool.map(
                    result_cache_worker,
                    [(root, seed, 80) for seed in range(4)],
                )
            )
        assert torn == [0, 0, 0, 0]
        leftovers = [p for p in Path(root).iterdir() if p.suffix != ".npz"]
        assert leftovers == []


class TestTwoServersOneCacheDir:
    def test_shared_cache_dir_servers_agree(self, tmp_path):
        """Two live servers on one ``--cache-dir`` answer identically.

        The second server's ``/communities`` answer must be byte-equal to
        the first's, and (having found the entry the first one published)
        must not recompute it.
        """
        from repro.gen.config import presets
        from repro.gen.renren import generate_trace
        from repro.serve import ReproServer, ServeConfig
        from repro.serve.protocol import http_request, parse_response_head
        from repro.store.convert import write_store

        store = tmp_path / "tiny.store"
        write_store(generate_trace(presets.tiny(), seed=11), store, chunk_events=512)
        cache_dir = str(tmp_path / "shared-cache")

        async def fetch(host, port, target):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(http_request(target, host))
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                status, headers = parse_response_head(head)
                body = await reader.readexactly(int(headers["content-length"]))
                return status, body.decode()
            finally:
                writer.close()
                await writer.wait_closed()

        async def main():
            config = ServeConfig(store_path=str(store), cache_dir=cache_dir)
            first = ReproServer(config)
            second = ReproServer(config)
            host_a, port_a = await first.start()
            host_b, port_b = await second.start()
            try:
                a = await fetch(host_a, port_a, "/communities?interval=20")
                b = await fetch(host_b, port_b, "/communities?interval=20")
                stats_b = json.loads((await fetch(host_b, port_b, "/stats"))[1])
            finally:
                await first.stop()
                await second.stop()
            return a, b, stats_b

        a, b, stats_b = asyncio.run(main())
        assert a[0] == b[0] == 200
        assert a[1] == b[1]
        # The second server read the first's entry: a cache hit, no miss.
        assert stats_b["cache"].get("/communities:hit", 0) == 1
        assert stats_b["cache"].get("/communities:miss", 0) == 0
