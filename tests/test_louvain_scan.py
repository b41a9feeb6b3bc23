"""The Louvain levels in C against the Python levels on tracked traces, and their build cache.

Whole tracker runs with the C levels (``src/repro/kernels/louvain_scan.c``)
must give the Python levels' bits on every Louvain call; one level call
is compared array by array in ``tests/test_louvain_level.py``.  The
build cache must survive concurrent builds, corrupt files, an
unwritable cache and a missing compiler, always ending in the Python
levels' answer.  Build-cache cases run in child processes, so that each
starts with an empty in-process cache and a crash would show as a
return code instead of killing the suite.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.community.louvain import louvain
from repro.community.tracking import track_stream
from repro.gen import generate_trace
from repro.gen.config import presets
from repro.kernels import louvain as kernel
from repro.kernels import native
from repro.kernels.csr import CSRGraph
from repro.obs import TraceRecorder, use_recorder
from tests.oracles import GraphSnapshot, from_snapshot

community_louvain = importlib.import_module("repro.community.louvain")

ROOT = Path(__file__).resolve().parents[1]

needs_cc = pytest.mark.skipif(native.find_compiler() is None, reason="no C compiler on PATH")


@pytest.fixture()
def python_scan(monkeypatch):
    """Make every Louvain call in the test run the Python levels."""
    monkeypatch.setattr(kernel, "_library", lambda: None)


# -- whole-run parity on tracked snapshots ---------------------------------


def _tracked_calls(monkeypatch, stream):
    """``(labels, order, levels)`` of every Louvain call of a tracker."""
    calls = []
    inner = kernel.louvain_csr

    def recording(*args):
        labels, order, levels = inner(*args)
        calls.append((labels.tolist(), order.tolist(), levels))
        return labels, order, levels

    with monkeypatch.context() as patch:
        patch.setattr(community_louvain, "louvain_csr", recording)
        track_stream(stream, seed=7)
    return calls


@needs_cc
@pytest.mark.parametrize(
    "config,seed",
    [(presets.tiny_merge(), 14), (presets.merge_study(), 7)],
    ids=["tiny_merge", "merge_study"],
)
def test_tracked_snapshots_match_python_scan(monkeypatch, config, seed):
    stream = generate_trace(config, seed=seed)
    with use_recorder(TraceRecorder()) as rec:
        c_calls = _tracked_calls(monkeypatch, stream)
    assert {dict(s.attrs)["scan"] for s in rec.spans if s.name == "kernels.louvain"} == {"c"}
    monkeypatch.setattr(kernel, "_library", lambda: None)
    python_calls = _tracked_calls(monkeypatch, stream)
    assert len(c_calls) == len(python_calls) > 10
    for got, want in zip(c_calls, python_calls, strict=True):
        assert got == want


@pytest.mark.parametrize("seeded", [False, True])
def test_partition_order_follows_the_super_node_chain(monkeypatch, tiny_csr, seeded):
    """The partition lists originals grouped by final super-node, then by
    the super-node one level down, ..., then by original position: the
    order downstream sets and frozensets inherit."""
    node_positions = []
    inner_numpy, inner_c = kernel._aggregate_arrays, kernel._c_level

    def recording_numpy(*args):
        aggregated = inner_numpy(*args)
        node_positions.append(aggregated[-1])
        return aggregated

    def recording_c(*args):
        passes, moves, improved, node_pos, aggregated = inner_c(*args)
        if improved:
            node_positions.append(node_pos)
        return passes, moves, improved, node_pos, aggregated

    # Whichever level loop runs (C, or numpy without a compiler) reports
    # each aggregation's node positions.
    monkeypatch.setattr(kernel, "_aggregate_arrays", recording_numpy)
    monkeypatch.setattr(kernel, "_c_level", recording_c)
    seed = None
    if seeded:
        first = louvain(tiny_csr, delta=0.04, seed=2)
        seed = (first.node_ids, first.labels)
    node_positions.clear()
    _, order, levels = kernel.louvain_csr(tiny_csr, 0.0, seed, np.random.default_rng(3))
    assert len(node_positions) >= 2 and levels >= 3
    chain = [np.arange(tiny_csr.num_nodes)]
    for node_pos in node_positions:
        chain.append(node_pos[chain[-1]])
    assert order.tolist() == np.lexsort(chain).tolist()


# -- observability ---------------------------------------------------------


def _two_cliques() -> CSRGraph:
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    edges += [(10 + i, 10 + j) for i in range(6) for j in range(i + 1, 6)]
    return from_snapshot(GraphSnapshot.from_edges([*edges, (0, 10)], nodes=[99]))


def test_louvain_span_names_the_python_scan(python_scan):
    with use_recorder(TraceRecorder()) as rec:
        louvain(_two_cliques(), delta=0.0, seed=1)
    spans = [s for s in rec.spans if s.name == "kernels.louvain"]
    assert [dict(s.attrs) for s in spans] == [{"nodes": 13, "scan": "python"}]


@needs_cc
def test_cold_build_has_its_own_span(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with use_recorder(TraceRecorder()) as rec:
        # The uncached loader: the first call builds, the second only loads.
        assert kernel._library.__wrapped__() is not None
        assert kernel._library.__wrapped__() is not None
    builds = [s for s in rec.spans if s.name == "kernels.louvain_build"]
    assert [dict(s.attrs)["compiler"] for s in builds] == [native.find_compiler()]


# -- the build cache, in child processes -----------------------------------


def _reference_result() -> str:
    """The fixed graph's Louvain result, as children print it."""
    result = louvain(_two_cliques(), delta=0.0, seed=1)
    return repr((list(result.partition.items()), result.modularity.hex(), result.levels))


_CHILD = """
import json
from repro.kernels import louvain as kernel, native
{patch}
from tests.test_louvain_scan import _reference_result
scan = "python" if kernel._library() is None else "c"
print(json.dumps({{"scan": scan, "result": _reference_result()}}))
"""


def _child(cache: Path, tmp: Path, patch: str = "") -> subprocess.Popen:
    tmp.mkdir(exist_ok=True)
    env = dict(
        os.environ,
        XDG_CACHE_HOME=str(cache),
        TMPDIR=str(tmp),
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD.format(patch=patch)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _finish(child: subprocess.Popen) -> dict:
    out, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    return json.loads(out)


@pytest.fixture()
def expected(python_scan) -> str:
    return _reference_result()


@pytest.fixture(scope="module")
def built_cache(tmp_path_factory) -> Path:
    """A cache directory a child process has built the library into."""
    cache = tmp_path_factory.mktemp("built") / "cache"
    assert _finish(_child(cache, cache.parent / "tmp"))["scan"] == "c"
    return cache


def _library_files(cache: Path) -> list[str]:
    directory = cache / "repro" / "kernels"
    return sorted(p.name for p in directory.iterdir()) if directory.is_dir() else []


@needs_cc
def test_two_processes_build_at_once(tmp_path, expected):
    cache = tmp_path / "cache"
    children = [_child(cache, tmp_path / "tmp") for _ in range(2)]
    for child in children:
        assert _finish(child) == {"scan": "c", "result": expected}
    files = _library_files(cache)
    assert len(files) == 2 and files[1] == files[0] + ".sha256", files
    assert native.intact(cache / "repro" / "kernels" / files[0])
    assert list((tmp_path / "tmp").iterdir()) == []


@needs_cc
@pytest.mark.parametrize("keep", [0.0, 0.5, 0.9])
def test_corrupt_library_is_rebuilt_not_loaded(tmp_path, built_cache, expected, keep):
    """A truncated library would die with SIGBUS if loaded; it is rebuilt."""
    cache = tmp_path / "cache"
    shutil.copytree(built_cache, cache)
    library = cache / "repro" / "kernels" / _library_files(cache)[0]
    data = library.read_bytes()
    library.write_bytes(data[: int(len(data) * keep)])
    assert not native.intact(library)
    assert _finish(_child(cache, tmp_path / "tmp")) == {"scan": "c", "result": expected}
    assert library.read_bytes() == data


@needs_cc
def test_unusable_cache_builds_in_a_private_temp_dir(tmp_path, expected):
    cache = tmp_path / "not-a-dir"
    cache.write_text("a file where the cache directory should be")
    assert _finish(_child(cache, tmp_path / "tmp")) == {"scan": "c", "result": expected}
    assert list((tmp_path / "tmp").iterdir()) == []


@needs_cc
@pytest.mark.skipif(os.geteuid() == 0, reason="root writes through read-only modes")
def test_read_only_cache_builds_in_a_private_temp_dir(tmp_path, expected):
    directory = tmp_path / "cache" / "repro" / "kernels"
    directory.mkdir(parents=True)
    directory.chmod(0o555)
    try:
        result = _finish(_child(tmp_path / "cache", tmp_path / "tmp"))
    finally:
        directory.chmod(0o755)
    assert result == {"scan": "c", "result": expected}
    assert _library_files(tmp_path / "cache") == []
    assert list((tmp_path / "tmp").iterdir()) == []


def test_no_compiler_falls_back_to_the_python_scan(tmp_path, expected):
    patch = "native.find_compiler = lambda: None"
    result = _finish(_child(tmp_path / "cache", tmp_path / "tmp", patch))
    assert result == {"scan": "python", "result": expected}
    assert _library_files(tmp_path / "cache") == []


@needs_cc
def test_no_compiler_still_loads_an_intact_cached_library(tmp_path, built_cache, expected):
    cache = tmp_path / "cache"
    shutil.copytree(built_cache, cache)
    patch = "native.find_compiler = lambda: None"
    assert _finish(_child(cache, tmp_path / "tmp", patch)) == {"scan": "c", "result": expected}


def test_import_starts_no_subprocess(tmp_path):
    code = (
        "import subprocess\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('a subprocess was started during import')\n"
        "subprocess.run = subprocess.Popen = refuse\n"
        "import repro.kernels, repro.serve, repro.store\n"
        "from repro.kernels import louvain\n"
        "assert louvain._library.cache_info().currsize == 0\n"
    )
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []
