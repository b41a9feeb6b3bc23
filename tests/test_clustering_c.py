"""The clustering loop in C against the Python loop.

The C loop (``src/repro/kernels/clustering.c``) must give the Python
loop's bits for every position: degree-0 and degree-1 nodes, hubs,
sampled and exact position sets, an empty set, and a mask left dirty by
an earlier call.  Without a compiler the Python loop runs and the metric
keeps its bits; that case runs in a child process, so it starts with an
empty in-process cache.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen import generate_trace
from repro.gen.config import presets
from repro.graph.dynamic import DynamicGraph
from repro.kernels import clustering as kernel
from repro.kernels import native
from repro.obs import TraceRecorder, use_recorder
from tests.oracles import GraphSnapshot, from_snapshot

ROOT = Path(__file__).resolve().parents[1]

needs_cc = pytest.mark.skipif(native.find_compiler() is None, reason="no C compiler on PATH")


@pytest.fixture(scope="module")
def c_function():
    function = kernel._library()
    if function is None:
        pytest.skip("the C loop did not build")
    return function


def _bits(values: np.ndarray) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@st.composite
def _graphs(draw):
    """A graph with isolated and pendant nodes, and optionally a hub."""
    n = draw(st.integers(1, 40))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(u, v) for u, v in draw(st.lists(pairs, max_size=3 * n)) if u != v]
    if draw(st.booleans()):
        hub = draw(st.integers(0, n - 1))
        edges += [(hub, v) for v in range(n) if v != hub]
    ids = draw(st.permutations(range(n)))
    snapshot = GraphSnapshot.from_edges(
        [(ids[u], ids[v]) for u, v in edges], nodes=[ids[u] for u in range(n)]
    )
    return from_snapshot(snapshot)


@st.composite
def _positions(draw, n):
    kind = draw(st.sampled_from(["exact", "sampled", "empty"]))
    if kind == "exact":
        return np.arange(n, dtype=np.int64)
    if kind == "empty":
        return np.empty(0, dtype=np.int64)
    chosen = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return np.asarray(chosen, dtype=np.int64)


@needs_cc
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_c_loop_matches_python_loop(c_function, data):
    csr = data.draw(_graphs())
    positions = data.draw(_positions(csr.num_nodes))
    want = kernel._python_coefficients(csr, positions)
    got = kernel._c_coefficients(c_function)(csr, positions)
    assert got.shape == want.shape == (positions.size,)
    assert _bits(got) == _bits(want)


def _raw_call(function, csr, positions, mask):
    out = np.full(positions.size, np.nan)
    function(
        csr.num_nodes,
        csr.indptr.ctypes.data,
        csr.indices.ctypes.data,
        positions.size,
        positions.ctypes.data,
        mask.ctypes.data,
        out.ctypes.data,
    )
    return out


@needs_cc
def test_c_loop_ignores_a_dirty_mask(c_function, tiny_csr):
    positions = np.arange(tiny_csr.num_nodes, dtype=np.int64)
    want = _bits(kernel._python_coefficients(tiny_csr, positions))
    assert any(want)
    mask = np.full(tiny_csr.num_nodes, 1, dtype=np.uint8)
    assert _bits(_raw_call(c_function, tiny_csr, positions, mask)) == want
    # A second call on the same scratch, dirtied again between calls.
    mask[::3] = 255
    backwards = positions[::-1].copy()
    assert _bits(_raw_call(c_function, tiny_csr, backwards, mask)) == want[::-1]
    assert not mask.any()  # the loop leaves its scratch clean


@needs_cc
def test_clustering_span_names_the_c_loop(tiny_csr):
    with use_recorder(TraceRecorder()) as rec:
        kernel.average_clustering_csr(tiny_csr, 50, 3)
    spans = [dict(s.attrs) for s in rec.spans if s.name == "kernels.clustering"]
    assert spans == [{"nodes": tiny_csr.num_nodes, "scan": "c"}]


def test_clustering_span_names_the_python_loop(monkeypatch, tiny_csr):
    monkeypatch.setattr(kernel, "_coefficients", lambda: kernel._python_coefficients)
    with use_recorder(TraceRecorder()) as rec:
        kernel.average_clustering_csr(tiny_csr, None, None)
    spans = [dict(s.attrs) for s in rec.spans if s.name == "kernels.clustering"]
    assert spans == [{"nodes": tiny_csr.num_nodes, "scan": "python"}]


@needs_cc
def test_cold_build_has_its_own_span(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with use_recorder(TraceRecorder()) as rec:
        assert kernel._library() is not None
        assert kernel._library() is not None  # warm: loads, builds nothing
    builds = [s for s in rec.spans if s.name == "kernels.clustering_build"]
    assert [dict(s.attrs)["compiler"] for s in builds] == [native.find_compiler()]
    names = sorted(p.name for p in (tmp_path / "repro" / "kernels").iterdir())
    assert len(names) == 2 and names[0].startswith("clustering-")
    assert names[1] == names[0] + ".sha256"


_CHILD = """
import json
from repro.kernels import clustering as kernel, native
native.find_compiler = lambda: None
from tests.test_clustering_c import _reference_values
loop = "python" if kernel._coefficients() is kernel._python_coefficients else "c"
print(json.dumps({"loop": loop, "values": _reference_values()}))
"""


def _reference_values() -> list[str]:
    """Sampled and exact average clustering of a fixed trace, as hex."""
    csr = DynamicGraph(generate_trace(presets.tiny(), seed=5)).final()
    return [kernel.average_clustering_csr(csr, s, 11).hex() for s in (None, 200)]


def test_no_compiler_falls_back_to_the_python_loop(tmp_path):
    env = dict(
        os.environ,
        XDG_CACHE_HOME=str(tmp_path / "cache"),
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    done = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"loop": "python", "values": _reference_values()}
    assert not (tmp_path / "cache").exists()
