"""Shared fixtures: small deterministic traces and reference graphs.

The expensive artifacts (generated traces, tracking runs) are
session-scoped so the whole suite pays for them once.
"""

from __future__ import annotations

import pytest

from repro.community.tracking import CommunityTracker, track_stream
from repro.gen import generate_trace
from repro.gen.config import presets
from repro.graph.dynamic import DynamicGraph
from repro.graph.events import EventStream
from repro.kernels.csr import CSRGraph
from tests.oracles import GraphSnapshot, csr_of, dict_replay


@pytest.fixture(scope="session")
def tiny_stream() -> EventStream:
    """A ~700-node single-network trace."""
    return generate_trace(presets.tiny(), seed=11)


@pytest.fixture(scope="session")
def merge_stream() -> EventStream:
    """A ~1200-node trace containing a network merge at half time."""
    return generate_trace(presets.tiny_merge(), seed=13)


@pytest.fixture(scope="session")
def merge_day() -> float:
    """Merge day of the :func:`merge_stream` fixture."""
    return float(int(presets.tiny_merge().merge.merge_day))


@pytest.fixture(scope="session")
def tiny_graph(tiny_stream: EventStream) -> GraphSnapshot:
    """The final snapshot of the tiny trace, as the dict-of-sets oracle graph."""
    return dict_replay(tiny_stream)


@pytest.fixture(scope="session")
def tiny_csr(tiny_stream: EventStream) -> CSRGraph:
    """The final snapshot of the tiny trace, as replay builds it."""
    return DynamicGraph(tiny_stream).final()


@pytest.fixture(scope="session")
def tiny_tracker(tiny_stream: EventStream) -> CommunityTracker:
    """A completed community-tracking run over the tiny trace."""
    return track_stream(tiny_stream, interval=5.0, delta=0.04, seed=0)


@pytest.fixture()
def two_clique_graph() -> CSRGraph:
    """Two 6-cliques joined by a single bridge edge (ground-truth communities)."""
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    edges += [(i, j) for i in range(6, 12) for j in range(i + 1, 12)]
    edges.append((0, 6))
    return csr_of(edges)


@pytest.fixture()
def path_graph() -> CSRGraph:
    """A 5-node path: 0-1-2-3-4."""
    return csr_of([(i, i + 1) for i in range(4)])


@pytest.fixture()
def star_graph() -> CSRGraph:
    """A star: hub 0 with 6 leaves."""
    return csr_of([(0, i) for i in range(1, 7)])
