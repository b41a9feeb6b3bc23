"""Property-based tests for the ML substrate and stream transforms."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.events import EventStream
from repro.graph.transform import relabel_nodes, rescale_time, truncate
from repro.ml.scaling import StandardScaler
from repro.ml.svm import LinearSVM
from repro.util.bootstrap import bootstrap_ci


# -- strategies -------------------------------------------------------------

matrices = st.integers(5, 40).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda d: st.lists(
            st.lists(
                st.floats(-100, 100, allow_nan=False, allow_infinity=False),
                min_size=d, max_size=d,
            ),
            min_size=n, max_size=n,
        )
    )
)


@st.composite
def event_streams(draw):
    n = draw(st.integers(2, 20))
    times = sorted(draw(st.lists(
        st.floats(0, 50, allow_nan=False), min_size=n, max_size=n,
    )))
    nodes = [(t, i) for i, t in enumerate(times)]
    n_edges = draw(st.integers(0, 25))
    edges = []
    seen = set()
    for _ in range(n_edges):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v or (min(u, v), max(u, v)) in seen:
            continue
        seen.add((min(u, v), max(u, v)))
        t = max(times[u], times[v]) + draw(st.floats(0, 10, allow_nan=False))
        edges.append((t, u, v))
    edges.sort(key=lambda e: e[0])
    return EventStream.from_records(nodes=nodes, edges=edges)


# -- scaler ------------------------------------------------------------------


@given(matrices)
def test_scaler_output_standardized(rows):
    X = np.asarray(rows, dtype=float)
    scaler = StandardScaler()
    Z = scaler.fit_transform(X)
    assert Z.shape == X.shape
    assert np.all(np.isfinite(Z))
    # Columns the scaler itself chose to scale must come out standardized;
    # X.std() > 0 is not the right predicate because a column of identical
    # values can have a few-ulp std from floating-point summation.
    varying = scaler.scale_ != 1.0
    if varying.any():
        assert np.allclose(Z[:, varying].mean(axis=0), 0.0, atol=1e-8)
        assert np.allclose(Z[:, varying].std(axis=0), 1.0, atol=1e-8)


# -- svm ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_svm_separates_shifted_gaussians(seed):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(3, 1, (40, 2)), rng.normal(-3, 1, (40, 2))])
    y = np.array([1] * 40 + [-1] * 40)
    model = LinearSVM(seed=0).fit(X, y)
    assert (model.predict(X) == y).mean() > 0.9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_svm_predictions_are_signs(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(30, 3))
    y = np.where(X[:, 0] > 0, 1, -1)
    if np.unique(y).size < 2:
        return
    model = LinearSVM(seed=1, epochs=5).fit(X, y)
    assert set(model.predict(rng.normal(size=(10, 3)))) <= {-1, 1}


# -- bootstrap ------------------------------------------------------------------


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=100))
def test_bootstrap_bounds_ordered(samples):
    result = bootstrap_ci(samples, n_resamples=50, seed=0)
    assert result.low <= result.high
    assert np.isfinite(result.estimate)


# -- transforms -------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(event_streams(), st.floats(0.1, 10.0, allow_nan=False))
def test_rescale_preserves_counts(stream, factor):
    out = rescale_time(stream, factor)
    assert out.num_nodes == stream.num_nodes
    assert out.num_edges == stream.num_edges


@settings(max_examples=40, deadline=None)
@given(event_streams())
def test_relabel_is_dense_bijection(stream):
    out, mapping = relabel_nodes(stream)
    assert sorted(mapping.values()) == list(range(stream.num_nodes))
    out.validate()


@settings(max_examples=40, deadline=None)
@given(event_streams(), st.floats(0, 60, allow_nan=False))
def test_truncate_never_grows(stream, cut):
    out = truncate(stream, cut)
    assert out.num_nodes <= stream.num_nodes
    assert out.num_edges <= stream.num_edges
    assert all(t <= cut for t in out.nodes.time.tolist())
    out.validate()
