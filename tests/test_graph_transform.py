"""Tests for repro.graph.transform."""

import pytest

from repro.graph.transform import relabel_nodes, rescale_time, subsample_nodes, truncate


class TestRescaleTime:
    def test_scales_all_events(self, tiny_stream):
        out = rescale_time(tiny_stream, 2.0)
        assert out.end_time == pytest.approx(2.0 * tiny_stream.end_time)
        assert out.num_nodes == tiny_stream.num_nodes
        assert out.num_edges == tiny_stream.num_edges

    def test_rejects_nonpositive(self, tiny_stream):
        with pytest.raises(ValueError):
            rescale_time(tiny_stream, 0.0)

    def test_original_untouched(self, tiny_stream):
        end = tiny_stream.end_time
        rescale_time(tiny_stream, 3.0)
        assert tiny_stream.end_time == end


class TestSubsample:
    def test_fraction_respected(self, tiny_stream):
        out = subsample_nodes(tiny_stream, 0.5, seed=0)
        assert out.num_nodes == pytest.approx(tiny_stream.num_nodes * 0.5, rel=0.2)

    def test_result_valid(self, tiny_stream):
        subsample_nodes(tiny_stream, 0.3, seed=1).validate()

    def test_full_fraction_identity(self, tiny_stream):
        out = subsample_nodes(tiny_stream, 1.0, seed=0)
        assert out.num_nodes == tiny_stream.num_nodes
        assert out.num_edges == tiny_stream.num_edges

    def test_rejects_bad_fraction(self, tiny_stream):
        with pytest.raises(ValueError):
            subsample_nodes(tiny_stream, 0.0)

    def test_deterministic(self, tiny_stream):
        a = subsample_nodes(tiny_stream, 0.4, seed=9)
        b = subsample_nodes(tiny_stream, 0.4, seed=9)
        assert a.nodes == b.nodes


class TestRelabel:
    def test_dense_ids(self, tiny_stream):
        sub = subsample_nodes(tiny_stream, 0.5, seed=0)
        out, mapping = relabel_nodes(sub)
        ids = out.nodes.node.tolist()
        assert ids == list(range(len(ids)))
        assert len(mapping) == out.num_nodes

    def test_edges_follow_mapping(self, tiny_stream):
        out, mapping = relabel_nodes(tiny_stream)
        original, relabeled = tiny_stream.edges, out.edges
        assert int(relabeled.u[0]) == mapping[int(original.u[0])]
        assert int(relabeled.v[0]) == mapping[int(original.v[0])]


class TestTruncate:
    def test_cut_point(self, tiny_stream):
        cut = tiny_stream.end_time / 2
        out = truncate(tiny_stream, cut)
        assert out.end_time <= cut
        assert out.num_nodes < tiny_stream.num_nodes

    def test_truncate_everything(self, tiny_stream):
        out = truncate(tiny_stream, -1.0)
        assert out.num_nodes == 0 and out.num_edges == 0

    def test_truncate_nothing(self, tiny_stream):
        out = truncate(tiny_stream, tiny_stream.end_time + 1)
        assert out.num_edges == tiny_stream.num_edges
