"""Tests for repro.community.impact."""

import numpy as np
import pytest

from repro.community.impact import (
    SIZE_BUCKETS_PAPER,
    in_degree_ratio_by_size,
    interarrival_by_membership,
    lifetime_by_community_size,
    membership_of,
)


@pytest.fixture(scope="module")
def membership(tiny_tracker):
    return membership_of(tiny_tracker.snapshots[-1])


class TestMembership:
    def test_sizes_consistent(self, tiny_tracker, membership):
        snap = tiny_tracker.snapshots[-1]
        for lineage, state in snap.states.items():
            assert membership.size_of[lineage] == state.size

    def test_bucket_of_unknown_node(self, membership):
        assert membership.bucket_of(-1, SIZE_BUCKETS_PAPER) is None

    def test_bucket_boundaries(self, membership):
        buckets = ((10, 50), (50, float("inf")))
        for node in list(membership.community_of)[:50]:
            label = membership.bucket_of(node, buckets)
            size = membership.size_of[membership.community_of[node]]
            if size < 10:
                assert label is None
            elif size < 50:
                assert label == "[10,50]"
            else:
                assert label == "50+"


class TestInterarrival:
    def test_groups_present(self, tiny_stream, membership):
        groups = interarrival_by_membership(tiny_stream, membership)
        assert set(groups) == {"community", "non_community"}
        assert groups["community"].size > 0

    def test_community_users_faster(self, tiny_stream, membership):
        """Fig 7(a): community users have shorter inter-arrival gaps.

        The tiny fixture has few non-community gap samples, so the mean
        (dominated by the loner tail) is the stable statistic; the median
        comparison is asserted at bench scale (benchmarks/test_fig7.py).
        """
        groups = interarrival_by_membership(tiny_stream, membership)
        if groups["non_community"].size >= 30:
            assert np.mean(groups["community"]) <= 1.25 * np.mean(groups["non_community"])


class TestLifetime:
    def test_all_groups_returned(self, tiny_stream, membership):
        buckets = ((10, 50), (50, float("inf")))
        groups = lifetime_by_community_size(tiny_stream, membership, buckets=buckets)
        assert set(groups) == {"non_community", "[10,50]", "50+"}

    def test_lifetimes_nonnegative(self, tiny_stream, membership):
        groups = lifetime_by_community_size(tiny_stream, membership)
        for values in groups.values():
            if values.size:
                assert values.min() >= 0


class TestInDegreeRatio:
    def test_matches_dict_graph_count(self, tiny_graph, tiny_csr, membership):
        """Each user's share of neighbors in their own community, exactly."""
        buckets = ((10, 60), (60, float("inf")))
        want: dict[str, list[float]] = {"[10,60]": [], "60+": []}
        for node, community in membership.community_of.items():
            neighbors = tiny_graph.adjacency.get(node)
            label = membership.bucket_of(node, buckets)
            if not neighbors or label is None:
                continue
            inside = sum(1 for nbr in neighbors if membership.community_of.get(nbr) == community)
            want[label].append(inside / len(neighbors))
        got = in_degree_ratio_by_size(tiny_csr, membership, buckets=buckets)
        assert {key: values.tolist() for key, values in got.items()} == want

    def test_values_in_unit_interval(self, tiny_stream, tiny_csr, membership):
        groups = in_degree_ratio_by_size(tiny_csr, membership)
        for values in groups.values():
            if values.size:
                assert values.min() >= 0.0
                assert values.max() <= 1.0

    def test_larger_buckets_more_internal(self, tiny_csr, membership):
        """Fig 7(c)'s direction across the buckets that have data.

        Noise-tolerant at this 700-node scale; the strict direction is
        asserted at bench scale (benchmarks/test_fig7.py).
        """
        buckets = ((10, 60), (60, float("inf")))
        groups = in_degree_ratio_by_size(tiny_csr, membership, buckets=buckets)
        small, large = groups["[10,60]"], groups["60+"]
        if small.size >= 20 and large.size >= 20:
            assert large.mean() > small.mean() - 0.15
