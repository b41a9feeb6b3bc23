"""Tests for repro.osnmerge.classify."""

from repro.graph.events import ORIGIN_5Q, ORIGIN_NEW, ORIGIN_XIAONEI
from repro.osnmerge.classify import EdgeClass, classify_edge, classify_edges


ORIGINS = {0: ORIGIN_XIAONEI, 1: ORIGIN_XIAONEI, 2: ORIGIN_5Q, 3: ORIGIN_5Q, 4: ORIGIN_NEW}


class TestClassifyEdge:
    def test_internal_xiaonei(self):
        assert classify_edge(0, 1, ORIGINS) is EdgeClass.INTERNAL

    def test_internal_5q(self):
        assert classify_edge(2, 3, ORIGINS) is EdgeClass.INTERNAL

    def test_external(self):
        assert classify_edge(0, 2, ORIGINS) is EdgeClass.EXTERNAL

    def test_new_dominates(self):
        assert classify_edge(0, 4, ORIGINS) is EdgeClass.NEW
        assert classify_edge(2, 4, ORIGINS) is EdgeClass.NEW


class TestClassifyEdges:
    def test_excludes_import_day(self, merge_stream, merge_day):
        classified = classify_edges(merge_stream, after=merge_day)
        assert all(t > merge_day + 1.0 for t, _, _, _ in classified)

    def test_explicit_cutoff(self, merge_stream, merge_day):
        classified = classify_edges(merge_stream, after=merge_day, organic_after=merge_day)
        assert any(t <= merge_day + 1.0 for t, _, _, _ in classified)

    def test_all_classes_present(self, merge_stream, merge_day):
        kinds = {kind for *_, kind in classify_edges(merge_stream, after=merge_day)}
        assert EdgeClass.NEW in kinds
        assert EdgeClass.INTERNAL in kinds
