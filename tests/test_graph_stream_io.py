"""Tests for repro.graph.stream_io."""

import pytest

from repro.graph.events import EventStream
from repro.graph.stream_io import iter_events, read_event_stream, write_event_stream


def test_roundtrip(tmp_path, tiny_stream):
    path = tmp_path / "trace.tsv"
    write_event_stream(tiny_stream, path)
    loaded = read_event_stream(path)
    assert loaded.nodes == tiny_stream.nodes
    assert loaded.edges == tiny_stream.edges


def test_roundtrip_preserves_origin(tmp_path):
    stream = EventStream.from_records(
        nodes=[(0.0, 0, "fivq"), (0.5, 1)],
        edges=[(1.0, 0, 1)],
    )
    path = tmp_path / "t.tsv"
    write_event_stream(stream, path)
    assert read_event_stream(path).nodes.origin_labels()[0] == "fivq"


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("# header\n\nN\t0.0\t0\txiaonei\n# trailing comment\n")
    loaded = read_event_stream(path)
    assert loaded.num_nodes == 1


@pytest.mark.parametrize(
    ("line", "reason"),
    [
        ("X\t0.0\t1", "unknown record type 'X'"),
        ("N\t0.0\t1", "expected 4 tab-separated fields, got 3"),
        ("E\t0.0\t1\t2\t3", "expected 4 tab-separated fields, got 5"),
        ("N\tzero\t0\txiaonei", "could not convert string to float"),
        ("E\t0.0\tone\t2", "invalid literal for int"),
    ],
)
def test_malformed_lines_raise_uniformly(tmp_path, line, reason):
    """Every malformed shape gives the same file:lineno-prefixed error."""
    path = tmp_path / "bad.tsv"
    path.write_text(f"# comment\n{line}\n")
    with pytest.raises(ValueError, match="malformed event line") as err:
        read_event_stream(path)
    message = str(err.value)
    assert message.startswith(f"{path}:2: "), message
    assert reason in message


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_event_stream(tmp_path / "nope.tsv")


def test_empty_file_is_valid_empty_stream(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    loaded = read_event_stream(path)
    assert loaded.num_nodes == 0 and loaded.num_edges == 0


def test_comment_only_file_is_valid_empty_stream(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("# repro-event-stream v1\n\n# nothing else\n")
    loaded = read_event_stream(path)
    assert loaded.num_nodes == 0 and loaded.num_edges == 0


def test_iter_events_preserves_file_order(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("N\t0.0\t0\txiaonei\nE\t1.0\t0\t1\nN\t2.0\t1\txiaonei\n")
    records = list(iter_events(path))
    assert records == [("N", 0.0, 0, "xiaonei"), ("E", 1.0, 0, 1), ("N", 2.0, 1, "xiaonei")]


def test_validation_catches_invalid_stream(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("N\t0.0\t0\txiaonei\nE\t1.0\t0\t7\n")
    with pytest.raises(ValueError, match="unknown node"):
        read_event_stream(path)
    # But reading without validation succeeds.
    loaded = read_event_stream(path, validate=False)
    assert loaded.num_edges == 1
