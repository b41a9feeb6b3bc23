"""Tests for repro.store: format, writer, reader, converters, integrity."""

import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.events import EventStream
from repro.graph.stream_io import write_event_stream
from repro.store import (
    EventStore,
    Manifest,
    StoreError,
    StoreWriter,
    convert_tsv_to_store,
    load_event_source,
    materialize,
    store_to_tsv,
    write_store,
)
from repro.store.format import MANIFEST_NAME, MAX_ORIGINS


def small_stream() -> EventStream:
    return EventStream.from_records(
        nodes=[(0.0, 0), (0.5, 1, "fivq"), (1.0, 2), (2.0, 3, "new")],
        edges=[(1.0, 0, 1), (1.5, 1, 2), (2.5, 0, 3)],
    )


def no_nodes() -> dict:
    """An empty node batch for ``StoreWriter.append_arrays``."""
    return {
        "node_times": np.array([]),
        "node_ids": np.array([], dtype=np.int64),
        "node_origins": np.array([], dtype=np.int64),
    }


def edge_batch(times, us, vs) -> dict:
    """An edge batch for ``StoreWriter.append_arrays``."""
    return {"edge_times": np.array(times), "edge_us": np.array(us), "edge_vs": np.array(vs)}


# -- round-trip --------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("chunk_events", [1, 2, 3, 1000])
    def test_stream_roundtrip(self, tmp_path, chunk_events):
        stream = small_stream()
        write_store(stream, tmp_path / "s.store", chunk_events=chunk_events)
        store = EventStore(tmp_path / "s.store")
        decoded = store.to_stream(validate=True)
        assert decoded.nodes == stream.nodes
        assert decoded.edges == stream.edges

    def test_tiny_stream_roundtrip(self, tmp_path, tiny_stream):
        write_store(tiny_stream, tmp_path / "s.store", chunk_events=257)
        decoded = EventStore(tmp_path / "s.store").to_stream()
        assert decoded.nodes == tiny_stream.nodes
        assert decoded.edges == tiny_stream.edges

    def test_merge_stream_preserves_origins(self, tmp_path, merge_stream):
        write_store(merge_stream, tmp_path / "s.store", chunk_events=499)
        decoded = EventStore(tmp_path / "s.store").to_stream()
        assert decoded.node_origins() == merge_stream.node_origins()

    def test_empty_stream_roundtrip(self, tmp_path):
        write_store(EventStream(), tmp_path / "s.store")
        store = EventStore(tmp_path / "s.store")
        assert store.num_node_events == 0 and store.num_edge_events == 0
        assert store.end_time == 0.0
        decoded = store.to_stream()
        assert decoded.num_nodes == 0 and decoded.num_edges == 0
        store.verify()

    def test_tsv_convert_roundtrip_is_byte_identical(self, tmp_path, tiny_stream):
        tsv = tmp_path / "t.tsv"
        write_event_stream(tiny_stream, tsv)
        convert_tsv_to_store(tsv, tmp_path / "t.store", chunk_events=300, batch_events=64)
        back = tmp_path / "back.tsv"
        store_to_tsv(EventStore(tmp_path / "t.store"), back)
        assert back.read_bytes() == tsv.read_bytes()

    def test_load_event_source_detects_both(self, tmp_path, tiny_stream):
        tsv = tmp_path / "t.tsv"
        write_event_stream(tiny_stream, tsv)
        write_store(tiny_stream, tmp_path / "t.store")
        assert isinstance(load_event_source(tsv), EventStream)
        source = load_event_source(tmp_path / "t.store")
        assert isinstance(source, EventStore)
        assert materialize(source).nodes == tiny_stream.nodes
        assert materialize(tiny_stream) is tiny_stream


# -- digest parity -----------------------------------------------------------


class TestDigestParity:
    def test_manifest_digest_equals_stream_digest(self, tmp_path, tiny_stream):
        manifest = write_store(tiny_stream, tmp_path / "s.store", chunk_events=311)
        assert manifest.content_digest == tiny_stream.content_digest()

    def test_digest_parity_with_merge_origins(self, tmp_path, merge_stream):
        manifest = write_store(merge_stream, tmp_path / "s.store", chunk_events=123)
        assert manifest.content_digest == merge_stream.content_digest()

    @pytest.mark.parametrize("chunk_events", [1, 2, 7, 1000])
    def test_digest_independent_of_chunking(self, tmp_path, chunk_events):
        stream = small_stream()
        manifest = write_store(stream, tmp_path / f"c{chunk_events}", chunk_events=chunk_events)
        assert manifest.content_digest == stream.content_digest()

    def test_to_stream_preseeds_digest(self, tmp_path, tiny_stream):
        write_store(tiny_stream, tmp_path / "s.store")
        store = EventStore(tmp_path / "s.store")
        decoded = store.to_stream()
        assert decoded._digest == store.content_digest
        assert decoded.content_digest() == tiny_stream.content_digest()

    def test_partial_slice_does_not_inherit_digest(self, tmp_path, tiny_stream):
        write_store(tiny_stream, tmp_path / "s.store")
        store = EventStore(tmp_path / "s.store")
        partial = store.slice_events(0, store.num_node_events - 1, 0, store.num_edge_events)
        assert partial.content_digest() != store.content_digest


# -- property-based ----------------------------------------------------------

event_streams = st.builds(
    lambda node_times, edge_times, origins: EventStream.from_records(
        nodes=[(t, i, origins[i % len(origins)]) for i, t in enumerate(sorted(node_times))],
        edges=[(t, 2 * i, 2 * i + 1) for i, t in enumerate(sorted(edge_times))],
    ),
    node_times=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=0, max_size=40
    ),
    edge_times=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=0, max_size=40
    ),
    origins=st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="\x00"),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=4,
    ),
)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(stream=event_streams, chunk_events=st.integers(1, 50))
    def test_roundtrip_and_digest(self, tmp_path_factory, stream, chunk_events):
        root = tmp_path_factory.mktemp("prop")
        manifest = write_store(stream, root / "s.store", chunk_events=chunk_events)
        store = EventStore(root / "s.store")
        decoded = store.to_stream()
        assert decoded.nodes == stream.nodes
        assert decoded.edges == stream.edges
        assert manifest.content_digest == stream.content_digest()
        store.verify()

    @settings(max_examples=25, deadline=None)
    @given(
        stream=event_streams,
        chunk_events=st.integers(1, 50),
        window=st.tuples(
            st.floats(min_value=-1.0, max_value=101.0, allow_nan=False),
            st.floats(min_value=-1.0, max_value=101.0, allow_nan=False),
        ),
    )
    def test_window_scans_match_brute_force(self, tmp_path_factory, stream, chunk_events, window):
        start, end = sorted(window)
        root = tmp_path_factory.mktemp("win")
        write_store(stream, root / "s.store", chunk_events=chunk_events)
        store = EventStore(root / "s.store")
        times, nodes, _ = store.nodes_in(start, end)
        expected = [
            (t, n)
            for t, n in zip(stream.nodes.time.tolist(), stream.nodes.node.tolist())
            if start <= t <= end
        ]
        assert list(zip(times.tolist(), nodes.tolist())) == expected
        etimes, us, vs = store.edges_in(start, end)
        edges = stream.edges
        eexpected = [
            (t, u, v)
            for t, u, v in zip(edges.time.tolist(), edges.u.tolist(), edges.v.tolist())
            if start <= t <= end
        ]
        assert list(zip(etimes.tolist(), us.tolist(), vs.tolist())) == eexpected
        node_count, edge_count = store.index_at(end)
        assert node_count == sum(1 for t in stream.nodes.time.tolist() if t <= end)
        assert edge_count == sum(1 for t in stream.edges.time.tolist() if t <= end)


# -- index scans -------------------------------------------------------------


class TestDecodeOwnership:
    """Decoded streams own their arrays: no view into a mapped chunk file."""

    def test_decoded_streams_share_no_memory_with_the_store(self, tmp_path, tiny_stream):
        path = tmp_path / "s.store"
        write_store(tiny_stream, path, chunk_events=1 << 20)  # one chunk per kind
        store = EventStore(path)
        full = store.to_stream()
        part = store.slice_events(3, 40, 5, 60)  # a range inside one chunk
        mapped = [*store._nodes.map(0).values(), *store._edges.map(0).values()]
        for stream in (full, part):
            nodes, edges = stream.nodes, stream.edges
            for col in (nodes.time, nodes.node, nodes.origin, edges.time, edges.u, edges.v):
                assert not any(np.shares_memory(col, view) for view in mapped)

    def test_decoded_streams_survive_the_store(self, tmp_path, tiny_stream):
        path = tmp_path / "s.store"
        manifest = write_store(tiny_stream, path, chunk_events=1 << 20)
        store = EventStore(path)
        full = store.to_stream()
        part = store.slice_events(3, 40, 5, 60)
        # Zero every chunk in place (a mapping would see it), then delete.
        for chunk in (*manifest.node_chunks, *manifest.edge_chunks):
            chunk_path = path / chunk.file
            chunk_path.write_bytes(bytes(chunk_path.stat().st_size))
        shutil.rmtree(path)
        assert full == tiny_stream
        assert EventStream(full.nodes, full.edges).content_digest() == manifest.content_digest
        assert part.nodes == tiny_stream.nodes[3:40]
        assert part.edges == tiny_stream.edges[5:60]


class TestScans:
    def test_slice_events_by_index(self, tmp_path, tiny_stream):
        write_store(tiny_stream, tmp_path / "s.store", chunk_events=100)
        store = EventStore(tmp_path / "s.store")
        sub = store.slice_events(5, 250, 10, 333)
        assert sub.nodes == tiny_stream.nodes[5:250]
        assert sub.edges == tiny_stream.edges[10:333]

    def test_slice_events_clamps_out_of_range(self, tmp_path):
        stream = small_stream()
        write_store(stream, tmp_path / "s.store", chunk_events=2)
        store = EventStore(tmp_path / "s.store")
        sub = store.slice_events(-5, 99, 2, 99)
        assert sub.nodes == stream.nodes
        assert sub.edges == stream.edges[2:]

    def test_index_at_matches_dynamic_graph_cursors(self, tmp_path, tiny_stream):
        from repro.graph.dynamic import DynamicGraph

        write_store(tiny_stream, tmp_path / "s.store", chunk_events=100)
        store = EventStore(tmp_path / "s.store")
        replay = DynamicGraph(tiny_stream)
        for t in (0.0, 10.0, 30.5, 60.0):
            replay.advance_to(t)
            assert store.index_at(t) == (replay.node_cursor, replay.edge_cursor)

    def test_node_and_edge_arrays(self, tmp_path):
        stream = small_stream()
        write_store(stream, tmp_path / "s.store", chunk_events=2)
        store = EventStore(tmp_path / "s.store")
        times, nodes, codes = store.node_arrays()
        assert times.tolist() == stream.nodes.time.tolist()
        assert nodes.tolist() == stream.nodes.node.tolist()
        labels = store.origins
        assert [labels[c] for c in codes.tolist()] == stream.nodes.origin_labels()
        etimes, us, vs = store.edge_arrays()
        assert etimes.tolist() == stream.edges.time.tolist()
        assert us.tolist() == stream.edges.u.tolist()
        assert vs.tolist() == stream.edges.v.tolist()


# -- writer misuse -----------------------------------------------------------


class TestWriter:
    def test_out_of_order_batch_rejected(self, tmp_path):
        with StoreWriter(tmp_path / "s.store") as writer:
            codes = writer.intern_origins(["xiaonei", "xiaonei"])
            with pytest.raises(ValueError, match="not sorted"):
                writer.append_arrays(
                    node_times=np.array([2.0, 1.0]), node_ids=np.array([0, 1]), node_origins=codes
                )
            writer.append_arrays(**no_nodes())

    def test_batch_predating_previous_rejected(self, tmp_path):
        with StoreWriter(tmp_path / "s.store") as writer:
            writer.append_arrays(**edge_batch([5.0], [0], [1]))
            with pytest.raises(ValueError, match="time order"):
                writer.append_arrays(**edge_batch([4.0], [1], [2]))

    def test_mismatched_column_lengths_rejected(self, tmp_path):
        with StoreWriter(tmp_path / "s.store") as writer:
            with pytest.raises(ValueError, match="mismatched lengths"):
                writer.append_arrays(**edge_batch([1.0, 2.0], [0], [1]))

    def test_closed_writer_rejects_appends(self, tmp_path):
        writer = StoreWriter(tmp_path / "s.store")
        writer.close()
        with pytest.raises(StoreError, match="closed"):
            writer.append_arrays(**edge_batch([0.0], [0], [1]))
        with pytest.raises(StoreError, match="closed"):
            writer.close()

    def test_refuses_to_overwrite_existing_store(self, tmp_path):
        write_store(small_stream(), tmp_path / "s.store")
        with pytest.raises(StoreError, match="refusing to overwrite"):
            StoreWriter(tmp_path / "s.store")

    def test_invalid_chunk_events(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_events"):
            StoreWriter(tmp_path / "s.store", chunk_events=0)

    def test_aborted_writer_leaves_no_manifest(self, tmp_path):
        with pytest.raises(RuntimeError, match="boom"):
            with StoreWriter(tmp_path / "s.store", chunk_events=1) as writer:
                writer.append_arrays(**edge_batch([0.0], [0], [1]))
                raise RuntimeError("boom")
        assert not EventStore.is_store(tmp_path / "s.store")
        with pytest.raises(StoreError, match="not an event store"):
            EventStore(tmp_path / "s.store")

    def test_intern_origins_raises_when_table_full(self, tmp_path):
        # One short of the table limit is fine; the next distinct label
        # must raise a typed StoreError, not wrap into the uint16 space.
        with StoreWriter(tmp_path / "s.store") as writer:
            labels = [f"origin-{i}" for i in range(MAX_ORIGINS)]
            codes = writer.intern_origins(labels)
            assert codes.dtype == np.dtype("<u2")
            assert int(codes[-1]) == MAX_ORIGINS - 1
            with pytest.raises(StoreError, match="string table is full"):
                writer.intern_origins(["one-label-too-many"])
            writer.append_arrays(**no_nodes())

    def test_append_arrays_rejects_uninterned_codes(self, tmp_path):
        # Regression: the uint16 cast used to happen *before* the range
        # check, so an out-of-range code wrapped modulo 2**16 into a
        # valid-looking small code instead of raising.
        with StoreWriter(tmp_path / "s.store") as writer:
            writer.intern_origins(["xiaonei", "fivq"])
            for bad in ([2], [1 << 16], [-1]):
                with pytest.raises(StoreError, match="not interned"):
                    writer.append_arrays(
                        node_times=np.array([0.0]),
                        node_ids=np.array([0]),
                        node_origins=np.array(bad, dtype=np.int64),
                    )
            writer.append_arrays(**no_nodes())

    def test_append_arrays_roundtrips_interned_codes(self, tmp_path):
        with StoreWriter(tmp_path / "s.store") as writer:
            codes = writer.intern_origins(["xiaonei", "fivq", "xiaonei"])
            writer.append_arrays(
                node_times=np.array([0.0, 1.0, 2.0]),
                node_ids=np.array([0, 1, 2]),
                node_origins=codes,
            )
        decoded = EventStore(tmp_path / "s.store").to_stream()
        assert decoded.nodes.origin_labels() == ["xiaonei", "fivq", "xiaonei"]

    def test_chunk_files_are_exactly_sized(self, tmp_path, tiny_stream):
        manifest = write_store(tiny_stream, tmp_path / "s.store", chunk_events=100)
        for chunk in manifest.node_chunks[:-1]:
            assert chunk.count == 100
        assert sum(c.count for c in manifest.node_chunks) == tiny_stream.num_nodes
        assert sum(c.count for c in manifest.edge_chunks) == tiny_stream.num_edges


# -- corruption & integrity --------------------------------------------------


def _patch_manifest(store_path, mutate):
    """Load, mutate, and rewrite a store's manifest JSON."""
    path = store_path / MANIFEST_NAME
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))


@pytest.fixture()
def stored(tmp_path):
    """A small multi-chunk store on disk, plus its source stream."""
    stream = small_stream()
    write_store(stream, tmp_path / "s.store", chunk_events=2)
    return tmp_path / "s.store", stream


class TestCorruption:
    def test_truncated_chunk_fails_at_open(self, stored):
        path, _ = stored
        chunk = path / "edge-000000.bin"
        chunk.write_bytes(chunk.read_bytes()[:-8])
        with pytest.raises(StoreError, match="edge-000000.bin") as err:
            EventStore(path)
        assert err.value.chunk == "edge-000000.bin"
        assert "truncated" in str(err.value)

    def test_missing_chunk_fails_at_open(self, stored):
        path, _ = stored
        (path / "node-000001.bin").unlink()
        with pytest.raises(StoreError, match="missing chunk file node-000001.bin"):
            EventStore(path)

    def test_bit_flip_caught_by_verify(self, stored):
        path, _ = stored
        chunk = path / "node-000000.bin"
        blob = bytearray(chunk.read_bytes())
        blob[16] ^= 0x01  # flip one bit inside the node-id column
        chunk.write_bytes(bytes(blob))
        store = EventStore(path)  # size unchanged: open succeeds
        with pytest.raises(StoreError, match="checksum mismatch") as err:
            store.verify()
        assert err.value.chunk == "node-000000.bin"

    def test_stale_time_metadata_caught_by_verify(self, stored):
        path, _ = stored

        def mutate(payload):
            chunk = payload["nodes"]["chunks"][0]
            chunk["t_max"] = chunk["t_max"] + 1.0

        _patch_manifest(path, mutate)
        with pytest.raises(StoreError, match="stale manifest"):
            EventStore(path).verify()

    def test_tampered_digest_caught_by_verify(self, stored):
        path, _ = stored
        _patch_manifest(path, lambda p: p.update(content_digest="0" * 64))
        with pytest.raises(StoreError, match="does not match the manifest"):
            EventStore(path).verify()

    def test_version_mismatch_fails_at_open(self, stored):
        path, _ = stored
        _patch_manifest(path, lambda p: p.update(version=99))
        with pytest.raises(StoreError, match="version 99"):
            EventStore(path)

    def test_wrong_format_name_fails_at_open(self, stored):
        path, _ = stored
        _patch_manifest(path, lambda p: p.update(format="something-else"))
        with pytest.raises(StoreError, match="not a repro-event-store manifest"):
            EventStore(path)

    def test_garbage_manifest_fails_at_open(self, stored):
        path, _ = stored
        (path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(StoreError, match="not valid JSON"):
            EventStore(path)

    def test_count_mismatch_fails_at_open(self, stored):
        path, _ = stored
        _patch_manifest(path, lambda p: p["nodes"].update(count=999))
        with pytest.raises(StoreError, match="disagree"):
            EventStore(path)

    def test_missing_manifest_field_fails_at_open(self, stored):
        path, _ = stored
        _patch_manifest(path, lambda p: p.pop("origins"))
        with pytest.raises(StoreError, match="missing or mistypes"):
            EventStore(path)

    def test_out_of_table_origin_code_caught(self, stored):
        path, _ = stored
        import hashlib

        chunk = path / "node-000000.bin"
        blob = bytearray(chunk.read_bytes())
        # Columns: time f8 x2 | node i8 x2 | origin u2 x2 — poke the first
        # origin code past the string table, then re-sign the chunk so the
        # checksum pass cannot be the one that catches it.
        blob[-4:-2] = (60000).to_bytes(2, "little")
        chunk.write_bytes(bytes(blob))
        _patch_manifest(
            path,
            lambda p: p["nodes"]["chunks"][0].update(
                sha256=hashlib.sha256(bytes(blob)).hexdigest()
            ),
        )
        store = EventStore(path)
        with pytest.raises(StoreError, match="origin code"):
            store.verify()
        with pytest.raises(StoreError, match="origin code"):
            store.to_stream()

    def test_unsorted_chunk_times_caught(self, stored):
        path, _ = stored
        import hashlib

        chunk = path / "edge-000000.bin"
        blob = bytearray(chunk.read_bytes())
        blob[0:8] = np.float64(9.0).tobytes()  # first time now exceeds the second
        chunk.write_bytes(bytes(blob))
        _patch_manifest(
            path,
            lambda p: p["edges"]["chunks"][0].update(
                sha256=hashlib.sha256(bytes(blob)).hexdigest()
            ),
        )
        with pytest.raises(StoreError, match="not sorted"):
            EventStore(path).verify()

    def test_is_store_on_plain_directory(self, tmp_path):
        assert not EventStore.is_store(tmp_path)
        assert not EventStore.is_store(tmp_path / "missing")


class TestVerifyModes:
    """The ``verify="eager"|"lazy"`` contract of :class:`EventStore`."""

    def _flip_bit(self, path):
        chunk = path / "node-000000.bin"
        blob = bytearray(chunk.read_bytes())
        blob[16] ^= 0x01  # same-size corruption: open's stat checks pass
        chunk.write_bytes(bytes(blob))

    def test_lazy_open_succeeds_but_first_read_catches_corruption(self, stored):
        path, _ = stored
        self._flip_bit(path)
        store = EventStore(path)  # lazy is the default: open is stat-only
        with pytest.raises(StoreError, match="checksum mismatch") as err:
            store.node_arrays()
        assert err.value.chunk == "node-000000.bin"

    def test_lazy_window_scan_catches_corruption_on_first_touch(self, stored):
        path, _ = stored
        self._flip_bit(path)
        store = EventStore(path, verify="lazy")
        with pytest.raises(StoreError, match="checksum mismatch"):
            store.nodes_in(0.0, 10.0)

    def test_eager_open_catches_corruption_immediately(self, stored):
        path, _ = stored
        self._flip_bit(path)
        with pytest.raises(StoreError, match="checksum mismatch"):
            EventStore(path, verify="eager")

    def test_lazy_untouched_chunks_are_never_hashed(self, stored):
        # Corrupt a *late* node chunk, then scan only the first chunk's
        # window: lazy mode must not pay for (or trip over) chunks the
        # scan never maps.
        path, stream = stored
        chunk = path / "node-000001.bin"
        blob = bytearray(chunk.read_bytes())
        blob[0] ^= 0x01
        chunk.write_bytes(bytes(blob))
        store = EventStore(path, verify="lazy")
        times, nodes, _ = store.nodes_in(0.0, 0.5)  # chunk 0 only (2 events/chunk)
        assert nodes.tolist() == [0, 1]
        with pytest.raises(StoreError, match="node-000001.bin"):
            store.node_arrays()

    def test_verify_mode_value_checked(self, stored):
        path, _ = stored
        with pytest.raises(ValueError, match="verify must be one of"):
            EventStore(path, verify="sometimes")

    def test_manifest_cache_shares_parse_and_invalidates_on_rewrite(self, stored):
        from repro.store import reader

        path, _ = stored
        reader._MANIFEST_CACHE.clear()
        first = EventStore(path)
        second = EventStore(path)
        assert first.manifest is second.manifest  # one parse, shared object
        # Rewriting the manifest changes its stat signature -> fresh parse.
        manifest_path = path / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text())
        manifest_path.write_text(json.dumps(payload, indent=4))
        reopened = EventStore(path)
        assert reopened.manifest is not first.manifest
        assert reopened.manifest.content_digest == first.manifest.content_digest


class TestManifest:
    def test_json_roundtrip(self, tmp_path, tiny_stream):
        written = write_store(tiny_stream, tmp_path / "s.store", chunk_events=200)
        text = (tmp_path / "s.store" / MANIFEST_NAME).read_text()
        parsed = Manifest.from_json(text)
        assert parsed == written
