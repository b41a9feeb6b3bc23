"""Workload ``ingest``: generate -> store -> read with the fast engine.

One repetition streams a ``presets.small`` trace from
``FastGenerator.generate_to_store`` into a fresh store directory, then
reads it back the way serve's shards and the runtime do: open the store,
``verify()`` every checksum and the content digest, decode it with
``to_stream()``, and materialize windowed ``slice_events`` ranges.  It is
the write-heavy user of ``repro.store`` and never touches kernels or the
analysis layer.
"""

from __future__ import annotations

import shutil
from contextlib import nullcontext

from repro.gen.config import presets
from repro.gen.fast import FastGenerator
from repro.graph.events import EventStream
from repro.obs import perf_counter
from repro.store.convert import write_store
from repro.store.reader import EventStore

from common import Calibrator, Result, Stages, Workspace, median, self_peak_rss_mb, traced

WRITE_STAGE = "gen.generate_to_store_s"
READ_STAGES = ("store.open_s", "store.verify_s", "store.to_stream_s", "store.slice_s")
STAGES = (WRITE_STAGE, *READ_STAGES)

#: Windows materialized per repetition by ``slice_events``.
SLICE_WINDOWS = 16

#: Set-up repetitions: discarded warm-up repetitions at the measured size.
SETUP_REPEATS = 5


def _slices(store: EventStore) -> int:
    """Materialize ``SLICE_WINDOWS`` equal time windows; returns events seen."""
    seen = 0
    step = store.end_time / SLICE_WINDOWS
    lo = (0, 0)
    for window in range(1, SLICE_WINDOWS + 1):
        hi = store.index_at(step * window)
        stream = store.slice_events(lo[0], hi[0], lo[1], hi[1])
        seen += len(stream.nodes) + len(stream.edges)
        lo = hi
    return seen


class Repetition:
    """One generate -> store -> read repetition in a fresh directory."""

    def __init__(self, workspace: Workspace, stages: Stages, seed: int) -> None:
        self.workspace = workspace
        self.stages = stages
        self.seed = seed
        self.path = workspace.fresh("store")
        self.digest = ""
        self.events = 0
        self.bytes = 0
        self.chunks = 0
        self.problems: list[str] = []

    def run(self) -> EventStream:
        """The timed stages; returns the decoded stream."""
        stages = self.stages
        with stages.stage(WRITE_STAGE):
            manifest = FastGenerator(presets.small(), seed=self.seed).generate_to_store(
                self.path
            )
        self.events = manifest.num_node_events + manifest.num_edge_events
        with stages.stage("store.open_s"):
            store = EventStore(self.path)
        with stages.stage("store.verify_s"):
            store.verify()
        with stages.stage("store.to_stream_s"):
            stream = store.to_stream()
        with stages.stage("store.slice_s"):
            sliced = _slices(store)
        self.digest = store.content_digest
        self.bytes = sum(f.stat().st_size for f in self.path.iterdir())
        self.chunks = len(manifest.node_chunks) + len(manifest.edge_chunks)
        decoded = len(stream.nodes) + len(stream.edges)
        if decoded != self.events or sliced != self.events:
            self.problems.append(
                f"decoded {decoded} and sliced {sliced} of {self.events} events"
            )
        shutil.rmtree(self.path, ignore_errors=True)
        return stream

    def rewrite(self, stream: EventStream, timed: bool) -> None:
        """Re-write ``stream`` through ``write_store`` and check its digest.

        Timed, the writer alone separates its share of ``generate_to_store``
        from the generator's; untraced repetitions run it outside every stage.
        """
        copy = self.workspace.fresh("rewrite")
        with self.stages.stage("store.write_store_s") if timed else nullcontext():
            rewritten = write_store(stream, copy)
        if rewritten.content_digest != self.digest:
            self.problems.append("re-written store digest differs from the original")
        shutil.rmtree(copy, ignore_errors=True)


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    calibrator = Calibrator()
    with Workspace() as workspace:
        setup = []
        for _ in range(SETUP_REPEATS):
            calibrator.probe()
            began = perf_counter()
            Repetition(workspace, Stages(calibrator), seed).run()
            setup.append(calibrator.rescale(perf_counter() - began))

        untraced, traced_stages = Stages(calibrator), Stages(calibrator)
        reference = ""
        began = perf_counter()
        reps = 0
        while reps < 2 or perf_counter() - began < seconds:
            traced_rep = trace and reps % 2 == 1
            stages = traced_stages if traced_rep else untraced
            rep = Repetition(workspace, stages, seed)
            with traced(traced_rep):
                with stages.repetition():
                    stream = rep.run()
                rep.rewrite(stream, timed=traced_rep)
            del stream
            reps += 1
            reference = reference or rep.digest
            result.attempt(rep.digest == reference, "store digest differs between repetitions")
            result.attempt(not rep.problems, "; ".join(rep.problems))

    if not trace:
        result.put("setup_s", median(setup), "s")
        result.put("peak_rss_mb", self_peak_rss_mb(), "MB")
        result.put("primary_ms", 1000.0 * untraced.median(WRITE_STAGE), "ms")
        result.put("secondary_ms", 1000.0 * untraced.total(READ_STAGES), "ms")
        return result

    result.ledger("ingest", STAGES, untraced, traced_stages)
    result.put("store.write_store_s", traced_stages.median("store.write_store_s"), "s")
    result.put("events", rep.events, "count")
    result.put("events_per_s", rep.events / untraced.median(WRITE_STAGE), "1/s")
    result.put("read_events_per_s", rep.events / untraced.total(READ_STAGES), "1/s")
    result.put("store_bytes_per_event", rep.bytes / rep.events, "B")
    result.put("chunks", rep.chunks, "count")
    return result
