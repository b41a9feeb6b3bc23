"""Command-line interface: generate traces, inspect them, run experiments.

::

    python -m repro generate --preset small --seed 7 --out trace.tsv
    python -m repro info trace.tsv
    python -m repro metrics trace.tsv --interval 10
    python -m repro communities trace.tsv --delta 0.04
    python -m repro experiment F3c --preset small --seed 7
    python -m repro experiment all --preset tiny_merge
    python -m repro lint --format json
    python -m repro store convert trace.tsv trace.store
    python -m repro store info trace.store
    python -m repro store verify trace.store
    python -m repro metrics trace.tsv --trace run.trace.jsonl
    python -m repro trace summarize run.trace.jsonl
    python -m repro trace export run.trace.jsonl run.json
    python -m repro serve trace.store --port 8787 --workers 4 --warm metrics
    python -m repro loadgen --port 8787 --users 200 --duration 10
    python -m repro obs scrape --port 8787 --format json --out snap.json
    python -m repro obs diff before.json after.json --fail-above 0.10

Commands that read a trace (``info``, ``metrics``, ``communities``)
accept either a TSV file or a columnar store directory and detect which
one they were given.

Every command that replays events accepts ``--trace PATH`` to record a
structured execution trace (spans, counters, per-worker lanes — see
:mod:`repro.obs`); ``repro trace`` summarizes or re-exports a recorded
trace (a ``.json`` destination produces Chrome trace-event JSON loadable
in Perfetto / ``chrome://tracing``).

Installed as the ``repro`` console script.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections import Counter
from collections.abc import Iterator

import numpy as np

__all__ = ["main", "build_parser"]

_PRESETS = ("tiny", "tiny_merge", "small", "medium", "merge_study", "paper_scale_small", "huge")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Multi-scale Dynamics in a "
        "Massive Online Social Network' (IMC 2012).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic trace and write it out")
    _add_preset_args(gen)
    gen.add_argument("--out", required=True, help="output path (TSV file or store directory)")
    gen.add_argument(
        "--format", choices=("auto", "tsv", "store"), default="auto",
        help="output format; 'auto' writes a store when --out ends in .store",
    )
    gen.add_argument(
        "--engine", choices=("legacy", "fast"), default="legacy",
        help="generation engine: 'legacy' (per-event reference) or 'fast' "
        "(vectorized streaming; required at the 'huge' preset)",
    )

    info = sub.add_parser("info", help="validate a trace and print summary statistics")
    info.add_argument("trace", help="trace path (TSV or store)")
    _add_trace_arg(info)

    metrics = sub.add_parser("metrics", help="print Figure-1 metrics over time for a trace")
    metrics.add_argument("trace", help="trace path (TSV or store)")
    metrics.add_argument("--interval", type=float, default=10.0, help="snapshot cadence (days)")
    metrics.add_argument("--path-sample", type=int, default=200)
    metrics.add_argument("--clustering-sample", type=int, default=1500)
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument(
        "--json", action="store_true",
        help="emit times/values (and the profile, with --profile) as JSON",
    )
    _add_runtime_args(metrics)
    _add_profile_arg(metrics)
    _add_trace_arg(metrics)

    comm = sub.add_parser("communities", help="track communities over a trace")
    comm.add_argument("trace", help="trace path (TSV or store)")
    comm.add_argument("--interval", type=float, default=3.0)
    comm.add_argument("--delta", type=float, default=0.04)
    comm.add_argument("--min-size", type=int, default=10)
    comm.add_argument("--seed", type=int, default=0)
    _add_trace_arg(comm)

    exp = sub.add_parser("experiment", help="run a registered paper experiment (or 'all')")
    exp.add_argument("experiment", help="experiment id, e.g. F3c, or 'all'")
    _add_preset_args(exp)
    _add_runtime_args(exp)
    _add_profile_arg(exp)
    _add_trace_arg(exp)

    from repro.devtools.lint import configure_parser as _configure_lint_parser

    lint = sub.add_parser(
        "lint", help="static determinism & layering analysis of the repro tree"
    )
    _configure_lint_parser(lint)

    store = sub.add_parser("store", help="manage columnar event stores")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    convert = store_sub.add_parser(
        "convert", help="convert TSV -> store or store -> TSV (direction inferred)"
    )
    convert.add_argument("src", help="source trace (TSV file or store directory)")
    convert.add_argument("dst", help="destination path")
    convert.add_argument(
        "--chunk-events", type=int, default=None,
        help="events per column chunk (TSV -> store only)",
    )

    store_info = store_sub.add_parser("info", help="print a store's manifest summary")
    store_info.add_argument("path", help="store directory")

    verify = store_sub.add_parser(
        "verify", help="recompute checksums and digests; exit 1 on corruption"
    )
    verify.add_argument("path", help="store directory")

    serve = sub.add_parser(
        "serve", help="serve store queries over HTTP from memory-mapped data"
    )
    serve.add_argument("store", help="event store directory (.store)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8787, help="listen port (0 = kernel-assigned)"
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="shard worker processes; each memmaps the store and owns a "
        "deterministic hash-shard of the cache",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help="on-disk cache directory shared by the shards "
        "(default: $REPRO_CACHE_DIR if set)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk caches even if --cache-dir/$REPRO_CACHE_DIR is set",
    )
    serve.add_argument(
        "--warm", default="",
        help="comma-separated caches to precompute before accepting requests "
        "(metrics, communities)",
    )
    serve.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request worker budget in seconds (overruns answer 504)",
    )
    _add_trace_arg(serve)

    loadgen = sub.add_parser(
        "loadgen", help="drive a running serve instance with seeded closed-loop users"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True, help="server port")
    loadgen.add_argument("--users", type=int, default=100, help="concurrent simulated users")
    loadgen.add_argument("--duration", type=float, default=10.0, help="run length (seconds)")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--mix", choices=("mixed", "metrics", "scan"), default="mixed",
        help="per-user request-mix profile",
    )
    loadgen.add_argument(
        "--think", type=float, default=2.0, help="mean think time between requests (seconds)"
    )
    loadgen.add_argument(
        "--out", default=None, help="write the JSON report to PATH (default: stdout)"
    )
    _add_trace_arg(loadgen)

    trace = sub.add_parser("trace", help="inspect or re-export a recorded execution trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    summarize = trace_sub.add_parser(
        "summarize", help="print span/counter/lane tables for a JSONL trace"
    )
    summarize.add_argument("path", help="trace file written by --trace (JSONL)")

    export = trace_sub.add_parser(
        "export", help="re-export a JSONL trace (a .json destination -> Chrome trace JSON)"
    )
    export.add_argument("src", help="source trace file (JSONL)")
    export.add_argument("dst", help="destination (.json -> Chrome trace-event, else JSONL)")

    obs = sub.add_parser(
        "obs", help="scrape and compare live telemetry from a running serve instance"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    scrape = obs_sub.add_parser(
        "scrape", help="fetch /telemetry from a running server"
    )
    scrape.add_argument("--host", default="127.0.0.1")
    scrape.add_argument("--port", type=int, required=True, help="server port")
    scrape.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
        help="exposition format (json is the machine-diffable twin)",
    )
    scrape.add_argument(
        "--out", default=None, help="write the snapshot to PATH (default: stdout)"
    )

    diff = obs_sub.add_parser(
        "diff", help="compare two telemetry/trace snapshots as a regression table"
    )
    diff.add_argument("before", help="baseline snapshot (telemetry JSON or trace JSONL)")
    diff.add_argument("after", help="candidate snapshot (telemetry JSON or trace JSONL)")
    diff.add_argument(
        "--fail-above", type=float, default=None, metavar="FRACTION",
        help="exit 1 if any metric grew by more than FRACTION (e.g. 0.10 = +10%%)",
    )

    return parser


def _add_preset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=_PRESETS, default="small")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--nodes", type=int, default=None, help="override target_nodes")
    parser.add_argument("--days", type=float, default=None, help="override trace length")


def _add_runtime_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for metric evaluation (1 = in-process)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="on-disk result cache directory (default: $REPRO_CACHE_DIR if set)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even if --cache-dir/$REPRO_CACHE_DIR is set",
    )


def _add_profile_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help="print per-metric wall-time, per-worker attribution, and cache hit/miss counts",
    )


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", dest="trace_out", metavar="PATH", default=None,
        help="record an execution trace to PATH (.json -> Chrome trace-event "
             "JSON for Perfetto, anything else -> JSONL span log)",
    )


def _emit_profile(profile: dict | None) -> None:
    """Print the runtime profile table (diagnostics go to stderr, not stdout)."""
    if profile is None:
        print(
            "profile: unavailable (metrics were not evaluated via the runtime)",
            file=sys.stderr,
        )
        return
    from repro.obs import render_profile

    print(render_profile(profile))


@contextlib.contextmanager
def _traced(path: str | None) -> Iterator[None]:
    """Record a trace of the enclosed command when ``path`` is given.

    Installs a lane-0 ``main`` recorder for the command's duration, then
    writes the merged payload (parent lane plus any worker shards attached
    by the runtime) to ``path``.  The write-confirmation note goes to
    stderr so machine-readable stdout (``--json``) stays clean.
    """
    if path is None:
        yield
        return
    from repro.obs import TraceRecorder, peak_rss_bytes, use_recorder, write_trace

    recorder = TraceRecorder(lane=0, label="main")
    with use_recorder(recorder):
        try:
            yield
        finally:
            recorder.gauge("worker.peak_rss_bytes", peak_rss_bytes())
            fmt = write_trace(recorder.to_payload(), path)
            print(f"trace: wrote {fmt} trace to {path}", file=sys.stderr)


def _resolve_cache_dir(args: argparse.Namespace):
    """The effective cache directory: --no-cache wins, then --cache-dir, then env."""
    if args.no_cache:
        return None
    if args.cache_dir is not None:
        return args.cache_dir
    if os.environ.get("REPRO_CACHE_DIR"):
        from repro.runtime import default_cache_dir

        return default_cache_dir()
    return None


def _resolve_config(args: argparse.Namespace):
    from repro.gen.config import presets

    kwargs = {}
    if args.days is not None:
        kwargs["days"] = args.days
    if args.nodes is not None:
        kwargs["target_nodes"] = args.nodes
    return getattr(presets, args.preset)(**kwargs)


def _load_events(path: str):
    """Open ``path`` as whichever event container it is (TSV or store)."""
    from repro.store.convert import load_event_source

    return load_event_source(path)


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.gen.dispatch import generate, generate_store
    from repro.graph.stream_io import write_event_stream

    config = _resolve_config(args)
    fmt = args.format
    if fmt == "auto":
        fmt = "store" if str(args.out).endswith(".store") else "tsv"
    if fmt == "store":
        # Stream straight into the store — with the fast engine the trace
        # is never materialized, so 'huge' fits in a bounded memory budget.
        manifest = generate_store(config, args.out, seed=args.seed, engine=args.engine)
        n_nodes = sum(c.count for c in manifest.node_chunks)
        n_edges = sum(c.count for c in manifest.edge_chunks)
        end = max(
            (c.t_max for c in (*manifest.node_chunks, *manifest.edge_chunks)), default=0.0
        )
        print(f"wrote {n_nodes} nodes / {n_edges} edges "
              f"over {end:.1f} days to {args.out} (store, {args.engine})")
    else:
        stream = generate(config, seed=args.seed, engine=args.engine)
        write_event_stream(stream, args.out)
        print(f"wrote {stream.num_nodes} nodes / {stream.num_edges} edges "
              f"over {stream.end_time:.1f} days to {args.out} (tsv, {args.engine})")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.graph.dynamic import DynamicGraph
    from repro.store.convert import materialize

    with _traced(args.trace_out):
        stream = materialize(_load_events(args.trace))
        origins = Counter(ev.origin for ev in stream.nodes)
        graph = DynamicGraph(stream).final()
        degrees = np.array([len(nbrs) for nbrs in graph.adjacency.values()])
    print(f"trace      : {args.trace} (valid)")
    print(f"nodes      : {stream.num_nodes}  (origins: {dict(origins)})")
    print(f"edges      : {stream.num_edges}")
    print(f"span       : {stream.end_time:.1f} days")
    print(f"avg degree : {degrees.mean():.2f}  (max {degrees.max()})")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.metrics.timeseries import compute_metric_timeseries
    from repro.runtime import MetricSpec

    spec = MetricSpec(
        path_sample=args.path_sample,
        clustering_sample=args.clustering_sample,
        seed=args.seed,
    )
    with _traced(args.trace_out):
        stream = _load_events(args.trace)
        series = compute_metric_timeseries(
            stream,
            spec,
            interval=args.interval,
            workers=args.workers,
            cache_dir=_resolve_cache_dir(args),
        )
    if args.json:
        import json

        payload: dict = {"times": series.times, "values": series.values}
        if args.profile:
            payload["profile"] = series.profile
        print(json.dumps(payload, indent=2))
        return 0
    names = list(series.values)
    header = "day".rjust(8) + "".join(name.rjust(22) for name in names)
    print(header)
    for i, t in enumerate(series.times):
        row = f"{t:8.1f}"
        for name in names:
            row += f"{series.values[name][i]:22.4f}"
        print(row)
    if args.profile:
        _emit_profile(series.profile)
    return 0


def _cmd_communities(args: argparse.Namespace) -> int:
    from repro.community.tracking import track_stream
    from repro.store.convert import materialize

    with _traced(args.trace_out):
        stream = materialize(_load_events(args.trace))
        tracker = track_stream(
            stream, interval=args.interval, delta=args.delta,
            min_size=args.min_size, seed=args.seed,
        )
    print(f"{'day':>8} {'communities':>12} {'modularity':>11} {'similarity':>11}")
    for snap in tracker.snapshots:
        print(f"{snap.time:8.1f} {snap.num_communities:12d} "
              f"{snap.modularity:11.3f} {snap.avg_similarity:11.3f}")
    events = Counter(e.kind for e in tracker.events)
    print(f"events: {dict(events)}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint import run_from_args

    return run_from_args(args)


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import EventStore, StoreError

    if args.store_command == "convert":
        from repro.store.convert import convert_tsv_to_store, store_to_tsv
        from repro.store.format import DEFAULT_CHUNK_EVENTS

        if EventStore.is_store(args.src):
            if args.chunk_events is not None:
                print("error: --chunk-events only applies to TSV -> store", file=sys.stderr)
                return 2
            store = EventStore(args.src)
            store_to_tsv(store, args.dst)
            print(f"decoded {store.num_node_events} node / {store.num_edge_events} edge "
                  f"events from {args.src} to {args.dst} (tsv)")
            return 0
        chunk_events = args.chunk_events or DEFAULT_CHUNK_EVENTS
        manifest = convert_tsv_to_store(args.src, args.dst, chunk_events=chunk_events)
        chunks = len(manifest.node_chunks) + len(manifest.edge_chunks)
        print(f"wrote {manifest.num_node_events} node / {manifest.num_edge_events} edge "
              f"events to {args.dst} ({chunks} chunk(s), "
              f"digest {manifest.content_digest[:12]}...)")
        return 0

    try:
        store = EventStore(args.path)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.store_command == "verify":
        try:
            store.verify()
        except StoreError as exc:
            print(f"corrupt: {exc}", file=sys.stderr)
            return 1
        print(f"{args.path}: ok ({store.num_node_events} node / "
              f"{store.num_edge_events} edge events verified)")
        return 0

    from repro.store.format import FORMAT_NAME

    manifest = store.manifest
    on_disk = sum(
        f.stat().st_size for f in store.path.iterdir() if f.is_file()
    )
    print(f"store      : {store.path}")
    print(f"format     : {FORMAT_NAME} v{manifest.version}")
    print(f"nodes      : {manifest.num_node_events}  "
          f"(origins: {', '.join(manifest.origins) or '-'})")
    print(f"edges      : {manifest.num_edge_events}")
    print(f"span       : {store.end_time:.1f} days")
    print(f"chunks     : {len(manifest.node_chunks)} node + {len(manifest.edge_chunks)} edge")
    print(f"on disk    : {on_disk} bytes")
    print(f"digest     : {manifest.content_digest}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis import AnalysisContext, list_experiments, run_experiment

    config = _resolve_config(args)
    ctx = AnalysisContext(
        config,
        seed=args.seed,
        workers=args.workers,
        cache_dir=_resolve_cache_dir(args),
    )
    targets = list_experiments() if args.experiment == "all" else [args.experiment]
    status = 0
    with _traced(args.trace_out):
        for experiment in targets:
            try:
                run_experiment(experiment, ctx).print_summary()
            except KeyError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            except ValueError as exc:
                print(f"[{experiment}] skipped: {exc}")
                status = 0
        if args.profile:
            _emit_profile(ctx.metrics.profile)
    return status


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeConfig
    from repro.serve.server import run_server

    cache_dir = _resolve_cache_dir(args)
    warm = tuple(part for part in args.warm.split(",") if part)
    try:
        config = ServeConfig(
            store_path=args.store,
            host=args.host,
            port=args.port,
            workers=args.workers,
            cache_dir=None if cache_dir is None else str(cache_dir),
            timeout=args.timeout,
            warm=warm,
            trace=args.trace_out is not None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with _traced(args.trace_out):
        try:
            return asyncio.run(run_server(config))
        except KeyboardInterrupt:
            return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.serve.loadgen import LoadConfig, run_loadgen

    try:
        config = LoadConfig(
            host=args.host,
            port=args.port,
            users=args.users,
            duration=args.duration,
            seed=args.seed,
            mix=args.mix,
            think_mean=args.think,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with _traced(args.trace_out):
        report = run_loadgen(config)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"loadgen: wrote report to {args.out}", file=sys.stderr)
    else:
        print(text)
    agg = report["aggregate"]
    print(
        f"loadgen: {agg['requests']} requests in {agg['elapsed_seconds']:.1f}s "
        f"({agg['throughput_rps']:.1f} rps), p50 {agg['p50_ms']:.1f} ms / "
        f"p99 {agg['p99_ms']:.1f} ms, {agg['responses_5xx']} 5xx",
        file=sys.stderr,
    )
    return 1 if agg["responses_5xx"] else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import read_jsonl, render_trace, write_trace

    source = args.path if args.trace_command == "summarize" else args.src
    try:
        payload = read_jsonl(source)
    except OSError as exc:
        print(f"error: cannot read {source}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace_command == "summarize":
        print(render_trace(payload))
        return 0
    fmt = write_trace(payload, args.dst)
    print(f"wrote {fmt} trace to {args.dst}")
    return 0


def _scrape_telemetry(host: str, port: int, fmt: str) -> tuple[int, str]:
    """Blocking GET of ``/telemetry?format=...``; ``(status, body_text)``."""
    import socket

    from repro.serve.protocol import http_request, parse_response_head

    with socket.create_connection((host, port), timeout=30.0) as sock:
        sock.sendall(http_request(f"/telemetry?format={fmt}", host))
        buffer = b""
        while b"\r\n\r\n" not in buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-response")
            buffer += chunk
        head, _, body = buffer.partition(b"\r\n\r\n")
        status, headers = parse_response_head(head + b"\r\n\r\n")
        length = int(headers.get("content-length", "0"))
        while len(body) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            body += chunk
    return status, body.decode("utf-8")


def _load_snapshot(path: str) -> dict[str, float]:
    """Load a snapshot file as flattened dotted numeric rows.

    Accepts either a ``/telemetry`` JSON document (written by ``repro obs
    scrape --format json``) or a ``--trace`` JSONL file, detected by
    content: telemetry snapshots are a single JSON object, traces are
    JSONL records that :func:`repro.obs.read_jsonl` can aggregate.
    """
    import json

    from repro.obs import aggregate, flatten_numeric, read_jsonl

    with open(path, encoding="utf-8") as handle:
        first = handle.readline()
        rest = handle.read()
    try:
        doc = json.loads(first + rest)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        return flatten_numeric(doc)
    return flatten_numeric(aggregate(read_jsonl(path)))


def _cmd_obs(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import diff_rows, render_diff

    if args.obs_command == "scrape":
        try:
            status, body = _scrape_telemetry(args.host, args.port, args.format)
        except (OSError, ValueError) as exc:
            print(f"error: cannot scrape {args.host}:{args.port}: {exc}", file=sys.stderr)
            return 1
        if status != 200:
            print(f"error: /telemetry answered {status}: {body!r}", file=sys.stderr)
            return 1
        if args.out:
            Path(args.out).write_text(body if body.endswith("\n") else body + "\n",
                                      encoding="utf-8")
            print(f"obs: wrote {args.format} snapshot to {args.out}", file=sys.stderr)
        else:
            sys.stdout.write(body if body.endswith("\n") else body + "\n")
        return 0
    try:
        before = _load_snapshot(args.before)
        after = _load_snapshot(args.after)
    except OSError as exc:
        print(f"error: cannot read snapshot: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = diff_rows(before, after)
    print(render_diff(rows, threshold=args.fail_above))
    if args.fail_above is not None:
        regressed = [
            row["metric"] for row in rows
            if row["delta"] is not None and row["delta"] > args.fail_above
        ]
        if regressed:
            print(
                f"obs diff: {len(regressed)} metric(s) grew more than "
                f"{100.0 * args.fail_above:.1f}%",
                file=sys.stderr,
            )
            return 1
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "info": _cmd_info,
    "metrics": _cmd_metrics,
    "communities": _cmd_communities,
    "experiment": _cmd_experiment,
    "lint": _cmd_lint,
    "store": _cmd_store,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "trace": _cmd_trace,
    "obs": _cmd_obs,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly.  Point
        # stdout at devnull so interpreter shutdown doesn't re-raise on
        # the final flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
