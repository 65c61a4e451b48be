"""Command-line front ends: ``repro serve`` and ``repro bench-serve``."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, TextIO

from repro.serve.models import distribution_from_spec
from repro.serve.protocol import costs_from_payload
from repro.serve.registry import TenantRegistry, demo_registry, distribution_specs
from repro.serve.batcher import DEFAULT_BATCH_WINDOW_S
from repro.serve.server import ScheduleServer, ServerConfig

__all__ = ["bench_main", "serve_main"]


def _read_pool_specs(path: str) -> list[dict[str, Any]]:
    """Validate a pools file -- a JSON list of ``{"pool":..., "model":
    {...}, "costs": {...}}`` objects -- and return the raw specs (the
    worker pool ships them to every worker process)."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise SystemExit(f"error: {path}: pools file must hold a JSON array")
    for i, item in enumerate(data):
        if not isinstance(item, dict) or not isinstance(item.get("pool"), str):
            raise SystemExit(f"error: {path}: entry {i} needs a 'pool' name")
        try:
            distribution_from_spec(item.get("model") or {})
            costs_from_payload(item.get("costs"))
        except ValueError as exc:
            raise SystemExit(f"error: {path}: entry {i}: {exc}") from exc
    return [dict(item) for item in data]


def _load_pools_file(path: str, registry: TenantRegistry) -> int:
    """Register pools from a JSON file (single-process mode)."""
    specs = _read_pool_specs(path)
    for item in specs:
        registry.register(
            item["pool"],
            distribution_from_spec(item.get("model") or {}),
            costs_from_payload(item.get("costs")),
        )
    return len(specs)


def serve_main(argv: list[str], stdout: TextIO | None = None) -> int:
    """``repro serve [--port N] [--stdio] [--snapshot PATH] ...``"""
    parser = argparse.ArgumentParser(
        prog="repro-checkpoint serve",
        description=(
            "Run the async schedule-query daemon: JSON-lines requests over "
            "TCP (or stdio), micro-batched solving, solver-cache snapshots "
            "for warm restarts.  Protocol reference: docs/SERVING.md."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    parser.add_argument("--port", type=int, default=7355, help="TCP port (0 = ephemeral)")
    parser.add_argument(
        "--stdio",
        action="store_true",
        help="serve requests from stdin to stdout instead of TCP (tests, scripting)",
    )
    parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=DEFAULT_BATCH_WINDOW_S * 1e3,
        metavar="MS",
        help=(
            "hold each burst of solve queries this many milliseconds before "
            "solving it (default 0: solve at the end of the event-loop turn "
            "that read them)"
        ),
    )
    parser.add_argument(
        "--max-batch", type=int, default=256, help="flush once this many queries pend"
    )
    parser.add_argument(
        "--snapshot",
        metavar="PATH",
        default=None,
        help="solver-cache snapshot file: warm-loaded at startup, rewritten periodically and at shutdown",
    )
    parser.add_argument(
        "--snapshot-interval",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds between periodic snapshots (default 30)",
    )
    parser.add_argument(
        "--pools",
        metavar="FILE",
        default=None,
        help="preload tenant pools from a JSON file (list of {pool, model, costs})",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="preload the paper's demo pools (campus-exp/-weibull/-hyper2)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="N",
        help=(
            "serve Prometheus text exposition on http://HOST:N/metrics "
            "(plus /health); 0 = ephemeral port, omit = off"
        ),
    )
    parser.add_argument(
        "--slow-request-ms",
        type=float,
        default=1000.0,
        metavar="MS",
        help="log a structured slow-request line over this threshold (default 1000)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker-pool mode (N >= 2): N processes share the port via "
            "SO_REUSEPORT under a supervisor that merges snapshots and "
            "aggregates telemetry (docs/SERVING.md)"
        ),
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help=(
            "backpressure cap: reject requests with a 'busy' error once "
            "this many are in flight per worker (default: uncapped)"
        ),
    )
    parser.add_argument(
        "--merge-interval",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds between snapshot merges in worker-pool mode (default 30)",
    )
    args = parser.parse_args(argv)
    sink = stdout if stdout is not None else sys.stdout

    if args.batch_window_ms < 0:
        raise SystemExit("error: --batch-window-ms must be >= 0")
    if args.workers < 1:
        raise SystemExit("error: --workers must be >= 1")
    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            batch_window_s=args.batch_window_ms / 1e3,
            max_batch=args.max_batch,
            snapshot_path=args.snapshot,
            snapshot_interval_s=args.snapshot_interval,
            metrics_port=args.metrics_port,
            slow_request_s=args.slow_request_ms / 1e3,
            max_inflight=args.max_inflight,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc

    import asyncio

    if args.workers > 1:
        if args.stdio:
            raise SystemExit("error: --stdio is incompatible with --workers")
        return _serve_pool(args, config, sink)

    registry = demo_registry() if args.demo else TenantRegistry()
    if args.pools:
        _load_pools_file(args.pools, registry)
    server = ScheduleServer(config, registry=registry)

    if args.stdio:
        asyncio.run(server.run_stdio(sys.stdin, sink if stdout is not None else sys.stdout))
        return 0

    async def _run() -> None:
        await server.start()
        scrape = (
            f", metrics on http://{config.host}:{server.metrics_port}/metrics"
            if server.metrics_port is not None
            else ""
        )
        refused = (
            f", snapshot refused: {server.warm_load_refused}"
            if server.warm_load_refused is not None
            else ""
        )
        print(
            f"[repro serve] listening on {config.host}:{server.port} "
            f"(pools: {len(registry)}, warm-loaded: {server.warm_loaded_entries} "
            f"entries{refused}{scrape})",
            file=sink,
            flush=True,
        )
        try:
            await server.wait_stopped()
        finally:
            await server.stop()
            print("[repro serve] stopped", file=sink, flush=True)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass  # clean Ctrl-C: the finally block above already stopped the server
    return 0


def _serve_pool(
    args: argparse.Namespace, config: ServerConfig, sink: TextIO
) -> int:
    """``repro serve --workers N``: run the SO_REUSEPORT worker pool."""
    import asyncio

    from repro.serve.workers import WorkerPool, WorkerPoolConfig

    pool_specs: list[dict[str, Any]] = []
    if args.demo:
        pool_specs.extend(distribution_specs())
    if args.pools:
        pool_specs.extend(_read_pool_specs(args.pools))
    try:
        pool_config = WorkerPoolConfig(
            workers=args.workers,
            server=config,
            merge_interval_s=args.merge_interval,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    pool = WorkerPool(pool_config, pool_specs)

    async def _run() -> None:
        await pool.start()
        scrape = (
            f", metrics on http://{config.host}:{pool.metrics_port}/metrics"
            if pool.metrics_port is not None
            else ""
        )
        print(
            f"[repro serve] {args.workers} workers listening on "
            f"{config.host}:{pool.port} (pools: {len(pool_specs)}{scrape})",
            file=sink,
            flush=True,
        )
        try:
            await pool.wait_stopped()
        finally:
            await pool.stop()
            print("[repro serve] stopped", file=sink, flush=True)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass  # clean Ctrl-C: the finally block above already stopped the pool
    return 0


def bench_main(argv: list[str], stdout: TextIO | None = None) -> int:
    """``repro bench-serve [--out BENCH_serve.json] [--connect HOST:PORT]``"""
    parser = argparse.ArgumentParser(
        prog="repro-checkpoint bench-serve",
        description=(
            "Load-generate against the schedule-query daemon: closed- and "
            "open-loop arrivals, QPS and p50/p95/p99 latency, batching "
            "effectiveness, and the cold-vs-warm restart comparison.  "
            "Writes the BENCH_serve.json artifact gated by "
            "benchmarks/check_serve_regression.py."
        ),
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None, help="write the JSON artifact here"
    )
    parser.add_argument(
        "--requests", type=int, default=2000, help="closed-loop request count"
    )
    parser.add_argument(
        "--clients", type=int, default=8, help="closed-loop concurrent connections"
    )
    parser.add_argument(
        "--rate", type=float, default=1500.0, help="open-loop offered QPS"
    )
    parser.add_argument(
        "--open-requests", type=int, default=1500, help="open-loop request count"
    )
    parser.add_argument("--seed", type=int, default=2005, help="query-stream seed")
    parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=DEFAULT_BATCH_WINDOW_S * 1e3,
        metavar="MS",
        help=(
            "the in-process daemon's batching hold in milliseconds "
            "(default 0, as repro serve)"
        ),
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="open-loop load against an already-running daemon instead of the in-process bench",
    )
    parser.add_argument(
        "--shutdown",
        action="store_true",
        help="with --connect: send a shutdown op after the run (CI smoke)",
    )
    parser.add_argument(
        "--snapshot",
        metavar="PATH",
        default=None,
        help="snapshot file used by the warm-restart phase (default: <out>.snapshot or a temp file)",
    )
    parser.add_argument(
        "--soak",
        action="store_true",
        help=(
            "soak mode: run an in-process daemon under continuous open-loop "
            "load, sampling its metrics/health endpoints into a "
            "repro.bench.soak/1 JSONL time series (--out)"
        ),
    )
    parser.add_argument(
        "--soak-seconds",
        type=float,
        default=30.0,
        metavar="S",
        help="soak duration in seconds (default 30)",
    )
    parser.add_argument(
        "--sample-every",
        type=float,
        default=2.0,
        metavar="S",
        help="soak sampling interval in seconds (default 2)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with --soak: backpressure cap for the in-process daemon "
            "(rejections are accounted in the conservation check; "
            "default: uncapped)"
        ),
    )
    parser.add_argument(
        "--no-workers-sweep",
        action="store_true",
        help=(
            "skip the multi-worker scaling sweep (1/2/4-worker "
            "SO_REUSEPORT pools; on by default for the full artifact)"
        ),
    )
    args = parser.parse_args(argv)
    sink = stdout if stdout is not None else sys.stdout

    if args.batch_window_ms < 0:
        raise SystemExit("error: --batch-window-ms must be >= 0")
    if args.soak and args.connect:
        raise SystemExit("error: --soak runs its own daemon; drop --connect")
    # the load generator loads here, not with the daemon's CLI
    from repro.serve.bench import BenchConfig, run_against, run_bench, run_soak

    try:
        config = BenchConfig(
            requests=args.requests,
            clients=args.clients,
            rate_qps=args.rate,
            open_loop_requests=args.open_requests,
            seed=args.seed,
            batch_window_s=args.batch_window_ms / 1e3,
            duration_s=args.soak_seconds,
            sample_every_s=args.sample_every,
            max_inflight=args.max_inflight,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc

    if args.soak:
        summary = run_soak(config, args.out)
        conservation = summary["conservation"]
        drifting = [k for k, v in summary["drift"].items() if v["drifting"]]
        print(
            f"soak: {summary['sent']} sent over {summary['wall_s']:.1f}s "
            f"({summary['qps_achieved']:.0f}/{summary['qps_offered']:.0f} QPS), "
            f"{summary['errors']} errors, {summary['samples']} samples, "
            f"conservation {'exact' if conservation['exact'] else 'VIOLATED'}, "
            f"drift: {', '.join(drifting) if drifting else 'none'}",
            file=sink,
        )
        if args.out:
            print(f"[soak artifact written to {args.out}]", file=sink)
        if summary["errors"] or not conservation["exact"]:
            print("error: soak run failed its invariants", file=sys.stderr)
            return 1
        return 0

    if args.connect:
        host, sep, port_text = args.connect.rpartition(":")
        if not sep or not port_text.isdigit():
            raise SystemExit("error: --connect expects HOST:PORT")
        summary = run_against(
            host or "127.0.0.1", int(port_text), config, shutdown=args.shutdown
        )
        _print_summary("open loop (external daemon)", summary, sink)
        if summary["errors"]:
            print(f"error: {summary['errors']} request(s) failed", file=sys.stderr)
            return 1
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
        return 0

    snapshot_path = args.snapshot
    if snapshot_path is None:
        import tempfile

        snapshot_path = (
            f"{args.out}.snapshot"
            if args.out
            else tempfile.NamedTemporaryFile(suffix=".snapshot.json", delete=False).name
        )
    artifact = run_bench(config, snapshot_path, workers_sweep=not args.no_workers_sweep)
    _print_artifact(artifact, sink)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
        print(f"[artifact written to {args.out}]", file=sink)
    return 0


def _print_summary(title: str, summary: dict[str, Any], sink: TextIO) -> None:
    lat = summary["latency_ms"]
    qps = summary.get("qps", summary.get("qps_achieved", 0.0))
    print(
        f"{title}: {summary['requests']} requests, {qps:.0f} QPS | "
        f"latency ms p50 {lat['p50']:.2f}  p95 {lat['p95']:.2f}  p99 {lat['p99']:.2f}",
        file=sink,
    )


def _print_artifact(artifact: dict[str, Any], sink: TextIO) -> None:
    _print_summary("closed loop (cold)", artifact["closed_loop"], sink)
    _print_summary("closed loop (warm)", artifact["warm_start"]["closed_loop"], sink)
    _print_summary("open loop", artifact["open_loop"], sink)
    batching = artifact["batching"]
    print(
        f"batching: {batching['batches']} batches, mean size "
        f"{batching['mean_batch_size']:.1f}, {batching['solves_per_request']:.3f} "
        f"solves/request ({batching['collapsed']} queries collapsed)",
        file=sink,
    )
    print(
        f"cache: cold initial hit rate {artifact['cold_start']['initial_hit_rate']:.3f} "
        f"-> warm {artifact['warm_start']['initial_hit_rate']:.3f} "
        f"({artifact['warm_start']['snapshot_entries_loaded']} entries warm-loaded)",
        file=sink,
    )
    print(
        f"equivalence: max |T_opt dev| {artifact['equivalence_max_rel_dev']:.3e} relative",
        file=sink,
    )
    sweep = artifact.get("workers_sweep")
    if sweep:
        for point in sweep["points"]:
            print(
                f"workers {point['workers']}: {point['qps']:.0f} QPS "
                f"({point['clients']} clients) | latency ms "
                f"p50 {point['latency_ms']['p50']:.2f}  "
                f"p99 {point['latency_ms']['p99']:.2f}",
                file=sink,
            )
        warm = sweep["warm_restart"]
        print(
            f"workers scaling: {sweep['scaling_4w_over_1w']:.2f}x QPS at "
            f"{max(sweep['worker_counts'])} workers vs 1 | merged-boot warm "
            f"hit rate {warm['initial_hit_rate']:.3f} "
            f"({warm['snapshot_entries_loaded']} entries warm-loaded)",
            file=sink,
        )
