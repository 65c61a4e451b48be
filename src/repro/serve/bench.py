"""Load generator for ``repro serve``: the bench, the soak and ``--connect``.

Two canonical serving-load shapes (the serving-benchmark literature's
pair) drive a real daemon over localhost TCP:

* **closed loop** -- ``clients`` concurrent connections, each sending
  its next query the moment the previous answer lands.  Measures
  saturated throughput (QPS) and per-request latency under maximal
  pipelining pressure.
* **open loop** -- queries arrive on a Poisson process at a configured
  offered rate, independent of completions (the "millions of users"
  shape: arrivals do not wait for the server).  Measures latency at a
  fixed load and whether the daemon keeps up (achieved vs offered QPS).

The generated query mix is deterministic (seeded): a handful of tenant
pools (the paper's model families), ages drawn from a small bucket set
-- so duplicate in-flight queries exercise the micro-batcher's dedup --
plus a slice of unique ages that force fresh solves.

Three runs share one :class:`BenchConfig`, one daemon start-up
(:func:`_daemon`: a fresh solver cache and the demo pools) and one
request helper (:func:`_request`):

* :func:`run_bench` assembles the full ``BENCH_serve.json`` artifact:
  both loops, batching effectiveness (solves per request), a
  served-vs-direct equivalence sweep, the cold-vs-warm restart
  comparison (the warm daemon loads a cache snapshot and must show a
  higher initial hit rate) and the multi-worker scaling sweep.
  ``benchmarks/check_serve_regression.py`` gates the deterministic
  fields in CI; latency/QPS numbers are reported for humans.
* :func:`run_soak` (``repro bench-serve --soak``) keeps the open loop
  running for ``duration_s`` while a sampler scrapes the daemon from
  the outside -- through the ``metrics``/``health`` protocol ops *and*
  the ``--metrics-port`` HTTP endpoint, whose every body goes through
  :func:`~repro.obs.prometheus.parse_prometheus_text` -- into a
  ``repro.bench.soak/1`` JSONL time series (header, one ``sample``
  record per interval, ``summary``).  ``benchmarks/check_soak_regression.py``
  gates its error count, **conservation** (the per-tenant
  ``serve.tenant.requests{op=solve}`` counters plus busy rejections sum
  *exactly* to the sent count) and Prometheus parse failures;
  :func:`detect_drift` flags climbing RSS, queue depth or per-interval
  latency.  RSS comes from ``/proc/self/status`` read off-loop.
* :func:`run_against` (``--connect``) puts open-loop load on a daemon
  that is already running (the CI smoke test).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import math
import os
import time
from collections.abc import AsyncIterator
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.optimizer import optimize_interval
from repro.core.solver_cache import SolverCache, use_solver_cache
from repro.obs.metrics import decode_series
from repro.obs.prometheus import PrometheusParseError, parse_prometheus_text
from repro.serve.batcher import DEFAULT_BATCH_WINDOW_S
from repro.serve.protocol import dumps
from repro.serve.registry import (
    DEMO_POOLS,
    TenantRegistry,
    demo_registry,
    distribution_specs,
)
from repro.serve.server import ScheduleServer, ServerConfig
from repro.serve.snapshot import worker_snapshot_path
from repro.serve.workers import WorkerPool, WorkerPoolConfig
from repro.stats import mean_ci

__all__ = [
    "BENCH_SCHEMA",
    "SOAK_SCHEMA",
    "BenchConfig",
    "detect_drift",
    "run_against",
    "run_bench",
    "run_open_loop",
    "run_soak",
    "run_worker_sweep",
]

BENCH_SCHEMA = "repro.bench.serve/2"
SOAK_SCHEMA = "repro.bench.soak/1"

#: the ``--workers`` scaling sweep measures these pool sizes
SWEEP_WORKER_COUNTS = (1, 2, 4)

#: weak scaling: each worker gets this many closed-loop clients, so the
#: offered concurrency grows with the pool and the 1-worker point is
#: latency-bound at the same per-worker pressure the 4-worker point sees
SWEEP_CLIENTS_PER_WORKER = 8

#: sweep batching window: an explicit hold (the daemon's default holds
#: nothing) so the 1-worker point is window-bound and the scaling
#: headroom is real CPU
SWEEP_BATCH_WINDOW_S = 0.006

#: drift verdict thresholds: a signal drifts when its last-third mean
#: exceeds its first-third mean by this factor AND most inter-sample
#: deltas are increases (a spiky-but-stable signal fails the second
#: test, a slow monotone leak passes both)
_DRIFT_RATIO = 1.3
_DRIFT_INCREASE_FRACTION = 0.6

#: the settings each artifact records in its ``config`` block
_BENCH_SETTINGS = (
    "requests",
    "clients",
    "rate_qps",
    "open_loop_requests",
    "age_buckets",
    "unique_age_fraction",
    "seed",
    "batch_window_s",
    "max_batch",
)
_SOAK_SETTINGS = (
    "duration_s",
    "sample_every_s",
    "rate_qps",
    "seed",
    "batch_window_s",
    "max_batch",
    "max_inflight",
)


@dataclass(frozen=True)
class BenchConfig:
    """Knobs of one bench, soak or ``--connect`` run (defaults sized for CI).

    ``requests``, ``clients`` and ``equivalence_sample`` size the
    closed-loop phases and ``open_loop_requests`` the open loop; the
    soak sends ``rate_qps * duration_s`` requests, samples every
    ``sample_every_s`` seconds and caps its daemon at ``max_inflight``.
    """

    requests: int = 2000
    clients: int = 8
    rate_qps: float = 1500.0
    open_loop_requests: int = 1500
    age_buckets: int = 12
    unique_age_fraction: float = 0.1
    seed: int = 2005
    batch_window_s: float = DEFAULT_BATCH_WINDOW_S
    max_batch: int = 256
    equivalence_sample: int = 50
    duration_s: float = 30.0
    sample_every_s: float = 2.0
    max_inflight: int | None = None

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.rate_qps <= 0:
            raise ValueError(f"rate must be positive, got {self.rate_qps}")
        if self.open_loop_requests < 1:
            raise ValueError(
                f"open-loop requests must be >= 1, got {self.open_loop_requests}"
            )
        if self.age_buckets < 1:
            raise ValueError(f"age buckets must be >= 1, got {self.age_buckets}")
        if not 0.0 <= self.unique_age_fraction <= 1.0:
            raise ValueError(
                f"unique age fraction must be in [0, 1], got {self.unique_age_fraction}"
            )
        if self.equivalence_sample < 0:
            raise ValueError(
                f"equivalence sample must be >= 0, got {self.equivalence_sample}"
            )
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_s}")
        if self.sample_every_s <= 0:
            raise ValueError(
                f"sample interval must be positive, got {self.sample_every_s}"
            )
        if self.sample_every_s > self.duration_s:
            raise ValueError(
                f"sample interval {self.sample_every_s} exceeds duration "
                f"{self.duration_s}"
            )
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(
                f"max in-flight cap must be >= 1, got {self.max_inflight}"
            )

    def as_dict(self, names: tuple[str, ...] | None = None) -> dict[str, Any]:
        """The settings in ``names`` (default: every one) by name."""
        if names is None:
            return dataclasses.asdict(self)
        return {name: getattr(self, name) for name in names}


# ----------------------------------------------------------------------
# query stream
# ----------------------------------------------------------------------
def build_queries(config: BenchConfig, n: int, *, phase: int = 0) -> list[dict[str, Any]]:
    """A deterministic mixed stream of ``n`` solve requests.

    Most queries hit one of ``age_buckets`` bucketed uptimes per pool
    (cacheable and dedupable, the production shape); a
    ``unique_age_fraction`` slice gets a fresh age each (forces solves).
    ``phase`` offsets the RNG so successive streams differ.
    """
    rng = np.random.default_rng(config.seed + phase)
    pools = [name for name, _, _ in DEMO_POOLS]
    buckets = {
        name: np.round(rng.uniform(0.0, 2.0e4, size=config.age_buckets), 0)
        for name in pools
    }
    queries: list[dict[str, Any]] = []
    for i in range(n):
        pool = pools[int(rng.integers(len(pools)))]
        if rng.random() < config.unique_age_fraction:
            age = float(np.round(rng.uniform(0.0, 3.0e4), 6))
        else:
            age = float(buckets[pool][int(rng.integers(config.age_buckets))])
        queries.append({"op": "solve", "id": i, "pool": pool, "age": age})
    return queries


# ----------------------------------------------------------------------
# TCP clients
# ----------------------------------------------------------------------
async def _request(
    host: str, port: int, *payloads: dict[str, Any]
) -> list[dict[str, Any]]:
    """Send ``payloads`` over one fresh connection, each once the last
    is answered, and return the answers.  A fresh connection never
    competes with a load connection's pipeline.  A dropped connection or
    an answer that is not ``ok`` raises :class:`ConnectionError`."""
    answers: list[dict[str, Any]] = []
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for payload in payloads:
            writer.write((dumps(payload) + "\n").encode())
            await writer.drain()
            raw = await reader.readline()
            if not raw:
                raise ConnectionError(
                    f"server closed the connection during {payload['op']!r}"
                )
            data = json.loads(raw)
            if not isinstance(data, dict) or not data.get("ok", False):
                raise ConnectionError(f"{payload['op']} failed: {data!r}")
            answers.append(data)
    finally:
        writer.close()
        await writer.wait_closed()
    return answers


async def _closed_loop_client(
    host: str,
    port: int,
    payloads: list[tuple[int, bytes]],
    latencies: list[float],
    keep: set[int],
    results: dict[int, dict[str, Any]],
) -> None:
    """One closed-loop connection, kept off the benchmark's critical path:
    requests are pre-encoded and only the ``keep`` sample is parsed
    (the bench process shares the host's cores with the pool it is
    measuring, so client-side JSON work would depress every QPS number
    it reports).  Unsampled responses get a cheap byte-level OK check."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for rid, line in payloads:
            start = time.perf_counter()
            writer.write(line)
            await writer.drain()
            raw = await reader.readline()
            latencies.append(time.perf_counter() - start)
            if not raw:
                raise ConnectionError("server closed the connection mid-bench")
            if rid in keep:
                response = json.loads(raw)
                if not isinstance(response, dict):
                    raise ConnectionError(f"malformed response: {raw!r}")
                results[rid] = response
            elif b'"ok":true' not in raw:
                raise ConnectionError(f"request failed: {raw!r}")
    finally:
        writer.close()
        await writer.wait_closed()


async def run_closed_loop(
    host: str,
    port: int,
    queries: list[dict[str, Any]],
    clients: int,
    keep: set[int],
) -> tuple[list[float], float, dict[int, dict[str, Any]]]:
    """Run ``queries`` over ``clients`` connections, each sending its next
    query the moment the previous answer lands; returns (latencies, wall
    seconds, the responses whose id is in ``keep``)."""
    latencies: list[float] = []
    results: dict[int, dict[str, Any]] = {}
    shards: list[list[tuple[int, bytes]]] = [[] for _ in range(clients)]
    for i, query in enumerate(queries):
        shards[i % clients].append(
            (int(query["id"]), (dumps(query) + "\n").encode())
        )
    start = time.perf_counter()
    await asyncio.gather(
        *(
            _closed_loop_client(host, port, shard, latencies, keep, results)
            for shard in shards
            if shard
        )
    )
    return latencies, time.perf_counter() - start, results


async def run_open_loop(
    host: str,
    port: int,
    queries: list[dict[str, Any]],
    rate_qps: float,
    seed: int,
    *,
    latencies: list[float] | None = None,
) -> tuple[list[float], float, int]:
    """Fire ``queries`` at Poisson arrival times over one pipelined
    connection; returns (latencies, wall seconds, error count).

    Pass ``latencies`` to observe completions live (the soak's
    sampler reads the growing list mid-run); by default a fresh list is
    used and returned either way.
    """
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate_qps, size=len(queries)))
    reader, writer = await asyncio.open_connection(host, port)
    if latencies is None:
        latencies = []
    errors = 0
    sent: dict[int, float] = {}

    async def reader_loop(expected: int) -> int:
        seen = 0
        failed = 0
        while seen < expected:
            raw = await reader.readline()
            if not raw:
                raise ConnectionError("server closed the connection mid-bench")
            response = json.loads(raw)
            seen += 1
            rid = response.get("id")
            if rid in sent:
                latencies.append(time.perf_counter() - sent.pop(rid))
            if not response.get("ok", False):
                failed += 1
        return failed

    collector = asyncio.ensure_future(reader_loop(len(queries)))
    start = time.perf_counter()
    try:
        for payload, due in zip(queries, arrivals, strict=True):
            delay = start + float(due) - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent[int(payload["id"])] = time.perf_counter()
            writer.write((dumps(payload) + "\n").encode())
            await writer.drain()
        errors = await collector
        wall = time.perf_counter() - start
    finally:
        if not collector.done():
            collector.cancel()
        writer.close()
        await writer.wait_closed()
    return latencies, wall, errors


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def summarize_latencies(
    latencies: list[float], wall_s: float, *, errors: int = 0
) -> dict[str, Any]:
    """QPS plus latency percentiles (ms) with a Student-t mean CI.

    ``errors`` is the failed-response count of the loop that produced
    ``latencies``; it lands in the summary as both the raw count and a
    rate so artifact consumers never recompute it from raw totals.
    With nothing completed every latency field is ``None``.
    """
    latency_ms: dict[str, float | None] = dict.fromkeys(
        ("mean", "mean_ci95_half_width", "p50", "p95", "p99", "max")
    )
    if latencies:
        lat = np.asarray(latencies, dtype=np.float64) * 1e3
        latency_ms = {
            "mean": float(np.mean(lat)),
            "mean_ci95_half_width": mean_ci(lat).half_width,
            "p50": float(np.percentile(lat, 50)),
            "p95": float(np.percentile(lat, 95)),
            "p99": float(np.percentile(lat, 99)),
            "max": float(np.max(lat)),
        }
    return {
        "requests": len(latencies),
        "wall_s": wall_s,
        "qps": len(latencies) / wall_s if wall_s > 0 else 0.0,
        "errors": errors,
        "error_rate": errors / len(latencies) if latencies else 0.0,
        "latency_ms": latency_ms,
    }


def _check_equivalence(
    config: BenchConfig,
    queries: list[dict[str, Any]],
    results: dict[int, dict[str, Any]],
    registry: TenantRegistry,
) -> float:
    """Max relative deviation of served T_opt vs direct scalar solves."""
    max_dev = 0.0
    step = max(1, len(queries) // max(config.equivalence_sample, 1))
    with use_solver_cache(None):
        for payload in queries[::step]:
            response = results.get(int(payload["id"]))
            if response is None or not response.get("ok", False):
                raise AssertionError(f"bench query failed: {response!r}")
            entry = registry.get(str(payload["pool"]))
            direct = optimize_interval(
                entry.distribution, entry.costs, age=float(payload["age"])
            )
            served = float(response["result"]["T_opt"])
            dev = abs(served - direct.T_opt) / direct.T_opt
            max_dev = max(max_dev, dev)
    return max_dev


def _equivalence_sample_ids(config: BenchConfig, n: int) -> set[int]:
    """The ids :func:`_check_equivalence` will look up (its sampling
    stride over a stream whose ids are positional)."""
    step = max(1, n // max(config.equivalence_sample, 1))
    return set(range(0, n, step))


# ----------------------------------------------------------------------
# the full artifact run
# ----------------------------------------------------------------------
@contextlib.asynccontextmanager
async def _daemon(
    config: BenchConfig, **options: Any
) -> AsyncIterator[tuple[ScheduleServer, int, SolverCache]]:
    """A started daemon on the demo pools over a fresh solver cache,
    yielded as (server, port, cache) and stopped on the way out whatever
    happens.  ``options`` are further :class:`ServerConfig` fields; with
    a ``snapshot_path`` the stop writes the final snapshot."""
    cache = SolverCache()
    with use_solver_cache(cache):
        server = ScheduleServer(
            ServerConfig(
                batch_window_s=config.batch_window_s,
                max_batch=config.max_batch,
                **options,
            ),
            registry=demo_registry(),
        )
        await server.start()
        try:
            assert server.port is not None
            yield server, server.port, cache
        finally:
            await server.stop()


async def _bench_phases(config: BenchConfig, snapshot_path: str) -> dict[str, Any]:
    artifact: dict[str, Any] = {}
    snapshots = {"snapshot_path": snapshot_path, "snapshot_interval_s": 3600.0}

    # -- phase 1: closed loop on a cold cache --------------------------
    # (the daemon's stop writes the snapshot the warm restart loads)
    queries = build_queries(config, config.requests)
    async with _daemon(config, **snapshots) as (server, port, cold_cache):
        latencies, wall, results = await run_closed_loop(
            "127.0.0.1",
            port,
            queries,
            config.clients,
            _equivalence_sample_ids(config, len(queries)),
        )
        cold_hits, cold_misses = cold_cache.hits, cold_cache.misses
        equivalence = _check_equivalence(config, queries, results, server.registry)
        batch_stats = server.batcher.stats.as_dict()

    artifact["closed_loop"] = summarize_latencies(latencies, wall)
    artifact["batching"] = {
        **batch_stats,
        "mean_batch_size": batch_stats["queries"] / batch_stats["batches"]
        if batch_stats["batches"]
        else 0.0,
        "solves_per_request": batch_stats["solves"] / batch_stats["queries"]
        if batch_stats["queries"]
        else 0.0,
    }
    artifact["equivalence_max_rel_dev"] = equivalence
    artifact["cold_start"] = {
        "cache_hits": cold_hits,
        "cache_misses": cold_misses,
        "initial_hit_rate": cold_hits / (cold_hits + cold_misses)
        if cold_hits + cold_misses
        else 0.0,
    }

    # -- phase 2: warm restart, same stream ----------------------------
    async with _daemon(config, **snapshots) as (server, port, warm_cache):
        warm_latencies, warm_wall, _ = await run_closed_loop(
            "127.0.0.1", port, queries, config.clients, set()
        )
        warm_hits, warm_misses = warm_cache.hits, warm_cache.misses
        loaded = server.warm_loaded_entries

    artifact["warm_start"] = {
        "snapshot_entries_loaded": loaded,
        "cache_hits": warm_hits,
        "cache_misses": warm_misses,
        "initial_hit_rate": warm_hits / (warm_hits + warm_misses)
        if warm_hits + warm_misses
        else 0.0,
        "closed_loop": summarize_latencies(warm_latencies, warm_wall),
    }

    # -- phase 3: open loop at a fixed offered rate --------------------
    open_queries = build_queries(config, config.open_loop_requests, phase=1)
    async with _daemon(config) as (_, port, _):
        open_latencies, open_wall, open_errors = await run_open_loop(
            "127.0.0.1", port, open_queries, config.rate_qps, config.seed
        )

    if open_errors:
        raise RuntimeError(
            f"open-loop bench had {open_errors} failed request(s); "
            "the artifact would hide a broken daemon"
        )
    open_summary = summarize_latencies(open_latencies, open_wall, errors=open_errors)
    open_summary["qps_offered"] = config.rate_qps
    open_summary["qps_achieved"] = open_summary.pop("qps")
    artifact["open_loop"] = open_summary
    return artifact


def run_bench(
    config: BenchConfig, snapshot_path: str, *, workers_sweep: bool = True
) -> dict[str, Any]:
    """Run every phase and assemble the ``BENCH_serve.json`` artifact."""
    artifact = asyncio.run(_bench_phases(config, snapshot_path))
    artifact["schema"] = BENCH_SCHEMA
    artifact["config"] = config.as_dict(_BENCH_SETTINGS)
    if workers_sweep:
        artifact["workers_sweep"] = run_worker_sweep(config, f"{snapshot_path}.sweep")
    return artifact


# ----------------------------------------------------------------------
# the --workers scaling sweep (multi-worker SO_REUSEPORT pools)
# ----------------------------------------------------------------------
async def _sweep_point(
    config: BenchConfig,
    workers: int,
    queries: list[dict[str, Any]],
    snapshot_base: str | None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """One pool size: spawn the pool, drive the closed loop, fan in the
    aggregate stats.  Returns (point record, aggregate stats)."""
    clients = SWEEP_CLIENTS_PER_WORKER * workers
    pool = WorkerPool(
        WorkerPoolConfig(
            workers=workers,
            server=ServerConfig(
                port=0,
                batch_window_s=SWEEP_BATCH_WINDOW_S,
                max_batch=config.max_batch,
                snapshot_path=snapshot_base,
                snapshot_interval_s=3600.0,
            ),
        ),
        distribution_specs(),
    )
    await pool.start()
    assert pool.port is not None
    latencies, wall, results = await run_closed_loop(
        "127.0.0.1",
        pool.port,
        queries,
        clients,
        _equivalence_sample_ids(config, len(queries)),
    )
    stats = await pool.aggregate_stats()
    await pool.stop()
    equivalence = _check_equivalence(config, queries, results, demo_registry())
    point = {
        "workers": workers,
        "clients": clients,
        "requests_per_worker": len(queries) // workers,
        "workers_answering": stats["workers_answering"],
        "equivalence_max_rel_dev": equivalence,
        **summarize_latencies(latencies, wall),
    }
    return point, stats


async def _sweep_phases(config: BenchConfig, snapshot_base: str) -> dict[str, Any]:
    top = max(SWEEP_WORKER_COUNTS)
    points: list[dict[str, Any]] = []
    for workers in SWEEP_WORKER_COUNTS:
        # weak scaling: fixed requests *per worker*, distinct stream per
        # point; only the biggest pool writes snapshots (it feeds the
        # merged-boot warm phase below) so every point runs a cold cache
        queries = build_queries(
            config, config.requests * workers, phase=10 + workers
        )
        point, _ = await _sweep_point(
            config,
            workers,
            queries,
            snapshot_base if workers == top else None,
        )
        points.append(point)
    qps = {point["workers"]: point["qps"] for point in points}

    # warm merged-boot: a fresh pool of the biggest size boots from the
    # merged snapshot the previous run left behind and replays the same
    # stream -- every key was solved by *some* worker, so the aggregate
    # hit rate shows the merge actually unioned the per-worker caches
    warm_queries = build_queries(config, config.requests * top, phase=10 + top)
    warm_point, warm_stats = await _sweep_point(
        config, top, warm_queries, snapshot_base
    )
    cache = warm_stats["aggregate"]["cache"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "mode": "weak-scaling",
        "worker_counts": list(SWEEP_WORKER_COUNTS),
        "clients_per_worker": SWEEP_CLIENTS_PER_WORKER,
        "batch_window_s": SWEEP_BATCH_WINDOW_S,
        "points": points,
        "scaling_4w_over_1w": qps[top] / qps[min(SWEEP_WORKER_COUNTS)],
        "equivalence_max_rel_dev": max(
            point["equivalence_max_rel_dev"] for point in points
        ),
        "warm_restart": {
            "workers": top,
            "snapshot_entries_loaded": warm_stats["aggregate"][
                "warm_loaded_entries"
            ],
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "initial_hit_rate": cache["hits"] / lookups if lookups else 0.0,
            "closed_loop": {
                key: warm_point[key] for key in ("requests", "wall_s", "qps", "latency_ms")
            },
        },
    }


def run_worker_sweep(config: BenchConfig, snapshot_base: str) -> dict[str, Any]:
    """The ``--workers`` scaling sweep: closed-loop QPS and latency at
    1/2/4-worker SO_REUSEPORT pools plus the merged-snapshot warm-boot
    phase.  ``snapshot_base`` is the merged-snapshot target (stale
    files from previous runs are removed first so every point starts
    cold)."""
    for path in [snapshot_base] + [
        worker_snapshot_path(snapshot_base, index)
        for index in range(max(SWEEP_WORKER_COUNTS))
    ]:
        if os.path.exists(path):
            os.unlink(path)
    return asyncio.run(_sweep_phases(config, snapshot_base))


# ----------------------------------------------------------------------
# external-server mode (the CI smoke test)
# ----------------------------------------------------------------------
async def _run_against(
    host: str,
    port: int,
    config: BenchConfig,
    *,
    shutdown: bool = False,
) -> dict[str, Any]:
    queries = build_queries(config, config.open_loop_requests, phase=2)
    # the external daemon may not have the demo pools: ship inline models
    await _request(
        host,
        port,
        {"op": "ping", "id": "smoke"},
        *({"op": "register", **spec} for spec in distribution_specs()),
    )
    latencies, wall, errors = await run_open_loop(
        host, port, queries, config.rate_qps, config.seed
    )
    if shutdown:
        await _request(host, port, {"op": "shutdown", "id": "smoke-end"})
    return summarize_latencies(latencies, wall, errors=errors)


def run_against(
    host: str, port: int, config: BenchConfig, *, shutdown: bool = False
) -> dict[str, Any]:
    """Open-loop load against an already-running daemon (CI smoke)."""
    return asyncio.run(_run_against(host, port, config, shutdown=shutdown))


# ----------------------------------------------------------------------
# soak: open-loop load with live out-of-band sampling
# ----------------------------------------------------------------------
def _read_rss_mb() -> float | None:
    """Resident set size in MB from ``/proc/self/status`` (Linux); the
    soak reports ``None`` per sample where the file is unavailable."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


async def _http_get(host: str, port: int, path: str) -> tuple[int, str]:
    """Minimal HTTP GET against the metrics endpoint; returns
    (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.decode().partition("\r\n\r\n")
    status_line = head.split("\r\n", 1)[0]
    return int(status_line.split()[1]), body


def _tenant_solve_counts(metrics: dict[str, Any]) -> dict[str, float]:
    """Per-tenant solve-request counts from a metrics snapshot.

    Filters the labeled ``serve.tenant.requests`` counters to
    ``op=solve`` so the sampler's own ``metrics``/``health`` traffic
    never pollutes the conservation check.
    """
    counts: dict[str, float] = {}
    for key, value in metrics.get("counters", {}).items():
        base, labels = decode_series(key)
        if base == "serve.tenant.requests" and labels.get("op") == "solve":
            tenant = labels.get("tenant", "-")
            counts[tenant] = counts.get(tenant, 0.0) + float(value)
    return counts


def detect_drift(values: list[float], *, min_last_mean: float = 0.0) -> dict[str, Any]:
    """Flag a monotonically climbing signal across soak samples.

    Compares the first-third mean against the last-third mean and
    counts the fraction of inter-sample deltas that are increases; the
    signal *drifts* when the last third is more than ``_DRIFT_RATIO``
    times the first **and** at least ``_DRIFT_INCREASE_FRACTION`` of
    steps went up.  Too few samples (< 6) is an automatic non-verdict.

    ``min_last_mean`` suppresses the verdict while the signal's
    last-third mean stays below an absolute floor: small-integer
    signals like queue depth bounce between 0 and 2 on a short run,
    and a 0.5 -> 2.0 "ratio of 4" there is noise, not a leak (a real
    backlog grows without bound and clears any floor).
    """
    clean = [float(v) for v in values if v is not None and math.isfinite(float(v))]
    if len(clean) < 6:
        return {
            "samples": len(clean),
            "first_third_mean": None,
            "last_third_mean": None,
            "ratio": None,
            "increase_fraction": None,
            "drifting": False,
        }
    third = len(clean) // 3
    first = float(np.mean(clean[:third]))
    last = float(np.mean(clean[-third:]))
    deltas = np.diff(clean)
    increase_fraction = float(np.mean(deltas > 0)) if len(deltas) else 0.0
    ratio = last / first if first > 0 else (math.inf if last > 0 else 1.0)
    return {
        "samples": len(clean),
        "first_third_mean": first,
        "last_third_mean": last,
        "ratio": ratio,
        "increase_fraction": increase_fraction,
        "drifting": bool(
            last >= min_last_mean
            and ratio > _DRIFT_RATIO
            and increase_fraction >= _DRIFT_INCREASE_FRACTION
        ),
    }


async def _soak(config: BenchConfig) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Run the daemon + load + sampler; returns (samples, summary)."""
    n = max(1, int(round(config.rate_qps * config.duration_s)))
    queries = build_queries(config, n, phase=3)
    samples: list[dict[str, Any]] = []
    prom_parse_failures = 0
    # completions so far: the open loop appends to it as answers land
    latencies: list[float] = []
    sampled = 0

    async with _daemon(
        config, metrics_port=0, max_inflight=config.max_inflight
    ) as (server, port, _):
        host = server.config.host
        metrics_port = server.metrics_port
        assert metrics_port is not None
        epoch = time.perf_counter()

        async def sample_once() -> None:
            nonlocal prom_parse_failures, sampled
            t_s = time.perf_counter() - epoch
            health, metrics = await _request(
                host, port, {"op": "health"}, {"op": "metrics"}
            )
            status, body = await _http_get(host, metrics_port, "/metrics")
            try:
                if status != 200:
                    raise PrometheusParseError(f"HTTP {status} from /metrics")
                parse_prometheus_text(body)
            except PrometheusParseError:
                prom_parse_failures += 1
            rss_mb = await asyncio.to_thread(_read_rss_mb)
            interval = latencies[sampled:]
            sampled += len(interval)
            state = health["health"]
            samples.append(
                {
                    "kind": "sample",
                    "t_s": round(t_s, 3),
                    "rss_mb": rss_mb,
                    "queue_depth": state["queue_depth"],
                    "inflight": state["inflight"],
                    "requests": state["requests"],
                    "errors": state["errors"],
                    "rejected": state["rejected"],
                    "interval_latency_ms_mean": (sum(interval) / len(interval) * 1e3)
                    if interval
                    else None,
                    "interval_completed": len(interval),
                    "tenant_solve_requests": _tenant_solve_counts(metrics["metrics"]),
                }
            )

        stop_sampling = asyncio.Event()

        async def sampler() -> None:
            while not stop_sampling.is_set():
                try:
                    await asyncio.wait_for(
                        stop_sampling.wait(), timeout=config.sample_every_s
                    )
                except TimeoutError:
                    pass
                if stop_sampling.is_set():
                    break
                await sample_once()

        sampler_task = asyncio.ensure_future(sampler())
        try:
            _, wall, errors = await run_open_loop(
                host, port, queries, config.rate_qps, config.seed, latencies=latencies
            )
        finally:
            stop_sampling.set()
            await sampler_task

        # the post-load sample is the conservation measurement: every
        # response has been received, so the counters are settled
        await sample_once()

    final_counts = samples[-1]["tenant_solve_requests"]
    per_tenant_total = sum(final_counts.values())
    rejected = int(samples[-1]["rejected"])
    # busy rejections are deliberate shedding at the --max-inflight cap,
    # reported separately -- "errors" keeps meaning failures
    load = summarize_latencies(latencies, wall, errors=errors - rejected)
    drift = {
        "rss_mb": detect_drift([s["rss_mb"] for s in samples]),
        # a handful of queued queries is the batcher doing its job;
        # only a sustained double-digit backlog can be a leak
        "queue_depth": detect_drift(
            [float(s["queue_depth"]) for s in samples], min_last_mean=10.0
        ),
        "interval_latency_ms_mean": detect_drift(
            [s["interval_latency_ms_mean"] for s in samples]
        ),
    }
    summary = {
        "kind": "summary",
        "sent": n,
        "completed": load["requests"],
        "errors": load["errors"],
        "wall_s": wall,
        "qps_offered": config.rate_qps,
        "qps_achieved": load["qps"],
        "latency_ms": load["latency_ms"],
        "samples": len(samples),
        "prom_parse_failures": prom_parse_failures,
        "rejected": rejected,
        "conservation": {
            # a request either reached a tenant solve or was rejected at
            # the backpressure cap -- nothing may vanish in between
            "sent": n,
            "rejected": rejected,
            "per_tenant_total": per_tenant_total,
            "per_tenant": final_counts,
            "exact": per_tenant_total + rejected == n,
        },
        "drift": drift,
    }
    return samples, summary


def run_soak(config: BenchConfig, out_path: str | None = None) -> dict[str, Any]:
    """Run the soak; optionally write the JSONL artifact.

    Returns the summary record.  The artifact is written *after* the
    run from in-memory records (one synchronous write; the event loop
    never does file I/O).
    """
    samples, summary = asyncio.run(_soak(config))
    if out_path is not None:
        header = {
            "schema": SOAK_SCHEMA,
            "kind": "header",
            "config": config.as_dict(_SOAK_SETTINGS),
        }
        with open(out_path, "w") as fh:
            for record in (header, *samples, summary):
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")
    return summary
