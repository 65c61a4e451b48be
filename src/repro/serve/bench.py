"""Load generator for ``repro serve``: closed- and open-loop arrivals.

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

``run_bench`` assembles the full ``BENCH_serve.json`` artifact: both
loops, batching effectiveness (solves per request), a served-vs-direct
equivalence sweep, and the cold-vs-warm restart comparison (the warm
daemon loads a cache snapshot and must show a higher initial hit rate).
``benchmarks/check_serve_regression.py`` gates the deterministic fields
in CI; latency/QPS numbers are reported for humans.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.markov import CheckpointCosts
from repro.core.optimizer import optimize_interval
from repro.core.solver_cache import SolverCache, use_solver_cache
from repro.distributions.exponential import Exponential
from repro.distributions.hyperexponential import Hyperexponential
from repro.distributions.weibull import Weibull
from repro.serve.models import distribution_to_spec
from repro.serve.protocol import dumps
from repro.serve.registry import TenantRegistry
from repro.serve.server import ScheduleServer, ServerConfig
from repro.serve.snapshot import worker_snapshot_path
from repro.serve.workers import WorkerPool, WorkerPoolConfig
from repro.stats import mean_ci

__all__ = [
    "BenchConfig",
    "BENCH_SCHEMA",
    "demo_registry",
    "run_bench",
    "run_worker_sweep",
]

BENCH_SCHEMA = "repro.bench.serve/2"

#: the ``--workers`` scaling sweep measures these pool sizes
SWEEP_WORKER_COUNTS = (1, 2, 4)

#: weak scaling: each worker gets this many closed-loop clients, so the
#: offered concurrency grows with the pool and the 1-worker point is
#: latency-bound at the same per-worker pressure the 4-worker point sees
SWEEP_CLIENTS_PER_WORKER = 8

#: sweep batching window: wider than the single-process default so the
#: 1-worker point is window-bound and the scaling headroom is real CPU
SWEEP_BATCH_WINDOW_S = 0.006

#: the demo tenant set: the paper's three model families at campus costs
_DEMO_POOLS: tuple[tuple[str, Any, CheckpointCosts], ...] = (
    ("campus-exp", Exponential(1.0 / 5000.0), CheckpointCosts(110.0, 110.0, 0.0)),
    ("campus-weibull", Weibull(0.43, 3409.0), CheckpointCosts(110.0, 110.0, 0.0)),
    (
        "campus-hyper2",
        Hyperexponential([0.5, 0.5], [1.0 / 100.0, 1.0 / 9000.0]),
        CheckpointCosts(110.0, 110.0, 10.0),
    ),
)


def demo_registry() -> TenantRegistry:
    """A registry preloaded with the paper's model families."""
    registry = TenantRegistry()
    for name, dist, costs in _DEMO_POOLS:
        registry.register(name, dist, costs)
    return registry


@dataclass(frozen=True)
class BenchConfig:
    """Knobs of one bench run (defaults sized for CI)."""

    requests: int = 2000
    clients: int = 8
    rate_qps: float = 1500.0
    open_loop_requests: int = 1500
    age_buckets: int = 12
    unique_age_fraction: float = 0.1
    seed: int = 2005
    batch_window_s: float = 0.002
    max_batch: int = 256
    equivalence_sample: int = 50

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
    pools = [name for name, _, _ in _DEMO_POOLS]
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
# TCP client loops
# ----------------------------------------------------------------------
async def _request_once(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    payload: dict[str, Any],
) -> dict[str, Any]:
    writer.write((dumps(payload) + "\n").encode())
    await writer.drain()
    raw = await reader.readline()
    if not raw:
        raise ConnectionError("server closed the connection mid-request")
    data = json.loads(raw)
    if not isinstance(data, dict):
        raise ConnectionError(f"malformed response: {raw!r}")
    return data


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

    Pass ``latencies`` to observe completions live (the soak harness's
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
    """
    lat = np.asarray(latencies, dtype=np.float64) * 1e3
    ci = mean_ci(lat)
    return {
        "requests": len(latencies),
        "wall_s": wall_s,
        "qps": len(latencies) / wall_s if wall_s > 0 else 0.0,
        "errors": errors,
        "error_rate": errors / len(latencies) if latencies else 0.0,
        "latency_ms": {
            "mean": float(np.mean(lat)),
            "mean_ci95_half_width": ci.half_width,
            "p50": float(np.percentile(lat, 50)),
            "p95": float(np.percentile(lat, 95)),
            "p99": float(np.percentile(lat, 99)),
            "max": float(np.max(lat)),
        },
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
async def _bench_phases(config: BenchConfig, snapshot_path: str) -> dict[str, Any]:
    artifact: dict[str, Any] = {}

    # -- phase 1: closed loop on a cold cache --------------------------
    cold_cache = SolverCache()
    with use_solver_cache(cold_cache):
        server = ScheduleServer(
            ServerConfig(
                batch_window_s=config.batch_window_s,
                max_batch=config.max_batch,
                snapshot_path=snapshot_path,
                snapshot_interval_s=3600.0,
            ),
            registry=demo_registry(),
        )
        await server.start()
        assert server.port is not None
        queries = build_queries(config, config.requests)
        latencies, wall, results = await run_closed_loop(
            "127.0.0.1",
            server.port,
            queries,
            config.clients,
            _equivalence_sample_ids(config, len(queries)),
        )
        cold_hits, cold_misses = cold_cache.hits, cold_cache.misses
        equivalence = _check_equivalence(config, queries, results, server.registry)
        batch_stats = server.batcher.stats.as_dict()
        await server.stop()  # writes the snapshot warm restarts load

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
    warm_cache = SolverCache()
    with use_solver_cache(warm_cache):
        server = ScheduleServer(
            ServerConfig(
                batch_window_s=config.batch_window_s,
                max_batch=config.max_batch,
                snapshot_path=snapshot_path,
                snapshot_interval_s=3600.0,
            ),
            registry=demo_registry(),
        )
        await server.start()
        assert server.port is not None
        warm_latencies, warm_wall, _ = await run_closed_loop(
            "127.0.0.1", server.port, queries, config.clients, set()
        )
        warm_hits, warm_misses = warm_cache.hits, warm_cache.misses
        loaded = server.warm_loaded_entries
        await server.stop()

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
    with use_solver_cache(SolverCache()):
        server = ScheduleServer(
            ServerConfig(
                batch_window_s=config.batch_window_s, max_batch=config.max_batch
            ),
            registry=demo_registry(),
        )
        await server.start()
        assert server.port is not None
        open_queries = build_queries(config, config.open_loop_requests, phase=1)
        open_latencies, open_wall, open_errors = await run_open_loop(
            "127.0.0.1", server.port, open_queries, config.rate_qps, config.seed
        )
        await server.stop()

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
    artifact["config"] = {
        "requests": config.requests,
        "clients": config.clients,
        "rate_qps": config.rate_qps,
        "open_loop_requests": config.open_loop_requests,
        "age_buckets": config.age_buckets,
        "unique_age_fraction": config.unique_age_fraction,
        "seed": config.seed,
        "batch_window_s": config.batch_window_s,
        "max_batch": config.max_batch,
    }
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
    reader, writer = await asyncio.open_connection(host, port)
    try:
        pong = await _request_once(reader, writer, {"op": "ping", "id": "smoke"})
        if not pong.get("ok"):
            raise ConnectionError(f"ping failed: {pong!r}")
        for spec in distribution_specs():
            response = await _request_once(reader, writer, {"op": "register", **spec})
            if not response.get("ok"):
                raise ConnectionError(f"register failed: {response!r}")
    finally:
        writer.close()
        await writer.wait_closed()
    latencies, wall, errors = await run_open_loop(
        host, port, queries, config.rate_qps, config.seed
    )
    summary = summarize_latencies(latencies, wall, errors=errors)
    if shutdown:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await _request_once(reader, writer, {"op": "shutdown", "id": "smoke-end"})
        finally:
            writer.close()
            await writer.wait_closed()
    return summary


def run_against(
    host: str, port: int, config: BenchConfig, *, shutdown: bool = False
) -> dict[str, Any]:
    """Open-loop load against an already-running daemon (CI smoke)."""
    return asyncio.run(_run_against(host, port, config, shutdown=shutdown))


def distribution_specs() -> list[dict[str, Any]]:
    """The demo pool definitions as JSON-ready registration payloads."""
    return [
        {
            "pool": name,
            "model": distribution_to_spec(dist),
            "costs": {
                "checkpoint": costs.checkpoint,
                "recovery": costs.recovery,
                "latency": costs.latency,
            },
        }
        for name, dist, costs in _DEMO_POOLS
    ]
