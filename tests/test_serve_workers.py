"""Tests for multi-worker serving: the SO_REUSEPORT pool, snapshot
merging, backpressure, and the aggregated-telemetry plumbing.

The :class:`~repro.serve.workers.WorkerPool` tests spawn real worker
processes (the ``spawn`` context, exactly like production) and drive
them over real TCP connections -- slow-ish, so the lifecycle test packs
boot, load, fan-in, kill/restart and the merged-snapshot warm reboot
into one pool session.  Everything else (snapshot merge semantics,
concurrent-writer atomicity, the ``busy`` backpressure path, the
``worker``-label metrics merge) runs in-process.
"""

import asyncio
import json
import multiprocessing
import os
import signal

import pytest

from repro.core import CheckpointCosts, SolverCache, optimize_interval, use_solver_cache
from repro.core.solver_cache import SNAPSHOT_SCHEMA
from repro.distributions import Weibull
from repro.obs.metrics import OVERFLOW_COUNTER, MetricsRegistry
from repro.obs.metrics import use as use_metrics
from repro.obs.prometheus import parse_prometheus_text, render_prometheus
from repro.serve import server as server_module
from repro.serve.metrics_http import MetricsHttpEndpoint
from repro.serve.registry import demo_registry, distribution_specs
from repro.serve.server import ScheduleServer, ServerConfig
from repro.serve.snapshot import (
    MergeResult,
    merge_snapshot_files,
    read_snapshot_payload,
    record_snapshot_merge,
    worker_snapshot_path,
    write_snapshot_payload,
)
from repro.serve.workers import WorkerPool, WorkerPoolConfig

DIST = Weibull(0.43, 3409.0)
COSTS = CheckpointCosts(110.0, 110.0, 0.0)


def _snapshot_with(path, ages):
    """Write a real solver-cache snapshot holding one entry per age."""
    cache = SolverCache()
    with use_solver_cache(cache):
        for age in ages:
            optimize_interval(DIST, COSTS, age=age)
        asyncio.run(ScheduleServer(ServerConfig(snapshot_path=str(path))).write_snapshot())
    return cache


async def _http_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode())
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), timeout=10.0)
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body.decode()


async def _request(port, payload):
    """One JSON-lines request over a fresh connection (fresh 4-tuple, so
    the kernel may route it to any worker)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    raw = await asyncio.wait_for(reader.readline(), timeout=10.0)
    writer.close()
    await writer.wait_closed()
    return json.loads(raw)


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------
class TestWorkerPoolConfig:
    def test_defaults_valid(self):
        WorkerPoolConfig(workers=2)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": 0},
            {"workers": -1},
            {"merge_interval_s": 0.0},
            {"restart_backoff_s": -0.1},
            {"max_boot_failures": 0},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        overrides.setdefault("workers", 2)
        with pytest.raises(ValueError):
            WorkerPoolConfig(**overrides)

    def test_server_max_inflight_validated(self):
        with pytest.raises(ValueError):
            ServerConfig(max_inflight=0)

    def test_worker_snapshot_path(self):
        assert worker_snapshot_path("/x/cache.json", 3) == "/x/cache.json.worker3"


# ----------------------------------------------------------------------
# snapshot merging
# ----------------------------------------------------------------------
class TestSnapshotMerge:
    def test_union_dedups_shared_entries(self, tmp_path):
        base = str(tmp_path / "merged.json")
        _snapshot_with(worker_snapshot_path(base, 0), [0.0, 100.0])
        _snapshot_with(worker_snapshot_path(base, 1), [100.0, 200.0])

        result = merge_snapshot_files(
            [base, worker_snapshot_path(base, 0), worker_snapshot_path(base, 1)],
            base,
        )

        assert result.written is True
        assert result.entries == 3  # age=100 solved by both workers, kept once
        assert result.merged == [
            worker_snapshot_path(base, 0),
            worker_snapshot_path(base, 1),
        ]
        assert result.skipped == []
        payload = read_snapshot_payload(base)
        assert payload["schema"] == SNAPSHOT_SCHEMA
        merged_cache = SolverCache()
        assert merged_cache.merge_dict(payload) == 3
        # stats-aware: the merged file carries both workers' traffic
        # history (each solve above was one cache miss)
        stats_cache = SolverCache()
        stats_cache.merge_dict(payload, stats=True)
        assert stats_cache.misses == 4

    def test_corrupt_source_skipped_loudly(self, tmp_path, caplog):
        base = str(tmp_path / "merged.json")
        good = worker_snapshot_path(base, 0)
        torn = worker_snapshot_path(base, 1)
        foreign = worker_snapshot_path(base, 2)
        _snapshot_with(good, [50.0])
        with open(torn, "w") as fh:
            fh.write('{"schema": "%s", "entr' % SNAPSHOT_SCHEMA)  # torn write
        with open(foreign, "w") as fh:
            json.dump({"schema": "not.a.cache/9", "entries": []}, fh)

        with caplog.at_level("WARNING", logger="repro.serve"):
            result = merge_snapshot_files([good, torn, foreign], base)

        assert result.written is True
        assert result.entries == 1
        assert result.merged == [good]
        assert sorted(result.skipped) == sorted([torn, foreign])
        events = [
            json.loads(r.getMessage())
            for r in caplog.records
            if r.name == "repro.serve"
        ]
        assert {e["event"] for e in events} == {"snapshot_merge_skipped"}
        assert {e["path"] for e in events} == {torn, foreign}

    def test_schema_1_source_skipped(self, tmp_path, caplog, schema_1_snapshot):
        """A ``/1`` worker file is skipped loudly; alone it leaves the
        merged target untouched, beside a ``/2`` file it adds nothing."""
        base = str(tmp_path / "merged.json")
        old = worker_snapshot_path(base, 0)
        with open(old, "w") as fh:
            json.dump(schema_1_snapshot, fh)

        with caplog.at_level("WARNING", logger="repro.serve"):
            alone = merge_snapshot_files([old], base)
        assert alone.written is False and alone.skipped == [old]
        assert not os.path.exists(base)

        good = worker_snapshot_path(base, 1)
        expected = _snapshot_with(good, [50.0]).as_dict()
        with caplog.at_level("WARNING", logger="repro.serve"):
            result = merge_snapshot_files([old, good], base)
        assert result.merged == [good] and result.skipped == [old]
        assert read_snapshot_payload(base)["entries"] == json.loads(
            json.dumps(expected["entries"])
        )
        reasons = [
            json.loads(r.getMessage())["reason"]
            for r in caplog.records
            if r.name == "repro.serve"
        ]
        assert len(reasons) == 2
        assert all("repro.opt.solver_cache/1" in reason for reason in reasons)

    def test_missing_sources_are_silent_no_write(self, tmp_path, caplog):
        base = str(tmp_path / "merged.json")
        with caplog.at_level("WARNING", logger="repro.serve"):
            result = merge_snapshot_files(
                [worker_snapshot_path(base, 0), worker_snapshot_path(base, 1)], base
            )
        assert result.written is False
        assert result.entries == 0
        assert not os.path.exists(base)
        assert not [r for r in caplog.records if r.name == "repro.serve"]

    def test_merge_metrics_recorded(self):
        with use_metrics() as reg:
            record_snapshot_merge(
                MergeResult(entries=5, written=True, merged=["a"], skipped=["b", "c"])
            )
            record_snapshot_merge(MergeResult(entries=0, written=False))
        data = reg.as_dict()
        assert data["counters"]["serve.snapshot.merges"] == 1.0
        assert data["counters"]["serve.snapshot.merge.skipped"] == 2.0
        assert data["histograms"]["serve.snapshot.merge.entries"]["count"] == 1


# ----------------------------------------------------------------------
# concurrent snapshot writers (two processes, one target file)
# ----------------------------------------------------------------------
def _rewrite_snapshot(path, payload, rounds):
    """Spawn target: hammer one snapshot path with atomic rewrites."""
    for _ in range(rounds):
        write_snapshot_payload(path, payload)


class TestConcurrentSnapshotWrites:
    def test_atomic_last_writer_wins(self, tmp_path):
        """Two processes rewriting the *same* snapshot path never leave
        a torn file: every read observes one writer's payload intact,
        and the survivor is bit-exact one of the two."""
        target = str(tmp_path / "contended.json")
        # JSON-normalise up front (tuple keys become lists on disk) so
        # reads compare bit-exact against what a writer persists
        payload_a = json.loads(
            json.dumps(_snapshot_with(tmp_path / "a.json", [0.0, 10.0]).as_dict())
        )
        payload_b = json.loads(
            json.dumps(_snapshot_with(tmp_path / "b.json", [20.0, 30.0, 40.0]).as_dict())
        )

        ctx = multiprocessing.get_context("spawn")
        writers = [
            ctx.Process(target=_rewrite_snapshot, args=(target, payload, 150))
            for payload in (payload_a, payload_b)
        ]
        for process in writers:
            process.start()
        observed = 0
        try:
            while any(p.is_alive() for p in writers):
                if os.path.exists(target):
                    snapshot = read_snapshot_payload(target)  # raises if torn
                    assert snapshot in (payload_a, payload_b)
                    observed += 1
        finally:
            for process in writers:
                process.join(timeout=60.0)
        assert all(p.exitcode == 0 for p in writers)
        assert observed > 0
        assert read_snapshot_payload(target) in (payload_a, payload_b)
        # atomic rename leaves no temp droppings behind
        assert [n for n in os.listdir(tmp_path) if ".tmp." in n] == []


# ----------------------------------------------------------------------
# backpressure: the bounded in-flight cap
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_busy_rejection_over_tcp(self):
        """With ``max_inflight=1`` and a slow batch window, pipelined
        requests past the first get an immediate ``busy`` error with the
        id echoed, and every rejection is counted."""

        async def session():
            server = ScheduleServer(
                ServerConfig(batch_window_s=0.25, max_inflight=1),
                registry=demo_registry(),
            )
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                for i in range(6):
                    writer.write(
                        (
                            json.dumps(
                                {
                                    "op": "solve",
                                    "id": i,
                                    "pool": "campus-exp",
                                    "age": 100.0 * i,
                                }
                            )
                            + "\n"
                        ).encode()
                    )
                await writer.drain()
                responses = [
                    json.loads(await asyncio.wait_for(reader.readline(), 10.0))
                    for _ in range(6)
                ]
                writer.close()
                await writer.wait_closed()
                health = (await server.handle_request({"op": "health"}))["health"]
                return responses, server.rejected, health
            finally:
                await server.stop()

        with use_solver_cache(SolverCache()), use_metrics() as reg:
            responses, rejected, health = asyncio.run(session())

        busy = [r for r in responses if not r["ok"]]
        ok = [r for r in responses if r["ok"]]
        assert len(busy) == 5 and len(ok) == 1
        assert ok[0]["id"] == 0  # the request that held the slot
        assert {r["id"] for r in busy} == {1, 2, 3, 4, 5}
        for response in busy:
            assert response["error"]["code"] == "busy"
            assert "max in-flight" in response["error"]["message"]
        assert rejected == 5
        assert health["rejected"] == 5
        assert reg.as_dict()["counters"]["serve.requests.rejected"] == 5.0

    def test_no_cap_by_default(self):
        async def session():
            server = ScheduleServer(
                ServerConfig(batch_window_s=0.001), registry=demo_registry()
            )
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                for i in range(20):
                    writer.write(
                        (
                            json.dumps(
                                {
                                    "op": "solve",
                                    "id": i,
                                    "pool": "campus-exp",
                                    "age": float(i),
                                }
                            )
                            + "\n"
                        ).encode()
                    )
                await writer.drain()
                responses = [
                    json.loads(await asyncio.wait_for(reader.readline(), 10.0))
                    for _ in range(20)
                ]
                writer.close()
                await writer.wait_closed()
                return responses, server.rejected
            finally:
                await server.stop()

        with use_solver_cache(SolverCache()):
            responses, rejected = asyncio.run(session())
        assert all(r["ok"] for r in responses)
        assert rejected == 0

    def test_read_ahead_bounds_in_flight(self):
        """A pipelined client far ahead of the solver is read at most
        ``_READ_AHEAD_BATCHES * max_batch`` requests ahead of the answers;
        the rest wait in the socket, and every request is answered."""
        count, max_batch = 60, 2
        bound = server_module._READ_AHEAD_BATCHES * max_batch

        async def session():
            server = ScheduleServer(
                ServerConfig(batch_window_s=0.01, max_batch=max_batch),
                registry=demo_registry(),
            )
            peak = [0]
            enqueue = server.batcher.enqueue

            def counted(query, reply):
                peak[0] = max(peak[0], server._inflight)
                enqueue(query, reply)

            server.batcher.enqueue = counted
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    b"".join(
                        (
                            json.dumps(
                                {"op": "solve", "id": i, "pool": "campus-exp", "age": float(i)}
                            )
                            + "\n"
                        ).encode()
                        for i in range(count)
                    )
                )
                await writer.drain()
                responses = [
                    json.loads(await asyncio.wait_for(reader.readline(), 10.0))
                    for _ in range(count)
                ]
                writer.close()
                await writer.wait_closed()
                return responses, peak[0]
            finally:
                await server.stop()

        with use_solver_cache(SolverCache()):
            responses, peak = asyncio.run(session())
        assert sorted(r["id"] for r in responses) == list(range(count))
        assert all(r["ok"] for r in responses)
        assert 0 < peak <= bound < count


# ----------------------------------------------------------------------
# worker-labeled metrics merging (the supervisor's /metrics fan-in)
# ----------------------------------------------------------------------
class TestMergeDictExtraLabels:
    def test_relabel_every_instrument_kind(self):
        src = MetricsRegistry()
        src.inc("serve.requests", 3.0)
        src.set_gauge("serve.queue.depth", 2.0)
        src.observe("serve.latency", 1.5)

        dst = MetricsRegistry()
        dst.merge_dict(src.as_dict(), extra_labels={"worker": 0})

        data = dst.as_dict()
        assert data["counters"] == {"serve.requests{worker=0}": 3.0}
        assert data["gauges"] == {"serve.queue.depth{worker=0}": 2.0}
        assert list(data["histograms"]) == ["serve.latency{worker=0}"]

    def test_workers_stay_distinguishable_and_additive(self):
        src = MetricsRegistry()
        src.inc("serve.requests", 2.0)
        dst = MetricsRegistry()
        for index in (0, 1, 0):  # worker 0 scraped twice
            dst.merge_dict(src.as_dict(), extra_labels={"worker": index})
        assert dst.as_dict()["counters"] == {
            "serve.requests{worker=0}": 4.0,
            "serve.requests{worker=1}": 2.0,
        }

    def test_extra_labels_win_on_collision(self):
        src = MetricsRegistry()
        src.inc("serve.tenant.requests", labels={"tenant": "a", "worker": "stale"})
        dst = MetricsRegistry()
        dst.merge_dict(src.as_dict(), extra_labels={"worker": 1})
        assert dst.as_dict()["counters"] == {
            "serve.tenant.requests{tenant=a,worker=1}": 1.0
        }

    def test_relabeled_series_count_against_cardinality_cap(self):
        src = MetricsRegistry()
        src.inc("serve.requests")
        dst = MetricsRegistry(label_limit=1)
        dst.merge_dict(src.as_dict(), extra_labels={"worker": 0})
        dst.merge_dict(src.as_dict(), extra_labels={"worker": 1})  # clipped
        counters = dst.as_dict()["counters"]
        assert counters["serve.requests{worker=0}"] == 1.0
        assert counters["serve.requests"] == 1.0  # folded to the base
        assert counters[OVERFLOW_COUNTER] == 1.0

    def test_worker_label_survives_prometheus_exposition(self):
        src = MetricsRegistry()
        src.inc("serve.requests", 7.0)
        dst = MetricsRegistry()
        dst.merge_dict(src.as_dict(), extra_labels={"worker": 0})
        samples = parse_prometheus_text(render_prometheus(dst))
        assert ("repro_serve_requests_total", {"worker": "0"}, 7.0) in samples


class TestMetricsHttpAsyncRender:
    def test_async_render_callables(self):
        """The endpoint awaits coroutine renderers -- the supervisor's
        fan-in renderers are async."""

        async def session():
            async def render_metrics():
                return "# merged across workers\n"

            async def render_health():
                return {"status": "degraded", "workers_answering": 1}

            endpoint = MetricsHttpEndpoint(
                host="127.0.0.1",
                port=0,
                render_metrics=render_metrics,
                render_health=render_health,
            )
            await endpoint.start()
            try:
                metrics = await _http_get(endpoint.port, "/metrics")
                health = await _http_get(endpoint.port, "/health")
            finally:
                await endpoint.stop()
            return metrics, health

        (m_status, m_body), (h_status, h_body) = asyncio.run(session())
        assert (m_status, m_body) == (200, "# merged across workers\n")
        assert h_status == 503  # degraded pools fail readiness probes
        assert json.loads(h_body)["status"] == "degraded"


# ----------------------------------------------------------------------
# the pool itself: real worker processes
# ----------------------------------------------------------------------
def _pool_config(tmp_path, workers, **server_overrides):
    server_overrides.setdefault("batch_window_s", 0.001)
    server_overrides.setdefault("snapshot_path", str(tmp_path / "merged.json"))
    server_overrides.setdefault("snapshot_interval_s", 3600.0)
    return WorkerPoolConfig(
        workers=workers,
        server=ServerConfig(**server_overrides),
        merge_interval_s=3600.0,
        restart_backoff_s=0.05,
    )


class TestWorkerPool:
    def test_lifecycle_load_fanin_restart_and_merged_snapshot(self, tmp_path):
        """One pool session end to end: boot 2 workers, serve solves,
        fan in stats/health/metrics, SIGKILL a worker and watch it come
        back, then stop and warm-reboot from the merged snapshot."""
        base = str(tmp_path / "merged.json")

        async def session():
            config = _pool_config(tmp_path, workers=2, metrics_port=0)
            pool = WorkerPool(config, pools=distribution_specs())
            await pool.start()
            try:
                assert pool.port is not None
                assert pool.metrics_port is not None

                for i in range(30):
                    response = await _request(
                        pool.port,
                        {"op": "solve", "id": i, "pool": "campus-exp", "age": 25.0 * i},
                    )
                    assert response["ok"] is True, response

                stats = await pool.aggregate_stats()
                assert stats["workers_answering"] == 2
                assert stats["aggregate"]["requests"] >= 30

                health = await pool.aggregate_health()
                assert health["status"] == "ok"
                assert health["workers_answering"] == 2
                assert health["port"] == pool.port
                pids = [w["pid"] for w in health["workers"]]
                assert all(isinstance(pid, int) for pid in pids)

                status, body = await _http_get(pool.metrics_port, "/metrics")
                assert status == 200
                samples = parse_prometheus_text(body)
                assert ("repro_serve_workers_started_total", {}, 2.0) in samples
                assert any(
                    labels.get("worker") in ("0", "1") for _n, labels, _v in samples
                )

                # crash one worker; the supervisor must replace it
                os.kill(pids[0], signal.SIGKILL)
                deadline = asyncio.get_running_loop().time() + 30.0
                while asyncio.get_running_loop().time() < deadline:
                    health = await pool.aggregate_health()
                    if pool.restarts >= 1 and health["status"] == "ok":
                        break
                    await asyncio.sleep(0.2)
                assert pool.restarts == 1
                assert health["status"] == "ok"
                assert health["restarts"] == 1

                response = await _request(
                    pool.port, {"op": "solve", "id": "post", "pool": "campus-exp", "age": 1.0}
                )
                assert response["ok"] is True

                status, body = await _http_get(pool.metrics_port, "/metrics")
                samples = parse_prometheus_text(body)
                assert ("repro_serve_workers_restarts_total", {}, 1.0) in samples
            finally:
                await pool.stop()

            # the rolling shutdown wrote per-worker snapshots and merged
            merged = read_snapshot_payload(base)
            assert merged["schema"] == SNAPSHOT_SCHEMA
            assert len(merged["entries"]) > 0

            # a rebooted pool warm-loads the merged file into every worker
            reboot = WorkerPool(
                _pool_config(tmp_path, workers=2), pools=distribution_specs()
            )
            await reboot.start()
            try:
                stats = await reboot.aggregate_stats()
                assert stats["aggregate"]["warm_loaded_entries"] >= 2 * len(
                    merged["entries"]
                )
            finally:
                await reboot.stop()

        with use_metrics():
            asyncio.run(session())

    def test_clean_worker_exit_stops_pool(self, tmp_path):
        """A ``shutdown`` op lands on one worker; its clean exit must
        take the whole pool down (matching single-process semantics)."""

        async def session():
            config = WorkerPoolConfig(
                workers=1, server=ServerConfig(batch_window_s=0.001)
            )
            pool = WorkerPool(config, pools=distribution_specs())
            await pool.start()
            try:
                response = await _request(pool.port, {"op": "shutdown", "id": "bye"})
                assert response["ok"] is True
                await asyncio.wait_for(pool.wait_stopped(), timeout=30.0)
            finally:
                await pool.stop()

        asyncio.run(session())
