"""Regression tests: snapshot I/O must not stall the daemon's event loop.

The daemon serves ~1400 QPS through a single asyncio loop; a synchronous
disk write anywhere on the request path freezes *every* in-flight
request for the duration of the write.  These tests make the write
artificially slow and measure how long the loop goes unresponsive --
with a synchronous write on the request path the observed gap equals
the write duration and the test fails; with the write in a worker
thread the loop keeps ticking.
"""

import asyncio
import json
import os
import time

import pytest

from repro.core import SolverCache, use_solver_cache
from repro.obs.metrics import MetricsRegistry, use as use_metrics
from repro.serve.server import ScheduleServer, ServerConfig

#: how long the artificially slowed snapshot write takes
SLOW_WRITE_S = 0.5
#: the longest the event loop may go unresponsive during that write
MAX_LOOP_GAP_S = 0.2


def _slow_replace(monkeypatch):
    """Make the atomic rename at the end of every snapshot write slow,
    as a stand-in for a large snapshot on a contended disk."""
    real_replace = os.replace

    def slow_replace(src, dst, *args, **kwargs):
        time.sleep(SLOW_WRITE_S)
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", slow_replace)


async def _loop_gap_during(task: "asyncio.Task[dict]") -> float:
    """Max delay between 10ms loop ticks while ``task`` runs."""
    loop = asyncio.get_running_loop()
    max_gap = 0.0
    last = loop.time()
    while not task.done():
        await asyncio.sleep(0.01)
        now = loop.time()
        max_gap = max(max_gap, now - last)
        last = now
    return max_gap


class TestSnapshotOffLoop:
    def test_snapshot_op_does_not_stall_event_loop(self, tmp_path, monkeypatch):
        _slow_replace(monkeypatch)
        target = tmp_path / "snap.json"

        async def scenario():
            server = ScheduleServer(ServerConfig(snapshot_path=str(target)))
            snap = asyncio.ensure_future(
                server.handle_request({"op": "snapshot", "id": 1})
            )
            # measure from before the task's first step: a synchronous
            # write blocks that step, and the first tick below sees it
            gap = await _loop_gap_during(snap)
            return await snap, gap

        with use_solver_cache(SolverCache()):
            response, gap = asyncio.run(scenario())
        assert response["ok"], response
        assert target.is_file()
        assert gap < MAX_LOOP_GAP_S, (
            f"event loop went unresponsive for {gap:.3f}s during a "
            f"{SLOW_WRITE_S}s snapshot write -- blocking I/O on the loop"
        )

    def test_shutdown_snapshot_does_not_stall_event_loop(self, tmp_path, monkeypatch):
        _slow_replace(monkeypatch)
        target = tmp_path / "snap.json"

        async def scenario():
            server = ScheduleServer(ServerConfig(snapshot_path=str(target)))
            await server.start()
            stop = asyncio.ensure_future(server.stop())
            gap = await _loop_gap_during(stop)
            await stop
            return gap

        with use_solver_cache(SolverCache()):
            gap = asyncio.run(scenario())
        assert target.is_file()
        assert gap < MAX_LOOP_GAP_S, (
            f"event loop went unresponsive for {gap:.3f}s during the "
            "shutdown snapshot -- blocking I/O on the loop"
        )

    def test_concurrent_snapshot_ops_serialise_cleanly(self, tmp_path):
        """Two overlapping snapshot ops must both succeed (the write lock
        serialises them; no torn temp files, no raced renames)."""
        target = tmp_path / "snap.json"

        async def scenario():
            server = ScheduleServer(ServerConfig(snapshot_path=str(target)))
            first, second = await asyncio.gather(
                server.handle_request({"op": "snapshot", "id": 1}),
                server.handle_request({"op": "snapshot", "id": 2}),
            )
            return first, second

        with use_solver_cache(SolverCache()):
            first, second = asyncio.run(scenario())
        assert first["ok"] and second["ok"]
        data = json.loads(target.read_text())
        assert isinstance(data, dict)
        leftovers = [p for p in tmp_path.iterdir() if p.name != target.name]
        assert not leftovers, f"temp files left behind: {leftovers}"

    def test_warm_load_happens_before_serving(self, tmp_path):
        """The async warm load must still complete before start() returns."""
        target = tmp_path / "snap.json"
        with use_solver_cache(SolverCache()):
            asyncio.run(ScheduleServer(ServerConfig(snapshot_path=str(target))).write_snapshot())

        async def scenario():
            server = ScheduleServer(ServerConfig(snapshot_path=str(target)))
            await server.start()
            try:
                return server.warm_loaded_entries
            finally:
                await server.stop()

        registry = MetricsRegistry()
        with use_solver_cache(SolverCache()), use_metrics(registry):
            loaded = asyncio.run(scenario())
        assert loaded == 0  # the snapshot was empty, but it *was* applied:
        assert registry.as_dict()["counters"].get("serve.snapshot.loads") == 1

    def test_snapshot_error_still_reported(self, tmp_path):
        """Off-loop writes must not swallow SnapshotError reporting."""

        async def scenario():
            server = ScheduleServer(ServerConfig())
            return await server.handle_request(
                {"op": "snapshot", "id": 3, "path": str(tmp_path / "nodir" / "x.json")}
            )

        with use_solver_cache(SolverCache()):
            response = asyncio.run(scenario())
        assert not response["ok"]
        assert response["error"]["code"] == "snapshot-failed"


@pytest.mark.parametrize("op", ["ping", "stats"])
def test_requests_flow_while_snapshot_writes(tmp_path, monkeypatch, op):
    """End-to-end: a request issued mid-snapshot completes long before
    the slowed write does."""
    _slow_replace(monkeypatch)
    target = tmp_path / "snap.json"

    async def scenario():
        server = ScheduleServer(ServerConfig(snapshot_path=str(target)))
        loop = asyncio.get_running_loop()
        snap = asyncio.ensure_future(server.handle_request({"op": "snapshot", "id": 1}))
        ping = asyncio.ensure_future(server.handle_request({"op": op, "id": 2}))
        started = loop.time()
        response = await ping  # queued behind the snapshot task
        elapsed = loop.time() - started
        await snap
        return response, elapsed

    with use_solver_cache(SolverCache()):
        response, elapsed = asyncio.run(scenario())
    assert response["ok"]
    assert elapsed < MAX_LOOP_GAP_S, (
        f"{op} took {elapsed:.3f}s while a snapshot was writing -- "
        "the write is blocking the loop"
    )
