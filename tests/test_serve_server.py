"""Tests for the ScheduleServer: dispatch, transports, snapshots."""

import asyncio
import io
import json
import math

import pytest

from repro.core import CheckpointCosts, SolverCache, optimize_interval, use_solver_cache
from repro.core.solver_cache import SNAPSHOT_SCHEMA
from repro.distributions import Exponential, Weibull
from repro.obs.metrics import use as use_metrics
from repro.serve.models import distribution_to_spec
from repro.serve.protocol import PROTOCOL_SCHEMA
from repro.serve.registry import TenantRegistry, demo_registry
from repro.serve import server as server_module
from repro.serve.server import ScheduleServer, ServerConfig
from repro.serve.snapshot import SnapshotError

WEIBULL_SPEC = distribution_to_spec(Weibull(0.43, 3409.0))
COSTS_PAYLOAD = {"checkpoint": 110.0, "recovery": 110.0, "latency": 0.0}


def _server(**overrides):
    overrides.setdefault("batch_window_s", 0.001)
    return ScheduleServer(ServerConfig(**overrides), registry=demo_registry())


def _reject_constant(constant):
    raise AssertionError(f"non-JSON constant {constant} in a response")


def _ask(server, request):
    return asyncio.run(server.handle_request(request))


class TestConfig:
    def test_defaults_valid(self):
        ServerConfig()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"port": -1},
            {"port": 70000},
            {"batch_window_s": -0.1},
            {"max_batch": 0},
            {"snapshot_interval_s": 0.0},
            {"slow_request_s": 0.0},
            {"worker_index": -1},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            ServerConfig(**overrides)


class TestDispatch:
    def test_ping(self):
        response = _ask(_server(), {"op": "ping", "id": 1})
        assert response == {"ok": True, "id": 1, "pong": True, "schema": PROTOCOL_SCHEMA}

    def test_solve_by_pool(self):
        with use_solver_cache(SolverCache()):
            server = _server()
            response = _ask(
                server, {"op": "solve", "id": 2, "pool": "campus-weibull", "age": 100.0}
            )
        assert response["ok"] is True
        result = response["result"]
        assert result["converged"] is True
        assert result["age"] == 100.0
        assert result["T_opt"] > 0

    def test_solve_inline_model(self):
        with use_solver_cache(SolverCache()):
            response = _ask(
                _server(),
                {
                    "op": "solve",
                    "id": 3,
                    "model": WEIBULL_SPEC,
                    "costs": COSTS_PAYLOAD,
                    "age": 100.0,
                },
            )
        assert response["ok"] is True

    def test_solve_pool_and_model_conflict(self):
        response = _ask(
            _server(),
            {"op": "solve", "pool": "campus-exp", "model": WEIBULL_SPEC, "age": 0.0},
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"

    def test_solve_needs_pool_or_model(self):
        response = _ask(_server(), {"op": "solve", "age": 0.0})
        assert response["error"]["code"] == "bad-request"

    def test_solve_unknown_pool(self):
        response = _ask(_server(), {"op": "solve", "pool": "nope", "age": 0.0})
        assert response["error"]["code"] == "unknown-pool"
        assert "campus-exp" in response["error"]["message"]

    def test_solve_bad_age(self):
        for age in (-1.0, "old", None, True, math.nan, math.inf):
            response = _ask(_server(), {"op": "solve", "pool": "campus-exp", "age": age})
            assert response["error"]["code"] == "bad-request"

    def test_oversized_integer_age_is_bad_request(self):
        """A JSON integer beyond the float range is answered as a bad
        request, not a solver error from ``float()``."""
        for digits in ("1" + "0" * 400, "-1" + "0" * 400):
            line = '{"op": "solve", "id": 1, "pool": "campus-exp", "age": %s}' % digits
            response = asyncio.run(_server().handle_line(line))
            assert response["error"]["code"] == "bad-request"
            assert "finite and non-negative" in response["error"]["message"]

    @pytest.mark.parametrize("field", ["checkpoint", "recovery", "latency"])
    def test_oversized_integer_cost_is_bad_costs(self, field):
        huge = "1" + "0" * 400
        line = '{"op": "solve", "id": 1, "pool": "campus-exp", "age": 0, "costs": {"%s": %s}}' % (field, huge)
        response = asyncio.run(_server().handle_line(line))
        assert response["error"]["code"] == "bad-costs"

    def test_unschedulable_solve_is_strict_json(self):
        """Costs no interval can commit under, on every demo pool: not
        converged, and the infinite gamma goes out as ``null``, never
        ``Infinity``."""
        pools = [entry.name for entry in demo_registry().entries()]
        lines = [
            json.dumps(
                {
                    "op": "solve",
                    "id": pool,
                    "pool": pool,
                    "age": 0.0,
                    "costs": {"checkpoint": 1e9, "recovery": 1e9},
                }
            )
            for pool in pools
        ]
        out = io.StringIO()
        with use_solver_cache(SolverCache()):
            asyncio.run(_server().run_stdio(lines, out))
        responses = [
            json.loads(line, parse_constant=_reject_constant)
            for line in out.getvalue().splitlines()
        ]
        assert len(responses) == len(pools)
        for response in responses:
            assert response["ok"] is True
            assert response["result"]["converged"] is False
            assert response["result"]["gamma"] is None

    def test_non_finite_id_answered_with_strict_json(self):
        out = io.StringIO()
        asyncio.run(_server().run_stdio(['{"op": "ping", "id": NaN}'], out))
        response = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert response["error"]["code"] == "bad-request"
        assert "id" not in response

    def test_solve_bad_model(self):
        response = _ask(
            _server(),
            {"op": "solve", "model": {"family": "gaussian", "params": {}}, "age": 0.0},
        )
        assert response["error"]["code"] == "bad-model"

    def test_solve_per_request_cost_override(self):
        with use_solver_cache(SolverCache()):
            server = _server()
            base = _ask(
                server, {"op": "solve", "id": 1, "pool": "campus-weibull", "age": 0.0}
            )
            costly = _ask(
                server,
                {
                    "op": "solve",
                    "id": 2,
                    "pool": "campus-weibull",
                    "age": 0.0,
                    "costs": {"checkpoint": 440.0},
                },
            )
        # costlier checkpoints push the optimal interval out
        assert costly["result"]["T_opt"] > base["result"]["T_opt"]

    def test_register_unregister_pools(self):
        server = _server()
        response = _ask(
            server,
            {
                "op": "register",
                "pool": "lab",
                "model": WEIBULL_SPEC,
                "costs": COSTS_PAYLOAD,
            },
        )
        assert response == {"ok": True, "pool": "lab", "replaced": False}
        assert "lab" in server.registry

        pools = _ask(server, {"op": "pools", "id": 9})
        names = [p["pool"] for p in pools["pools"]]
        assert names == sorted(names)
        assert "lab" in names
        lab = next(p for p in pools["pools"] if p["pool"] == "lab")
        assert lab["model"] == WEIBULL_SPEC
        assert lab["costs"] == COSTS_PAYLOAD

        response = _ask(server, {"op": "unregister", "pool": "lab"})
        assert response["ok"] is True
        assert "lab" not in server.registry

    def test_register_replaces(self):
        server = _server()
        request = {
            "op": "register",
            "pool": "lab",
            "model": WEIBULL_SPEC,
            "costs": COSTS_PAYLOAD,
        }
        assert _ask(server, request)["replaced"] is False
        assert _ask(server, request)["replaced"] is True

    @pytest.mark.parametrize("op", ["register", "unregister"])
    def test_pool_worker_rejects_registry_writes(self, op):
        # a pool worker holds one of several registries: a write would
        # reach only the worker that read it
        server = _server(worker_index=0)
        before = sorted(entry.name for entry in server.registry.entries())
        response = _ask(
            server,
            {"op": op, "id": 5, "pool": "campus-exp", "model": WEIBULL_SPEC, "costs": COSTS_PAYLOAD},
        )
        assert response["ok"] is False
        assert response["id"] == 5
        assert response["error"]["code"] == "unsupported-op"
        assert "--pools" in response["error"]["message"]
        assert sorted(entry.name for entry in server.registry.entries()) == before
        assert server.registry.get("campus-exp").distribution.fingerprint()[0] == "Exponential"

    def test_stats_op(self):
        with use_solver_cache(SolverCache()):
            server = _server()
            _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})
            response = _ask(server, {"op": "stats", "id": 4})
        stats = response["stats"]
        assert stats["schema"] == PROTOCOL_SCHEMA
        assert stats["requests"] == 2
        assert stats["errors"] == 0
        assert stats["pools"] == 3
        assert stats["batch"]["queries"] == 1
        assert stats["cache"]["enabled"] is True
        assert stats["cache"]["entries"] == 1

    def test_errors_counted(self):
        server = _server()
        _ask(server, {"op": "solve", "pool": "nope", "age": 0.0})
        assert server.errors == 1

    def test_handle_line_parse_error(self):
        server = _server()
        response = asyncio.run(server.handle_line("{broken"))
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-json"
        assert server.errors == 1


class TestTelemetryOps:
    def test_metrics_op_disabled(self):
        response = _ask(_server(), {"op": "metrics", "id": 1})
        assert response["ok"] is True
        assert response["enabled"] is False
        assert response["metrics"] == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_metrics_op_returns_live_snapshot(self):
        with use_solver_cache(SolverCache()), use_metrics():
            server = _server()
            _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})
            response = _ask(server, {"op": "metrics", "id": 2})
        assert response["enabled"] is True
        counters = response["metrics"]["counters"]
        assert counters["serve.tenant.requests{op=solve,tenant=campus-exp}"] == 1.0

    def test_health_op(self):
        with use_solver_cache(SolverCache()):
            server = _server()
            _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})
            response = _ask(server, {"op": "health", "id": 3})
        health = response["health"]
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0.0
        assert health["queue_depth"] == 0
        assert health["pools"] == 3
        assert health["requests"] == 2  # the health op itself counts
        assert health["errors"] == 0
        assert health["snapshot_configured"] is False
        assert health["snapshot_age_s"] is None

    def test_stats_derived_fields(self):
        with use_solver_cache(SolverCache()):
            server = _server()
            _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})
            _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})  # cache hit
            _ask(server, {"op": "ping"})
            response = _ask(server, {"op": "stats", "id": 4})
        stats = response["stats"]
        assert stats["ops"] == {"ping": 1, "solve": 2, "stats": 1}
        assert stats["cache"]["hit_rate"] == pytest.approx(0.5)
        # sequential requests never share a batch: one dispatch per query
        assert stats["solves_per_request"] == pytest.approx(1.0)

    def test_stats_derived_fields_absent_without_traffic(self):
        with use_solver_cache(None):
            stats = _ask(_server(), {"op": "stats"})["stats"]
        assert stats["solves_per_request"] is None
        assert stats["cache"]["enabled"] is False

    def test_invalid_op_counted(self):
        server = _server()
        _ask(server, {"op": "frobnicate"})
        assert server.op_counts["invalid"] == 1

    def test_tenant_and_op_labels(self):
        with use_solver_cache(SolverCache()), use_metrics() as reg:
            server = _server()
            _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})
            _ask(server, {"op": "solve", "pool": "campus-weibull", "age": 0.0})
            _ask(server, {"op": "solve", "pool": "nope", "age": 0.0})  # error
            _ask(server, {"op": "ping"})
        counters = reg.as_dict()["counters"]
        assert counters["serve.tenant.requests{op=solve,tenant=campus-exp}"] == 1.0
        assert counters["serve.tenant.requests{op=solve,tenant=campus-weibull}"] == 1.0
        assert counters["serve.tenant.requests{op=solve,tenant=nope}"] == 1.0
        assert counters["serve.tenant.errors{op=solve,tenant=nope}"] == 1.0
        assert counters["serve.tenant.requests{op=ping,tenant=-}"] == 1.0
        hists = reg.as_dict()["histograms"]
        assert hists["serve.tenant.request_seconds{op=solve,tenant=campus-exp}"]["count"] == 1

    def test_lifecycle_histograms_and_cache_attribution(self):
        with use_solver_cache(SolverCache()), use_metrics() as reg:
            server = _server()
            _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})
            _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})
        d = reg.as_dict()
        for stage in ("queue_wait", "batch_group", "solve"):
            assert d["histograms"][f"serve.lifecycle.{stage}_seconds"]["count"] >= 1
        counters = d["counters"]
        assert counters["serve.tenant.cache.misses{tenant=campus-exp}"] == 1.0
        assert counters["serve.tenant.cache.hits{tenant=campus-exp}"] == 1.0

    def test_registry_actions_labeled(self):
        with use_metrics() as reg:
            server = _server()
            request = {
                "op": "register",
                "pool": "lab",
                "model": WEIBULL_SPEC,
                "costs": COSTS_PAYLOAD,
            }
            _ask(server, request)
            _ask(server, request)
            _ask(server, {"op": "unregister", "pool": "lab"})
        counters = reg.as_dict()["counters"]
        assert counters["serve.tenant.registry{action=register,tenant=lab}"] == 1.0
        assert counters["serve.tenant.registry{action=replace,tenant=lab}"] == 1.0
        assert counters["serve.tenant.registry{action=unregister,tenant=lab}"] == 1.0

    def test_slow_request_logged_and_counted(self, caplog):
        with use_solver_cache(SolverCache()), use_metrics() as reg:
            server = _server(slow_request_s=1e-9)  # everything is "slow"
            with caplog.at_level("WARNING", logger="repro.serve"):
                _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})
        assert reg.as_dict()["counters"]["serve.requests.slow"] == 1.0
        records = [r for r in caplog.records if r.name == "repro.serve"]
        assert len(records) == 1
        event = json.loads(records[0].getMessage())
        assert event["event"] == "slow_request"
        assert event["op"] == "solve"
        assert event["tenant"] == "campus-exp"
        assert event["ok"] is True
        assert event["elapsed_s"] > event["threshold_s"]

    def test_fast_request_not_logged(self, caplog):
        with use_solver_cache(SolverCache()):
            server = _server()  # default 1 s threshold
            with caplog.at_level("WARNING", logger="repro.serve"):
                _ask(server, {"op": "ping"})
        assert not [r for r in caplog.records if r.name == "repro.serve"]

    def test_slow_request_threshold_validated(self):
        with pytest.raises(ValueError):
            ServerConfig(slow_request_s=0.0)


class TestMetricsHttpEndpoint:
    @staticmethod
    async def _http_get(port, path):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode())
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=5.0)
        writer.close()
        await writer.wait_closed()
        head, _, body = raw.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        return status, body.decode()

    def _run_with_endpoint(self, scenario):
        async def session():
            server = _server(metrics_port=0)
            await server.start()
            assert server.metrics_port is not None
            try:
                return await scenario(server)
            finally:
                await server.stop()

        with use_solver_cache(SolverCache()):
            return asyncio.run(session())

    def test_metrics_endpoint_parses_as_prometheus(self):
        from repro.obs.prometheus import parse_prometheus_text

        async def scenario(server):
            await server.handle_request({"op": "solve", "pool": "campus-exp", "age": 0.0})
            return await self._http_get(server.metrics_port, "/metrics")

        status, body = self._run_with_endpoint(scenario)
        assert status == 200
        samples = parse_prometheus_text(body)
        names = {name for name, _labels, _value in samples}
        assert "repro_serve_tenant_requests_total" in names

    def test_health_endpoint_returns_json(self):
        async def scenario(server):
            return await self._http_get(server.metrics_port, "/health")

        status, body = self._run_with_endpoint(scenario)
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["metrics_enabled"] is True

    def test_unknown_path_404(self):
        async def scenario(server):
            return await self._http_get(server.metrics_port, "/nope")

        status, _body = self._run_with_endpoint(scenario)
        assert status == 404

    def test_post_is_405(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.metrics_port
            )
            writer.write(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            await writer.wait_closed()
            return int(raw.split(b" ", 2)[1])

        assert self._run_with_endpoint(scenario) == 405

    def test_owned_registry_uninstalled_on_stop(self):
        from repro.obs.metrics import active

        async def scenario(server):
            return active() is not None

        assert self._run_with_endpoint(scenario) is True
        assert active() is None

    def test_no_endpoint_without_metrics_port(self):
        async def session():
            server = _server()
            await server.start()
            port = server.metrics_port
            await server.stop()
            return port

        with use_solver_cache(SolverCache()):
            assert asyncio.run(session()) is None


class TestSnapshotLifecycle:
    def test_snapshot_op_and_warm_load(self, tmp_path):
        path = str(tmp_path / "cache.json")
        with use_solver_cache(SolverCache()):
            server = _server(snapshot_path=path)
            _ask(server, {"op": "solve", "pool": "campus-weibull", "age": 100.0})
            response = _ask(server, {"op": "snapshot", "id": 5})
        assert response["ok"] is True
        assert response["entries"] == 1
        assert response["path"] == path

        with use_solver_cache(SolverCache()) as fresh:
            restarted = _server(snapshot_path=path)
            assert asyncio.run(restarted.load_snapshot()) == 1
            assert restarted.warm_loaded_entries == 1
            assert len(fresh) == 1
            # the warm entry answers without a new solve
            _ask(restarted, {"op": "solve", "pool": "campus-weibull", "age": 100.0})
            assert fresh.hits == 1
            assert fresh.misses == 0

    def test_snapshot_op_explicit_path(self, tmp_path):
        path = str(tmp_path / "explicit.json")
        with use_solver_cache(SolverCache()):
            response = _ask(_server(), {"op": "snapshot", "path": path})
        assert response["ok"] is True
        with open(path) as fh:
            assert json.load(fh)["schema"] == SNAPSHOT_SCHEMA

    def test_snapshot_op_without_path_fails(self):
        with use_solver_cache(SolverCache()):
            response = _ask(_server(), {"op": "snapshot", "id": 6})
        assert response["error"]["code"] == "snapshot-failed"

    def test_write_snapshot_requires_path(self):
        with pytest.raises(SnapshotError, match="no snapshot path"):
            asyncio.run(_server().write_snapshot())

    def test_corrupt_snapshot_is_cold_start(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{definitely not json")
        with use_solver_cache(SolverCache()), use_metrics() as reg:
            server = _server(snapshot_path=str(path))
            assert asyncio.run(server.load_snapshot()) == 0
        assert reg.as_dict()["counters"]["serve.snapshot.load_failures"] == 1.0

    def test_missing_snapshot_is_cold_start(self, tmp_path):
        server = _server(snapshot_path=str(tmp_path / "absent.json"))
        with use_solver_cache(SolverCache()):
            assert asyncio.run(server.load_snapshot()) == 0

    def test_wrong_schema_snapshot_is_cold_start(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"schema": "something/else", "entries": []}))
        with use_solver_cache(SolverCache()):
            assert asyncio.run(_server(snapshot_path=str(path)).load_snapshot()) == 0


    def test_refused_snapshot_is_logged_and_reported(self, tmp_path, schema_1_snapshot, caplog):
        """A refused file is logged once per load with its path and
        reason and kept for the banner; an absent file is not."""
        path = tmp_path / "old.json"
        path.write_text(json.dumps(schema_1_snapshot))
        with use_solver_cache(SolverCache()), caplog.at_level("WARNING", logger="repro.serve"):
            server = _server(snapshot_path=str(path))
            assert asyncio.run(server.load_snapshot()) == 0
            assert asyncio.run(server.load_snapshot()) == 0
        events = [json.loads(r.getMessage()) for r in caplog.records if r.name == "repro.serve"]
        assert [e["event"] for e in events] == ["snapshot_load_failed"] * 2
        assert all(e["path"] == str(path) and "not a solver-cache snapshot" in e["reason"] for e in events)
        assert "not a solver-cache snapshot" in server.warm_load_refused
        caplog.clear()
        absent = _server(snapshot_path=str(tmp_path / "absent.json"))
        with use_solver_cache(SolverCache()), caplog.at_level("WARNING", logger="repro.serve"):
            assert asyncio.run(absent.load_snapshot()) == 0
        assert absent.warm_load_refused is None
        assert not [r for r in caplog.records if r.name == "repro.serve"]

    def test_banner_says_snapshot_refused(self, tmp_path, schema_1_snapshot):
        """``repro serve --snapshot`` on a refused file says so in its
        banner, where an empty or absent file reads ``warm-loaded: 0
        entries`` alone."""
        import socket
        import threading
        import time

        from repro.serve.cli import serve_main

        path = tmp_path / "old.json"
        path.write_text(json.dumps(schema_1_snapshot))
        out = io.StringIO()
        with use_solver_cache(SolverCache()):
            thread = threading.Thread(
                target=serve_main,
                args=(["--port", "0", "--demo", "--snapshot", str(path), "--snapshot-interval", "3600"], out),
            )
            thread.start()
            deadline = time.monotonic() + 30.0
            while "listening on" not in out.getvalue() and time.monotonic() < deadline:
                time.sleep(0.05)
            banner = out.getvalue().splitlines()[0]
            port = int(banner.split("listening on ")[1].split(" ")[0].rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
                conn.sendall(b'{"op": "shutdown", "id": 1}\n')
                conn.recv(4096)
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert "warm-loaded: 0 entries, snapshot refused:" in banner
        assert "not a solver-cache snapshot" in banner

    def test_schema_1_snapshot_is_cold_start(self, tmp_path, schema_1_snapshot):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(schema_1_snapshot))
        with use_solver_cache(SolverCache()) as cache, use_metrics() as reg:
            server = _server(snapshot_path=str(path))
            assert asyncio.run(server.load_snapshot()) == 0
            assert asyncio.run(server.load_snapshot()) == 0
            assert len(cache) == 0
            assert cache.hits == 0 and cache.misses == 0
        assert reg.as_dict()["counters"]["serve.snapshot.load_failures"] == 2.0


class TestTCP:
    def test_full_session_over_tcp(self, tmp_path):
        snapshot = str(tmp_path / "cache.json")

        async def session():
            server = _server(snapshot_path=snapshot)
            await server.start()
            assert server.port is not None
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)

            async def ask(payload):
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            responses = {}
            responses["ping"] = await ask({"op": "ping", "id": 0})
            responses["solve"] = await ask(
                {"op": "solve", "id": 1, "pool": "campus-exp", "age": 500.0}
            )
            responses["dup"] = await ask(
                {"op": "solve", "id": 2, "pool": "campus-exp", "age": 500.0}
            )
            responses["stats"] = await ask({"op": "stats", "id": 3})
            responses["shutdown"] = await ask({"op": "shutdown", "id": 4})
            writer.close()
            await writer.wait_closed()
            await asyncio.wait_for(server.wait_stopped(), timeout=5.0)
            await server.stop()
            return responses

        with use_solver_cache(SolverCache()):
            responses = asyncio.run(session())
        assert responses["ping"]["pong"] is True
        assert responses["solve"]["ok"] is True
        assert responses["dup"]["result"] == responses["solve"]["result"]
        assert responses["stats"]["stats"]["requests"] >= 3
        assert responses["shutdown"]["stopping"] is True
        # the shutdown path wrote a final snapshot
        with open(snapshot) as fh:
            assert json.load(fh)["schema"] == SNAPSHOT_SCHEMA

    def test_pipelined_requests_batch_together(self):
        async def session():
            server = _server(batch_window_s=0.02)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            # fire 6 requests without waiting for responses
            for i in range(6):
                payload = {"op": "solve", "id": i, "pool": "campus-exp", "age": float(i % 2)}
                writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            responses = [json.loads(await reader.readline()) for _ in range(6)]
            writer.close()
            await writer.wait_closed()
            stats = server.batcher.stats
            await server.stop()
            return responses, stats

        with use_solver_cache(SolverCache()):
            responses, stats = asyncio.run(session())
        assert all(r["ok"] for r in responses)
        assert {r["id"] for r in responses} == set(range(6))
        # 6 concurrent queries with 2 distinct ages collapsed into few solves
        assert stats.queries == 6
        assert stats.solves <= 2 * stats.batches
        assert stats.collapsed >= 1

    def test_bad_line_gets_error_response_and_connection_survives(self):
        async def session():
            server = _server()
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"this is not json\n")
            await writer.drain()
            first = json.loads(await reader.readline())
            writer.write((json.dumps({"op": "ping", "id": 1}) + "\n").encode())
            await writer.drain()
            second = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await server.stop()
            return first, second

        with use_solver_cache(SolverCache()):
            first, second = asyncio.run(session())
        assert first["ok"] is False
        assert first["error"]["code"] == "bad-json"
        assert second == {"ok": True, "id": 1, "pong": True, "schema": PROTOCOL_SCHEMA}

    def test_connection_metrics(self):
        async def session():
            server = _server()
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)  # let the handler observe EOF
            await server.stop()

        with use_solver_cache(SolverCache()), use_metrics() as reg:
            asyncio.run(session())
        counters = reg.as_dict()["counters"]
        assert counters["serve.connections.opened"] == 1.0
        assert counters["serve.connections.closed"] == 1.0


class _CountingWriter:
    """A stand-in ``StreamWriter`` that records every write and drain;
    ``buffered`` is the transport buffer size it reports."""

    def __init__(self, buffered=0):
        self.writes: list[bytes] = []
        self.drains = 0
        self.buffered = buffered
        self.transport = self

    def write(self, data):
        self.writes.append(bytes(data))

    def get_write_buffer_size(self):
        return self.buffered

    async def drain(self):
        self.drains += 1

    def close(self):
        pass

    async def wait_closed(self):
        pass


def _pipelined(server, requests, writer=None):
    """Feed ``requests`` down one connection; returns the writes made."""
    writer = writer if writer is not None else _CountingWriter()

    async def session():
        reader = asyncio.StreamReader()
        reader.feed_data(b"".join((json.dumps(r) + "\n").encode() for r in requests))
        reader.feed_eof()
        await server.handle_connection(reader, writer)
        return writer.writes

    return asyncio.run(session())


class TestCoalescedWrites:
    def test_pipelined_solves_one_write_per_flush(self):
        count = 30
        server = _server(max_batch=8)
        requests = [
            {"op": "solve", "id": i, "pool": "campus-exp", "age": float(i % 5)}
            for i in range(count)
        ]
        with use_solver_cache(SolverCache()):
            writes = _pipelined(server, requests)
        stats = server.batcher.stats
        assert stats.batches == 4  # three full batches, then the window
        assert len(writes) <= stats.batches
        data = b"".join(writes)
        assert all(w.endswith(b"\n") for w in writes)  # no write splits a line
        lines = data.decode().splitlines()
        assert len(lines) == count
        responses = [json.loads(line) for line in lines]
        assert sorted(r["id"] for r in responses) == list(range(count))
        assert all(r["ok"] for r in responses)

    def test_backed_up_transport_drains_before_reading_on(self):
        # a write past the watermark makes the connection wait in drain()
        # before its next read; below it, nothing drains
        requests = [
            {"op": "solve", "id": i, "pool": "campus-exp", "age": float(i)}
            for i in range(20)
        ]
        for buffered, expected in ((0, 0), (server_module._DRAIN_WATERMARK + 1, 2)):
            server = _server(max_batch=8)
            writer = _CountingWriter(buffered=buffered)
            with use_solver_cache(SolverCache()):
                writes = _pipelined(server, requests, writer)
            # the two full batches flush while the connection reads; the
            # last four answer after EOF, when nothing is read any more
            assert writer.drains == expected
            assert len(b"".join(writes).decode().splitlines()) == len(requests)

    def test_control_replies_written_in_read_order_with_solves(self):
        # a register pipelined ahead of solves takes effect for them, and
        # the shutdown reply is written before the handler returns
        server = _server()
        weibull = Weibull(0.43, 3409.0)
        requests = [
            {"op": "solve", "id": 0, "pool": "lab", "age": 10.0},
            {"op": "register", "id": 1, "pool": "lab", "model": WEIBULL_SPEC, "costs": COSTS_PAYLOAD},
            {"op": "solve", "id": 2, "pool": "lab", "age": 10.0},
            {"op": "shutdown", "id": 3},
        ]
        with use_solver_cache(None):
            writes = _pipelined(server, requests)
            direct = optimize_interval(weibull, CheckpointCosts(110.0, 110.0, 0.0), age=10.0)
        responses = {r["id"]: r for r in map(json.loads, b"".join(writes).decode().splitlines())}
        assert responses[0]["error"]["code"] == "unknown-pool"
        assert responses[1]["ok"] is True
        assert responses[2]["result"]["T_opt"] == direct.T_opt
        assert responses[3]["stopping"] is True


class TestDefaultFlush:
    def test_default_config_answers_a_read_at_the_end_of_the_turn(self, monkeypatch):
        """A default daemon holds no solve on a timer: the solves read
        from one chunk of bytes go out in one flush and one write, on
        the loop turn after the one that read them."""
        server = ScheduleServer(ServerConfig(), registry=demo_registry())
        writer = _CountingWriter()
        requests = [
            {"op": "solve", "id": i, "pool": "campus-exp", "age": float(i % 2)}
            for i in range(3)
        ]

        async def session():
            with monkeypatch.context() as patch:
                patch.setattr(
                    asyncio.get_running_loop(),
                    "call_later",
                    lambda *a, **k: pytest.fail("the default server armed a timer"),
                )
                reader = asyncio.StreamReader()
                reader.feed_data(
                    b"".join((json.dumps(r) + "\n").encode() for r in requests)
                )
                task = asyncio.ensure_future(server.handle_connection(reader, writer))
                await asyncio.sleep(0)  # the connection reads and queues all three
                queued = (server.batcher.pending, list(writer.writes))
                await asyncio.sleep(0)  # the end of that turn: the flush
                answered = list(writer.writes)
                reader.feed_eof()
                await task
                return queued, answered

        with use_solver_cache(SolverCache()):
            queued, answered = asyncio.run(session())
        assert queued == (3, [])
        assert len(answered) == 1
        lines = answered[0].decode().splitlines()
        assert sorted(json.loads(line)["id"] for line in lines) == [0, 1, 2]
        assert server.batcher.stats.batches == 1


class TestStdio:
    def test_stdio_round_trip(self):
        lines = [
            json.dumps({"op": "ping", "id": 1}),
            json.dumps({"op": "solve", "id": 2, "pool": "campus-exp", "age": 0.0}),
            "",  # blank lines are skipped
            json.dumps({"op": "stats", "id": 3}),
        ]
        out = io.StringIO()
        with use_solver_cache(SolverCache()):
            server = _server()
            served = asyncio.run(server.run_stdio(lines, out))
        assert served == 3
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["id"] for r in responses] == [1, 2, 3]
        assert all(r["ok"] for r in responses)

    def test_stdio_shutdown_stops_early(self):
        lines = [
            json.dumps({"op": "shutdown", "id": 1}),
            json.dumps({"op": "ping", "id": 2}),  # never reached
        ]
        out = io.StringIO()
        with use_solver_cache(SolverCache()):
            served = asyncio.run(_server().run_stdio(lines, out))
        assert served == 1


class TestServedEqualsDirect:
    def test_solve_matches_direct_optimizer(self):
        registry = TenantRegistry()
        dist = Exponential(1.0 / 5000.0)
        costs = CheckpointCosts.symmetric(110.0)
        registry.register("p", dist, costs)
        server = ScheduleServer(ServerConfig(batch_window_s=0.0), registry=registry)
        with use_solver_cache(None):
            response = _ask(server, {"op": "solve", "pool": "p", "age": 123.0})
            direct = optimize_interval(dist, costs, age=123.0)
        assert response["result"]["T_opt"] == direct.T_opt
        assert response["result"]["gamma"] == direct.gamma
