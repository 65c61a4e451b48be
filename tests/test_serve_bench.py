"""Unit tests for the serve load generator (small, fast runs)."""

import asyncio
import json

import pytest

from repro.serve.bench import (
    BENCH_SCHEMA,
    BenchConfig,
    build_queries,
    run_bench,
    summarize_latencies,
)
from repro.serve.registry import demo_registry

SMALL = BenchConfig(
    requests=60,
    clients=3,
    rate_qps=400.0,
    open_loop_requests=40,
    equivalence_sample=20,
    seed=11,
)


class TestConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"requests": 0},
            {"clients": 0},
            {"rate_qps": 0.0},
            {"open_loop_requests": 0},
            {"age_buckets": 0},
            {"unique_age_fraction": 1.5},
            {"equivalence_sample": -1},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            BenchConfig(**overrides)


class TestQueryStream:
    def test_deterministic_given_seed(self):
        assert build_queries(SMALL, 50) == build_queries(SMALL, 50)

    def test_phase_offsets_the_stream(self):
        assert build_queries(SMALL, 50) != build_queries(SMALL, 50, phase=1)

    def test_queries_name_demo_pools(self):
        registry = demo_registry()
        for q in build_queries(SMALL, 50):
            assert q["op"] == "solve"
            assert q["pool"] in registry
            assert q["age"] >= 0.0

    def test_ids_are_sequential(self):
        assert [q["id"] for q in build_queries(SMALL, 10)] == list(range(10))

    def test_bucketed_ages_repeat(self):
        # the whole point: most queries reuse a small age-bucket set
        queries = build_queries(SMALL, 200)
        distinct = {(q["pool"], q["age"]) for q in queries}
        assert len(distinct) < len(queries) / 2


class TestSummaries:
    def test_summarize_latencies(self):
        summary = summarize_latencies([0.001, 0.002, 0.003, 0.004], 0.5)
        assert summary["requests"] == 4
        assert summary["qps"] == pytest.approx(8.0)
        lat = summary["latency_ms"]
        assert lat["p50"] == pytest.approx(2.5)
        assert lat["max"] == pytest.approx(4.0)
        assert lat["mean"] == pytest.approx(2.5)

    def test_errors_default_to_zero(self):
        summary = summarize_latencies([0.001, 0.002], 0.1)
        assert summary["errors"] == 0
        assert summary["error_rate"] == 0.0

    def test_error_count_and_rate(self):
        summary = summarize_latencies([0.001, 0.002, 0.003, 0.004], 0.5, errors=1)
        assert summary["errors"] == 1
        assert summary["error_rate"] == pytest.approx(0.25)

    def test_nothing_completed_reads_none(self):
        summary = summarize_latencies([], 2.0, errors=3)
        assert summary["requests"] == 0
        assert summary["qps"] == 0.0
        assert summary["errors"] == 3
        assert summary["error_rate"] == 0.0
        assert set(summary["latency_ms"]) >= {"mean", "p50", "p99"}
        assert all(value is None for value in summary["latency_ms"].values())


class TestDaemon:
    def test_stopped_when_the_phase_fails(self):
        import repro.serve.bench as bench_mod

        async def scenario():
            with pytest.raises(RuntimeError, match="phase failed"):
                async with bench_mod._daemon(SMALL) as (server, port, cache):
                    assert len(server.registry) == 3
                    assert cache.hits == cache.misses == 0
                    raise RuntimeError("phase failed")
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)

        asyncio.run(scenario())


class TestOpenLoopErrorsFailLoudly:
    def test_run_bench_raises_on_open_loop_errors(self, tmp_path, monkeypatch):
        import repro.serve.bench as bench_mod

        async def broken_open_loop(*args, **kwargs):
            return [0.001] * 5, 0.01, 2  # two failed responses

        monkeypatch.setattr(bench_mod, "run_open_loop", broken_open_loop)
        with pytest.raises(RuntimeError, match="2 failed request"):
            run_bench(SMALL, str(tmp_path / "snap.json"))


class TestFullRun:
    def test_small_artifact_end_to_end(self, tmp_path):
        artifact = run_bench(SMALL, str(tmp_path / "snap.json"))
        # JSON-clean and schema-stamped
        artifact = json.loads(json.dumps(artifact))
        assert artifact["schema"] == BENCH_SCHEMA
        assert artifact["config"]["requests"] == SMALL.requests
        assert artifact["closed_loop"]["requests"] == SMALL.requests
        assert artifact["open_loop"]["requests"] == SMALL.open_loop_requests
        assert artifact["open_loop"]["errors"] == 0
        assert artifact["open_loop"]["qps_offered"] == SMALL.rate_qps
        # served answers matched direct solves exactly
        assert artifact["equivalence_max_rel_dev"] <= 1e-12
        # the warm restart loaded the cold run's snapshot
        assert artifact["warm_start"]["snapshot_entries_loaded"] > 0
        assert (
            artifact["warm_start"]["initial_hit_rate"]
            > artifact["cold_start"]["initial_hit_rate"]
        )
        # batching accounting is internally consistent
        batching = artifact["batching"]
        assert batching["queries"] == SMALL.requests
        assert batching["solves"] + batching["collapsed"] == batching["queries"]
        assert 0.0 < batching["solves_per_request"] <= 1.0
