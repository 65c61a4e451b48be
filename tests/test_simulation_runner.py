"""Tests for pool sweeps."""

import numpy as np
import pytest

from repro.obs.tracing import TraceRecorder
from repro.obs.tracing import use as use_trace
from repro.simulation import SimulationConfig, SweepSettings, simulate_machine, simulate_pool
from repro.traces import SyntheticPoolConfig, generate_condor_pool

SMALL_SETTINGS = SweepSettings(
    checkpoint_costs=(100.0, 500.0),
    n_train=10,
    base_config=SimulationConfig(checkpoint_cost=0.0),
)


@pytest.fixture(scope="module")
def pool():
    return generate_condor_pool(
        SyntheticPoolConfig(n_machines=5, n_observations=40), np.random.default_rng(2)
    )


@pytest.fixture(scope="module")
def sweep(pool):
    return simulate_pool(pool, SMALL_SETTINGS)


class TestSweepSettings:
    def test_replay_mode_validated(self):
        with pytest.raises(ValueError):
            SweepSettings(replay="half")

    def test_empty_costs_rejected(self):
        with pytest.raises(ValueError):
            SweepSettings(checkpoint_costs=())


class TestSimulateMachine:
    def test_one_result_per_model_cost(self, pool):
        results = simulate_machine(pool[0], SMALL_SETTINGS)
        assert len(results) == 4 * 2
        keys = {(r.model_name, r.checkpoint_cost) for r in results}
        assert len(keys) == 8

    def test_replay_full_covers_whole_trace(self, pool):
        results = simulate_machine(pool[0], SMALL_SETTINGS)
        assert results[0].total_time == pytest.approx(pool[0].total_availability)

    def test_replay_experimental_only(self, pool):
        settings = SweepSettings(
            checkpoint_costs=(100.0,), n_train=10, replay="experimental"
        )
        results = simulate_machine(pool[0], settings)
        _, test = pool[0].split(10)
        assert results[0].total_time == pytest.approx(float(test.sum()))

    def test_deterministic(self, pool):
        a = simulate_machine(pool[1], SMALL_SETTINGS)
        b = simulate_machine(pool[1], SMALL_SETTINGS)
        assert [r.efficiency for r in a] == [r.efficiency for r in b]


class TestPoolSweep:
    def test_metric_matrix_shape(self, sweep, pool):
        mat = sweep.metric_matrix("weibull", "efficiency")
        assert mat.shape == (len(pool), 2)
        assert np.all((mat >= 0.0) & (mat <= 1.0))

    def test_metric_matrix_mb(self, sweep, pool):
        mat = sweep.metric_matrix("exponential", "mb_total")
        assert mat.shape == (len(pool), 2)
        assert np.all(mat >= 0.0)
        # larger C -> fewer checkpoints -> less traffic (columns ordered by cost)
        assert np.mean(mat[:, 0]) > np.mean(mat[:, 1])

    def test_machines_order(self, sweep, pool):
        assert sweep.machines() == pool.machine_ids

    def test_unknown_metric_raises(self, sweep):
        with pytest.raises(AttributeError):
            sweep.metric_matrix("weibull", "nonexistent")

    def test_parallel_matches_serial(self, pool):
        serial = simulate_pool(pool, SMALL_SETTINGS, n_workers=1)
        parallel = simulate_pool(pool, SMALL_SETTINGS, n_workers=2)
        assert parallel.results == serial.results

    def test_fan_out_trace_keeps_sampling_and_limit(self, pool):
        """Fan-out tasks record with the parent recorder's stride sampling
        and capacity; per-machine strides keep other events than the
        serial order does, but the same events pass through."""
        traces = list(pool)[:3]
        seen = {}
        for workers in (1, 2):
            with use_trace(TraceRecorder(max_events=300, sampling={"replay": 10})) as rec:
                simulate_pool(traces, SMALL_SETTINGS, n_workers=workers)
            assert rec.n_sampled_out > 0
            assert len(rec) <= 300
            assert rec.n_dropped > 0
            seen[workers] = rec.n_recorded + rec.n_sampled_out
        assert seen[1] == seen[2]

    def test_more_workers_than_machines(self, pool):
        traces = list(pool)[:2]
        serial = simulate_pool(traces, SMALL_SETTINGS, n_workers=1)
        wide = simulate_pool(traces, SMALL_SETTINGS, n_workers=6)
        assert wide.results == serial.results

    def test_pool_capped_at_machine_count(self, pool, monkeypatch):
        """Under ``fork`` the executor starts all ``max_workers``
        processes at once, so the fan-out asks for no more than one per
        machine.  The fake executor runs tasks inline: no process starts."""
        import repro.simulation.runner as runner

        requested = []

        class InlineExecutor:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", InlineExecutor)
        traces = list(pool)[:2]
        wide = simulate_pool(traces, SMALL_SETTINGS, n_workers=64)
        assert requested == [2]
        assert wide.results == simulate_pool(traces, SMALL_SETTINGS).results


class TestOneReplayCall:
    def test_serial_pool_matches_per_model_replays(self, pool, sweep):
        """The serial sweep hands every (machine, model) to one
        ``replay_batch`` call, so its lock-step fill solves every fitted
        model together; each result is the one a per-(machine, model)
        call gives, bitwise."""
        from repro.core import SolverCache, use_solver_cache
        from repro.simulation.batch_replay import replay_batch
        from repro.simulation.runner import _fit_machine, _model_items, _replay_durations

        expected = []
        with use_solver_cache(SolverCache()):
            for trace in pool:
                replay = _replay_durations(trace, SMALL_SETTINGS)
                for model_name, dist in _fit_machine(trace, SMALL_SETTINGS):
                    expected += replay_batch(
                        _model_items(dist, replay, trace.machine_id, model_name, SMALL_SETTINGS)
                    )
        assert list(sweep.results) == expected

    def test_one_replay_batch_call(self, pool, monkeypatch):
        import repro.simulation.runner as runner

        calls = []
        real = runner.replay_batch

        def counting(items):
            calls.append(len(items))
            return real(items)

        monkeypatch.setattr(runner, "replay_batch", counting)
        simulate_pool(pool, SMALL_SETTINGS)
        n_items = len(pool.traces) * len(SMALL_SETTINGS.model_names) * len(SMALL_SETTINGS.checkpoint_costs)
        assert calls == [n_items]
