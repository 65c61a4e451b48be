"""Equivalence and behaviour tests for the vectorized batch replay kernel.

The per-cycle loop in ``tests/replay_oracle.py`` is the golden
reference; the batch kernel must match it on every ``SimulationResult``
field to <= 1e-9 relative (counts and strings exactly) across all
partial-transfer policies, both ``recover_on_start`` settings, and
arbitrary random pools, and record the same spans per track while a
trace recorder is active.  Storage-backed items through ``replay_batch``
must equal the per-commit store loop in ``tests/storage_replay_oracle.py``
exactly.
"""

import dataclasses
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.schedule as schedule_mod
from repro.core import CheckpointCosts, CheckpointSchedule
from repro.core.solver_cache import SolverCache, use_solver_cache
from repro.distributions import Exponential, Hyperexponential, Weibull
from repro.distributions.fitting import fit_model
from repro.experiments.storage_study import DEFAULT_STORAGE_POLICIES, run_storage_study
from repro.obs.metrics import use as use_metrics
from repro.obs.tracing import TraceRecorder, use as use_trace
from repro.simulation import (
    BatchReplayItem,
    SimulationConfig,
    SweepSettings,
    replay_batch,
    replay_flat_pool,
    replay_schedule,
    simulate_pool,
    simulate_trace,
)
from repro.simulation.batch_replay import _fill_lockstep, _fill_need
from repro.simulation.runner import _fit_machine, _replay_durations
from repro.simulation.trace_sim import model_schedule
from repro.storage.policy import StoragePolicy
from repro.traces.model import TRAINING_SET_SIZE, AvailabilityTrace
from repro.traces.synthetic import SyntheticPoolConfig, generate_condor_pool
from tests.replay_oracle import replay_flat
from tests.storage_replay_oracle import replay_with_storage

REL_BUDGET = 1e-9

INT_FIELDS = {
    "n_intervals",
    "n_failures",
    "n_checkpoints_completed",
    "n_checkpoints_attempted",
    "n_recoveries_completed",
    "n_recoveries_attempted",
    "n_full_checkpoints",
    "n_delta_checkpoints",
    "max_restore_chain_len",
}


def fixed_schedule(T):
    """A duck-typed schedule with a constant work interval."""
    sched = CheckpointSchedule(Exponential(1e-9), CheckpointCosts.symmetric(0.0))

    class Fixed:
        costs = sched.costs

        def work_interval(self, i):
            return T

        def intervals(self, n):
            return [T] * n

        def expected_efficiency(self, i=0):
            return 1.0

    return Fixed()


def kernel_results(schedule, pool, config):
    """One ``replay_batch`` over ``pool`` (one trace per machine), all
    items sharing ``schedule`` and ``config``: one kernel call."""
    return replay_batch(
        [
            BatchReplayItem(schedule=schedule, durations=d, config=config, machine_id=f"machine{m:06d}")
            for m, d in enumerate(pool)
        ]
    )


def oracle_replay(schedule, durations, config, **labels):
    """The per-cycle reference for ``config``: the flat loop, or the
    per-commit store loop for storage-backed configs."""
    if config.storage_backed:
        labels = {"machine_id": "machine", "model_name": "model", **labels}
        return replay_with_storage(schedule, durations, config, **labels)
    return replay_flat(schedule, durations, config, **labels)


def assert_results_match(batch, scalar):
    """Every dataclass field equal: ints/strs exactly, floats to 1e-9."""
    for f in dataclasses.fields(type(scalar)):
        got = getattr(batch, f.name)
        want = getattr(scalar, f.name)
        if f.name in INT_FIELDS:
            assert got == want, f"{f.name}: {got} != {want}"
        elif isinstance(want, str):
            assert got == want, f"{f.name}: {got!r} != {want!r}"
        else:
            assert got == pytest.approx(want, rel=REL_BUDGET, abs=1e-12), (
                f"{f.name}: {got} != {want}"
            )


class TestHandComputed:
    """The scalar suite's hand checks, replayed through the kernel."""

    def test_perfect_interval(self):
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        (res,) = kernel_results(
            fixed_schedule(600.0), [np.array([750.0])], cfg
        )
        assert res.useful_work == pytest.approx(600.0)
        assert res.recovery_overhead == pytest.approx(50.0)
        assert res.checkpoint_overhead == pytest.approx(100.0)
        assert res.lost_work == 0.0
        assert res.n_checkpoints_completed == 1
        assert res.mb_checkpoint == pytest.approx(500.0)

    def test_eviction_phases(self):
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        sched = fixed_schedule(600.0)
        # mid-recovery, mid-work, mid-checkpoint, multi-cycle -- one call
        mid_rec, mid_work, mid_ckpt, multi = kernel_results(
            sched,
            [
                np.array([20.0]),
                np.array([250.0]),
                np.array([680.0]),
                np.array([2250.0]),
            ],
            cfg,
        )
        assert mid_rec.recovery_overhead == pytest.approx(20.0)
        assert mid_rec.n_recoveries_completed == 0
        assert mid_rec.mb_recovery == pytest.approx(500.0 * 20.0 / 50.0)
        assert mid_work.lost_work == pytest.approx(200.0)
        assert mid_work.n_checkpoints_attempted == 0
        assert mid_ckpt.lost_work == pytest.approx(600.0)
        assert mid_ckpt.checkpoint_overhead == pytest.approx(30.0)
        assert mid_ckpt.mb_checkpoint == pytest.approx(500.0 * 30.0 / 100.0)
        assert multi.n_checkpoints_completed == 3
        assert multi.useful_work == pytest.approx(1800.0)
        assert multi.lost_work == pytest.approx(100.0)

    def test_exact_fit_is_midwork_eviction(self):
        # same settled semantics as the scalar path: no attempt, no bytes
        cfg = SimulationConfig(
            checkpoint_cost=100.0,
            recovery_cost=50.0,
            partial_transfer_policy="full",
        )
        (res,) = kernel_results(
            fixed_schedule(600.0), [np.array([650.0])], cfg
        )
        assert res.n_checkpoints_attempted == 0
        assert res.mb_checkpoint == 0.0
        assert res.lost_work == pytest.approx(600.0)

    def test_multi_interval_machine(self):
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        (res,) = kernel_results(
            fixed_schedule(600.0), [np.array([750.0, 20.0, 2250.0])], cfg
        )
        scalar = replay_flat(
            fixed_schedule(600.0),
            np.array([750.0, 20.0, 2250.0]),
            cfg,
            machine_id=res.machine_id,
        )
        assert_results_match(res, scalar)


def _random_pool(rng, n_machines, dist):
    pool = []
    for _ in range(n_machines):
        n = int(rng.integers(1, 40))
        pool.append(dist.sample(n, rng))
    return pool


class TestScalarEquivalence:
    @pytest.mark.parametrize("policy", ["proportional", "full", "none"])
    @pytest.mark.parametrize("recover", [True, False])
    @pytest.mark.parametrize("latency", [0.0, 25.0])
    def test_random_pool_matches_scalar(self, policy, recover, latency):
        rng = np.random.default_rng(7)
        dist = Weibull(0.55, 2800.0)
        pool = _random_pool(rng, 25, Weibull(0.5, 3000.0))
        cfg = SimulationConfig(
            checkpoint_cost=180.0,
            partial_transfer_policy=policy,
            recover_on_start=recover,
            latency=latency,
        )
        sched = CheckpointSchedule(
            dist,
            CheckpointCosts(
                checkpoint=180.0, recovery=cfg.effective_recovery_cost, latency=latency
            ),
            converge_rel_tol=1e-3,
        )
        batch = kernel_results(sched, pool, cfg)
        for res, durations in zip(batch, pool, strict=True):
            scalar = replay_flat(
                sched, durations, cfg, machine_id=res.machine_id
            )
            assert_results_match(res, scalar)

    def test_conservation(self):
        rng = np.random.default_rng(11)
        pool = _random_pool(rng, 30, Weibull(0.45, 2000.0))
        cfg = SimulationConfig(checkpoint_cost=300.0)
        sched = CheckpointSchedule(
            Hyperexponential([0.5, 0.5], [1.0 / 300.0, 1.0 / 9000.0]),
            CheckpointCosts.symmetric(300.0),
            converge_rel_tol=1e-3,
        )
        for res in kernel_results(sched, pool, cfg):
            assert abs(res.conservation_residual()) < 1e-6 * max(res.total_time, 1.0)

    @given(
        seed=st.integers(0, 2**32 - 1),
        policy=st.sampled_from(["proportional", "full", "none"]),
        recover=st.booleans(),
        shape=st.floats(0.35, 1.5),
        scale=st.floats(200.0, 8000.0),
        cost=st.floats(10.0, 800.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_random_pools(self, seed, policy, recover, shape, scale, cost):
        """Satellite: scalar-vs-batch equality of every result field over
        random pools, all policies, both recovery settings."""
        rng = np.random.default_rng(seed)
        pool = _random_pool(rng, 8, Weibull(shape, scale))
        cfg = SimulationConfig(
            checkpoint_cost=cost,
            partial_transfer_policy=policy,
            recover_on_start=recover,
        )
        sched = CheckpointSchedule(
            Weibull(shape, scale),
            CheckpointCosts.symmetric(cost),
            converge_rel_tol=1e-3,
        )
        batch = kernel_results(sched, pool, cfg)
        for res, durations in zip(batch, pool, strict=True):
            scalar = replay_flat(
                sched, durations, cfg, machine_id=res.machine_id
            )
            assert_results_match(res, scalar)
            assert abs(res.conservation_residual()) < 1e-6 * max(res.total_time, 1.0)


class TestDegenerateGuardParity:
    def test_zero_cycle_raises_like_scalar(self):
        cfg = SimulationConfig(checkpoint_cost=0.0, recover_on_start=False)
        with pytest.raises(ValueError, match="no forward progress"):
            kernel_results(fixed_schedule(0.0), [np.array([100.0])], cfg)
        with pytest.raises(ValueError, match="no forward progress"):
            replay_flat(fixed_schedule(0.0), np.array([100.0]), cfg)

    def test_zero_cycle_unreached_is_fine(self):
        # budgets that never enter the degenerate cycle replay normally,
        # in both paths
        cfg = SimulationConfig(checkpoint_cost=0.0, recover_on_start=False)
        (res,) = kernel_results(
            fixed_schedule(50.0), [np.array([40.0])], cfg
        )
        assert res.lost_work == pytest.approx(40.0)


class TestInputValidation:
    def test_storage_config_rejected(self):
        cfg = SimulationConfig(
            checkpoint_cost=100.0,
            storage=StoragePolicy(mode="full", full_every_k=1),
        )
        with pytest.raises(ValueError, match="flat"):
            replay_flat_pool(fixed_schedule(600.0), np.array([750.0]), np.array([1]), cfg)

    def test_mismatched_ids_rejected(self):
        cfg = SimulationConfig(checkpoint_cost=100.0)
        with pytest.raises(ValueError, match="machine ids"):
            replay_flat_pool(
                fixed_schedule(600.0),
                np.array([750.0]),
                np.array([1]),
                cfg,
                machine_ids=["a", "b"],
            )

    def test_negative_duration_rejected(self):
        cfg = SimulationConfig(checkpoint_cost=100.0)
        with pytest.raises(ValueError, match="non-negative"):
            kernel_results(fixed_schedule(600.0), [np.array([-1.0])], cfg)

    def test_empty_batch(self):
        cfg = SimulationConfig(checkpoint_cost=100.0)
        assert replay_batch([]) == []


class TestFlatPoolCore:
    """The struct-of-arrays entry point used at 100k-machine scale."""

    def test_arrays_match_materialized_results(self):
        rng = np.random.default_rng(23)
        pool = _random_pool(rng, 12, Weibull(0.5, 3000.0))
        cfg = SimulationConfig(checkpoint_cost=150.0)
        sched = fixed_schedule(600.0)
        lengths = np.array([d.size for d in pool], dtype=np.int64)
        batch = replay_flat_pool(sched, np.concatenate(pool), lengths, cfg)
        assert len(batch) == 12
        results = batch.to_results()
        for m, res in enumerate(results):
            assert batch.total_time[m] == pytest.approx(res.total_time)
            assert batch.useful_work[m] == pytest.approx(res.useful_work)
            assert int(batch.n_checkpoints_completed[m]) == res.n_checkpoints_completed
            assert batch.efficiency[m] == pytest.approx(res.efficiency)
            assert batch.mb_total[m] == pytest.approx(res.mb_total)

    def test_zero_length_machines(self):
        # machines with no availability segments produce all-zero rows
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        a = np.array([750.0])
        lengths = np.array([0, 1, 0], dtype=np.int64)
        batch = replay_flat_pool(fixed_schedule(600.0), a, lengths, cfg)
        assert batch.total_time.tolist() == [0.0, 750.0, 0.0]
        assert batch.useful_work.tolist() == [0.0, 600.0, 0.0]
        assert batch.n_recoveries_attempted.tolist() == [0, 1, 0]
        assert batch.efficiency.tolist() == [0.0, 0.8, 0.0]

    def test_negative_segment_count_rejected(self):
        # the counts sum to the pool size, but one is negative
        cfg = SimulationConfig(checkpoint_cost=100.0)
        with pytest.raises(ValueError, match="segment count is negative"):
            replay_flat_pool(fixed_schedule(600.0), np.array([100.0, 200.0]), np.array([-1, 3]), cfg)

    def test_mismatched_lengths_rejected(self):
        cfg = SimulationConfig(checkpoint_cost=100.0)
        with pytest.raises(ValueError, match="segment lengths"):
            replay_flat_pool(
                fixed_schedule(600.0),
                np.array([750.0, 800.0]),
                np.array([1], dtype=np.int64),
                cfg,
            )


class TestReplayBatchGrouping:
    def test_heterogeneous_items_keep_input_order(self):
        cfg_a = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        cfg_b = SimulationConfig(checkpoint_cost=200.0, recovery_cost=50.0)
        sched_a = fixed_schedule(600.0)
        sched_b = fixed_schedule(400.0)
        rng = np.random.default_rng(3)
        traces = [Weibull(0.5, 2500.0).sample(12, rng) for _ in range(6)]
        items = [
            BatchReplayItem(
                schedule=sched_a if i % 2 == 0 else sched_b,
                durations=traces[i],
                config=cfg_a if i % 2 == 0 else cfg_b,
                machine_id=f"m{i}",
            )
            for i in range(6)
        ]
        out = replay_batch(items)
        assert [r.machine_id for r in out] == [f"m{i}" for i in range(6)]
        for i, res in enumerate(out):
            scalar = replay_flat(
                items[i].schedule,
                traces[i],
                items[i].config,
                machine_id=items[i].machine_id,
            )
            assert_results_match(res, scalar)


class TestRunnerIntegration:
    def _pool(self):
        rng = np.random.default_rng(19)
        return [
            AvailabilityTrace(
                machine_id=f"mach{i}",
                durations=Weibull(0.6, 3000.0).sample(40, rng),
            )
            for i in range(3)
        ]

    def _sweeps(self, **base):
        """``(sweep, oracle)`` result pairs: the pool runner against one
        per-cycle oracle replay per (machine, model, cost)."""
        base.update(checkpoint_costs=(100.0, 500.0), model_names=("exponential", "weibull"))
        settings = SweepSettings(**base)
        fast = simulate_pool(self._pool(), settings)
        slow = []
        for trace in self._pool():
            replay = _replay_durations(trace, settings)
            for model_name, dist in _fit_machine(trace, settings):
                for cost in settings.checkpoint_costs:
                    config = dataclasses.replace(settings.base_config, checkpoint_cost=float(cost))
                    slow.append(
                        oracle_replay(
                            model_schedule(dist, config),
                            replay,
                            config,
                            machine_id=trace.machine_id,
                            model_name=model_name,
                        )
                    )
        assert len(fast.results) == len(slow)
        return zip(fast.results, slow, strict=True)

    def test_batch_sweep_matches_scalar_sweep(self):
        for f, s in self._sweeps():
            assert_results_match(f, s)

    def test_storage_backed_sweep_matches_scalar_sweep(self):
        # storage configs take the lock-step fill and the storage walk:
        # bitwise the per-commit store loop
        base_config = SimulationConfig(
            checkpoint_cost=0.0,
            checkpoint_size_mb=500.0,
            storage=StoragePolicy(delta_fraction=0.1, full_every_k=10),
        )
        for f, s in self._sweeps(base_config=base_config):
            assert f == s

    def test_batch_sweep_records_counters(self):
        with use_metrics() as reg:
            simulate_pool(
                self._pool(),
                SweepSettings(
                    checkpoint_costs=(100.0,),
                    model_names=("exponential",),
                ),
            )
            snap = reg.as_dict()
        counters = snap["counters"]
        assert counters["sim.batch.calls"] > 0
        assert counters["sim.batch.machines"] > 0
        assert counters["sim.batch.segments"] > 0
        assert counters["sim.replays"] > 0
        assert snap["histograms"]["sim.replay_seconds"]["count"] > 0
        assert snap["histograms"]["sim.batch.replay_seconds"]["count"] > 0


def _track_events(recorder):
    """Each track's events in recording order (the untracked ``opt``
    events of schedule solves left out)."""
    tracks = {}
    for ev in list(recorder._buf):
        if "track" in ev:
            tracks.setdefault(ev["track"], []).append(ev)
    return tracks


def _replay_counters(reg):
    return {
        k: v
        for k, v in reg.as_dict()["counters"].items()
        if k.startswith("sim.") or k == "link.transferred_mb"
    }


class TestTracedFlatReplay:
    """Under a recorder the kernel records, per track, the spans and
    points the per-cycle oracle records: same ``(cat, name)`` sequence,
    argument keys and labels, times and megabytes to 1e-9 relative."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        policy=st.sampled_from(["proportional", "full", "none"]),
        recover=st.booleans(),
        count_recovery=st.booleans(),
        latency=st.sampled_from([0.0, 25.0]),
        shape=st.floats(0.35, 1.5),
        scale=st.floats(200.0, 8000.0),
        cost=st.floats(10.0, 800.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_spans_match_oracle(self, seed, policy, recover, count_recovery, latency, shape, scale, cost):
        rng = np.random.default_rng(seed)
        # some zero-length segments: a failed recovery, or nothing at all
        pool = [np.where(rng.random(d.size) < 0.1, 0.0, d) for d in _random_pool(rng, 6, Weibull(shape, scale))]
        cfg = SimulationConfig(
            checkpoint_cost=cost,
            partial_transfer_policy=policy,
            recover_on_start=recover,
            count_recovery_bandwidth=count_recovery,
            latency=latency,
        )
        sched = CheckpointSchedule(
            Weibull(shape, scale),
            CheckpointCosts(checkpoint=cost, recovery=cfg.effective_recovery_cost, latency=latency),
            converge_rel_tol=1e-3,
        )
        items = [
            BatchReplayItem(schedule=sched, durations=d, config=cfg, machine_id=f"m{m}")
            for m, d in enumerate(pool)
        ]
        with use_metrics() as kernel_reg, use_trace(TraceRecorder(sampling={})) as kernel_rec:
            replay_batch(items)
        with use_metrics() as oracle_reg, use_trace(TraceRecorder(sampling={})) as oracle_rec:
            for item in items:
                replay_flat(sched, item.durations, cfg, machine_id=item.machine_id)
        got, want = _track_events(kernel_rec), _track_events(oracle_rec)
        assert got.keys() == want.keys() == {item.machine_id for item in items}
        for track, events in want.items():
            assert [(e["cat"], e["name"]) for e in got[track]] == [(e["cat"], e["name"]) for e in events]
            for g, w in zip(got[track], events, strict=True):
                g_args, w_args = g.get("args", {}), w.get("args", {})
                assert g.keys() == w.keys() and g_args.keys() == w_args.keys()
                for key in ("committed", "phase", "kind"):
                    assert g_args.get(key) == w_args.get(key)
                for key in ("ts", "dur"):
                    assert g.get(key, 0.0) == pytest.approx(w.get(key, 0.0), rel=REL_BUDGET, abs=1e-12), (track, w)
                assert g_args.get("mb", 0.0) == pytest.approx(w_args.get("mb", 0.0), rel=REL_BUDGET, abs=1e-12), (track, w)
        got_counters, want_counters = _replay_counters(kernel_reg), _replay_counters(oracle_reg)
        for key, value in want_counters.items():
            assert got_counters[key] == pytest.approx(value, rel=REL_BUDGET, abs=1e-12), key


class TwoMethodSchedule:
    """A schedule with only the two methods a replay reads (the ablation
    bench's periodic baseline is one): a fixed list of work intervals,
    the last one repeating."""

    def __init__(self, intervals):
        self._T = list(intervals)

    def work_interval(self, i):
        return self._T[min(i, len(self._T) - 1)]

    def expected_efficiency(self, i=0):
        return 0.5


class TestDuckTypedSchedules:
    DURATIONS = np.array([750.0, 20.0, 5000.0, 2600.0, 0.0, 41000.0])

    def test_flat_two_method_schedule(self):
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0, latency=5.0)
        sched = TwoMethodSchedule([600.0, 900.0, 1200.0])
        want = replay_flat(sched, self.DURATIONS, cfg)
        assert_results_match(replay_schedule(sched, self.DURATIONS, cfg), want)
        (res,) = replay_batch([BatchReplayItem(schedule=sched, durations=self.DURATIONS, config=cfg)])
        assert_results_match(res, want)

    def test_storage_two_method_schedule(self):
        cfg = SimulationConfig(
            checkpoint_cost=100.0,
            checkpoint_size_mb=500.0,
            storage=StoragePolicy(delta_fraction=0.1, full_every_k=3),
        )
        sched = TwoMethodSchedule([600.0, 900.0, 1200.0])
        want = replay_with_storage(sched, self.DURATIONS, cfg, machine_id="machine", model_name="model")
        assert replay_schedule(sched, self.DURATIONS, cfg) == want
        (res,) = replay_batch([BatchReplayItem(schedule=sched, durations=self.DURATIONS, config=cfg)])
        assert res == want


class TestKernelMetrics:
    def test_counters_match_scalar_semantics(self):
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        pool = [np.array([750.0, 2250.0]), np.array([20.0])]
        with use_metrics() as reg:
            results = kernel_results(fixed_schedule(600.0), pool, cfg)
            snap = reg.as_dict()
        counters = snap["counters"]
        assert counters["sim.replays"] == len(pool)
        assert counters["sim.machine_seconds"] == pytest.approx(3020.0)
        assert counters["sim.checkpoints.completed"] == sum(
            r.n_checkpoints_completed for r in results
        )
        assert counters["sim.batch.machines"] == 2
        assert counters["sim.batch.segments"] == 3


class TestExactCoverage:
    """The cycle table reads exactly the covering prefix of each schedule,
    and nothing past it is ever solved."""

    @staticmethod
    def _covering_length(intervals, overhead, budget):
        cum = np.cumsum(np.asarray(intervals) + overhead)
        return int(np.searchsorted(cum, budget, side="right")) + 1

    def test_lockstep_fill_stops_at_coverage(self):
        rng = np.random.default_rng(11)
        dist = Weibull(0.43, 3409.0)
        durations = [dist.sample(40, rng) for _ in range(3)]
        configs = [SimulationConfig(checkpoint_cost=c, latency=5.0) for c in (30.0, 110.0, 475.0)]
        items, budgets = [], []
        for cfg in configs:
            sched = CheckpointSchedule(dist, CheckpointCosts(cfg.checkpoint_cost, cfg.checkpoint_cost, 5.0))
            for m, d in enumerate(durations):
                items.append(BatchReplayItem(schedule=sched, durations=d, config=cfg, machine_id=f"m{m}"))
            budgets.append(max(float(d.max()) for d in durations) - cfg.checkpoint_cost)
        with use_metrics() as reg:
            replay_batch(items)
        counters = reg.as_dict()["counters"]
        table = reg.as_dict()["histograms"]["sim.batch.table_cycles"]
        lengths = []
        for cfg, budget in zip(configs, budgets, strict=True):
            sched = next(it.schedule for it in items if it.config is cfg)
            solved = [opt.T_opt for opt in sched._intervals]
            assert len(solved) == self._covering_length(solved, cfg.checkpoint_cost + 5.0, budget)
            lengths.append(len(solved))
        assert table["count"] == len(configs)
        assert table["sum"] == sum(lengths)
        assert counters["schedule.solves"] <= sum(lengths)

    def test_sweep_base_input_solves_only_covering_intervals(self):
        from repro.experiments.study import run_simulation_study

        pool = generate_condor_pool(
            SyntheticPoolConfig(n_machines=4, n_observations=125), np.random.default_rng(2005)
        )
        with use_solver_cache(SolverCache()), use_metrics() as reg:
            run_simulation_study(pool, n_workers=1)
        snapshot = reg.as_dict()
        # 4 machines x 4 models x 10 costs: 160 cycle tables of 3,619
        # intervals in all, 1,373 of them solved (the rest memoryless or
        # converged tails)
        assert snapshot["counters"]["schedule.solves"] == 1373
        assert snapshot["histograms"]["sim.batch.table_cycles"]["count"] == 160
        assert snapshot["histograms"]["sim.batch.table_cycles"]["sum"] == 3619


def _storage_pool():
    return generate_condor_pool(
        SyntheticPoolConfig(n_machines=2, n_observations=60), np.random.default_rng(2005)
    )


def _per_item_study(pool, policies):
    """The storage study replayed the per-item way: one
    :func:`simulate_trace` per (machine, model, policy), with the study's
    fit protocol."""
    results = {}
    for trace in pool:
        train, _test = trace.split(TRAINING_SET_SIZE)
        key = zlib.crc32(trace.machine_id.encode("utf-8"))
        rng = np.random.default_rng(np.random.SeedSequence([424242, key]))
        for model in ("exponential", "weibull", "hyperexp2"):
            dist = fit_model(model, train, rng=rng)
            for name, policy in policies:
                config = SimulationConfig(
                    checkpoint_cost=110.0, checkpoint_size_mb=500.0, storage=policy
                )
                res = simulate_trace(
                    dist, trace.durations, config, machine_id=trace.machine_id, model_name=model
                )
                results.setdefault((model, name), []).append(res)
    return results


#: every default study policy at the Table 4 campus point, plus one
#: storage config with a nonzero commit latency
STORAGE_CONFIGS = [
    (name, SimulationConfig(checkpoint_cost=110.0, checkpoint_size_mb=500.0, storage=policy))
    for name, policy in DEFAULT_STORAGE_POLICIES
] + [
    (
        "inc d=0.10 full@10 L=40",
        SimulationConfig(
            checkpoint_cost=110.0,
            checkpoint_size_mb=500.0,
            latency=40.0,
            storage=StoragePolicy(delta_fraction=0.10, full_every_k=10),
        ),
    )
]


class TestStorageItems:
    """Storage-backed items through replay_batch: lock-step filled, then
    replayed by the storage walk -- bitwise the per-item
    ``simulate_trace`` results, with no solve left for the replay."""

    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(5)
        out = []
        for trace in _storage_pool():
            train = trace.durations[:25]
            for model in ("exponential", "weibull", "hyperexp2"):
                out.append((trace, model, fit_model(model, train, rng=rng)))
        return out

    @staticmethod
    def _items(fitted, configs):
        return [
            BatchReplayItem(
                schedule=model_schedule(dist, cfg),
                durations=trace.durations,
                config=cfg,
                machine_id=trace.machine_id,
                model_name=model,
            )
            for trace, model, dist in fitted
            for cfg in configs
        ]

    @pytest.mark.parametrize(("name", "cfg"), STORAGE_CONFIGS, ids=[n for n, _ in STORAGE_CONFIGS])
    def test_replay_batch_matches_simulate_trace(self, fitted, name, cfg):
        items = self._items(fitted, [cfg])
        for res, (trace, model, dist) in zip(replay_batch(items), fitted, strict=True):
            want = simulate_trace(dist, trace.durations, cfg, machine_id=trace.machine_id, model_name=model)
            if cfg.storage is None:
                assert_results_match(res, want)
            else:
                assert res == want, (name, model)

    def test_fill_need_per_item_kind(self):
        durations = np.array([30.0, 900.0])
        # storage: the longest occupancy, at the commit latency alone
        assert _fill_need(durations, STORAGE_CONFIGS[-1][1]) == (900.0, 40.0)
        # flat: the longest post-recovery budget, at C + L
        flat = SimulationConfig(checkpoint_cost=110.0, latency=40.0)
        assert _fill_need(durations, flat) == (790.0, 150.0)

    def test_fill_leaves_no_solve_for_the_replay(self, fitted):
        items = self._items(fitted, [cfg for _, cfg in STORAGE_CONFIGS])
        with use_metrics() as reg:
            _fill_lockstep(items)
            solves = reg.as_dict()["counters"]["schedule.solves"]
            lengths = [len(item.schedule._intervals) for item in items]
            replay_batch(items)
            assert reg.as_dict()["counters"]["schedule.solves"] == solves
        assert [len(item.schedule._intervals) for item in items] == lengths

    def test_study_batches_its_solves(self, monkeypatch):
        calls = [0]
        solve = schedule_mod.optimize_intervals_batch

        def counting(*args, **kwargs):
            calls[0] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(schedule_mod, "optimize_intervals_batch", counting)
        pool = _storage_pool()
        with use_solver_cache(SolverCache()):
            study = run_storage_study(pool)
        batched, calls[0] = calls[0], 0
        with use_solver_cache(SolverCache()):
            per_item = _per_item_study(pool, DEFAULT_STORAGE_POLICIES)
        assert batched < calls[0]
        assert set(study.results) == set(per_item)
        for (model, name), rows in per_item.items():
            for got, want in zip(study.results[(model, name)], rows, strict=True):
                if name == "full (paper)":
                    assert_results_match(got, want)
                else:
                    assert got == want, (model, name)

    def test_traced_study_records_the_per_item_events(self):
        def kinds(recorder):
            return Counter(
                (ev["cat"], ev["name"], "span" if "dur" in ev else "point")
                for ev in recorder.events()
            )

        pool = _storage_pool()
        with use_solver_cache(SolverCache()), use_trace(TraceRecorder(sampling={})) as study_rec:
            run_storage_study(pool)
        with use_solver_cache(SolverCache()), use_trace(TraceRecorder(sampling={})) as item_rec:
            _per_item_study(pool, DEFAULT_STORAGE_POLICIES)
        assert study_rec.n_dropped == item_rec.n_dropped == 0
        assert kinds(study_rec) == kinds(item_rec)
