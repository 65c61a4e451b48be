"""Tests for the trace-driven checkpoint simulator."""

import numpy as np
import pytest

from repro.core import CheckpointCosts, CheckpointSchedule
from repro.distributions import Exponential, Weibull
from repro.simulation import SimulationConfig, replay_schedule, simulate_trace
from repro.simulation.trace_sim import model_schedule
from repro.storage.policy import StoragePolicy


def exact_schedule(T):
    """A degenerate 'schedule' with a fixed work interval, for hand checks."""
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


class TestHandComputedIntervals:
    def test_perfect_interval(self):
        # A = R + T + C exactly: one recovery, one work unit, one checkpoint
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        sched = exact_schedule(600.0)
        res = replay_schedule(sched, np.array([750.0]), cfg)
        assert res.useful_work == pytest.approx(600.0)
        assert res.recovery_overhead == pytest.approx(50.0)
        assert res.checkpoint_overhead == pytest.approx(100.0)
        assert res.lost_work == 0.0
        assert res.n_checkpoints_completed == 1
        assert res.efficiency == pytest.approx(600.0 / 750.0)

    def test_eviction_during_work(self):
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        sched = exact_schedule(600.0)
        # availability ends 200 s into the work phase
        res = replay_schedule(sched, np.array([250.0]), cfg)
        assert res.useful_work == 0.0
        assert res.lost_work == pytest.approx(200.0)
        assert res.n_checkpoints_attempted == 0

    def test_eviction_during_checkpoint(self):
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        sched = exact_schedule(600.0)
        # fails 30 s into the checkpoint: work lost, partial bytes counted
        res = replay_schedule(sched, np.array([680.0]), cfg)
        assert res.lost_work == pytest.approx(600.0)
        assert res.checkpoint_overhead == pytest.approx(30.0)
        assert res.n_checkpoints_attempted == 1
        assert res.n_checkpoints_completed == 0
        assert res.mb_checkpoint == pytest.approx(500.0 * 30.0 / 100.0)

    def test_eviction_during_recovery(self):
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        sched = exact_schedule(600.0)
        res = replay_schedule(sched, np.array([20.0]), cfg)
        assert res.recovery_overhead == pytest.approx(20.0)
        assert res.useful_work == 0.0 and res.lost_work == 0.0
        assert res.n_recoveries_completed == 0
        assert res.mb_recovery == pytest.approx(500.0 * 20.0 / 50.0)

    def test_multiple_cycles_per_interval(self):
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        sched = exact_schedule(600.0)
        # 50 + 3*(600+100) = 2150, then 100 s of doomed work
        res = replay_schedule(sched, np.array([2250.0]), cfg)
        assert res.n_checkpoints_completed == 3
        assert res.useful_work == pytest.approx(1800.0)
        assert res.lost_work == pytest.approx(100.0)


class TestConservation:
    @pytest.mark.parametrize("policy", ["proportional", "full", "none"])
    def test_time_conservation(self, policy):
        rng = np.random.default_rng(31)
        durations = Weibull(0.5, 3000.0).sample(120, rng)
        cfg = SimulationConfig(checkpoint_cost=200.0, partial_transfer_policy=policy)
        res = simulate_trace(Weibull(0.6, 2500.0), durations, cfg)
        assert abs(res.conservation_residual()) < 1e-6 * res.total_time
        assert res.total_time == pytest.approx(float(durations.sum()))

    def test_counts_consistent(self):
        rng = np.random.default_rng(32)
        durations = Exponential(1.0 / 4000.0).sample(80, rng)
        cfg = SimulationConfig(checkpoint_cost=150.0)
        res = simulate_trace(Exponential(1.0 / 3500.0), durations, cfg)
        assert res.n_checkpoints_completed <= res.n_checkpoints_attempted
        assert res.n_recoveries_completed <= res.n_recoveries_attempted
        assert res.n_recoveries_attempted == res.n_intervals
        assert 0.0 <= res.efficiency <= 1.0


class TestBandwidthPolicies:
    def test_full_counts_more_than_proportional(self):
        rng = np.random.default_rng(33)
        durations = Weibull(0.45, 2000.0).sample(100, rng)
        dist = Weibull(0.5, 2500.0)
        kwargs = dict(checkpoint_cost=300.0)
        prop = simulate_trace(dist, durations, SimulationConfig(**kwargs))
        full = simulate_trace(
            dist, durations, SimulationConfig(partial_transfer_policy="full", **kwargs)
        )
        none = simulate_trace(
            dist, durations, SimulationConfig(partial_transfer_policy="none", **kwargs)
        )
        assert none.mb_total <= prop.mb_total <= full.mb_total

    def test_no_recovery_bandwidth(self):
        rng = np.random.default_rng(34)
        durations = Weibull(0.45, 2000.0).sample(50, rng)
        cfg = SimulationConfig(checkpoint_cost=300.0, count_recovery_bandwidth=False)
        res = simulate_trace(Weibull(0.5, 2500.0), durations, cfg)
        assert res.mb_recovery == 0.0
        assert res.mb_total == res.mb_checkpoint

    def test_completed_transfers_bill_full_size(self):
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        sched = exact_schedule(600.0)
        res = replay_schedule(sched, np.array([750.0]), cfg)
        assert res.mb_checkpoint == 500.0
        assert res.mb_recovery == 500.0


class TestModelDifferences:
    def test_exponential_checkpoints_more_than_hyper(self):
        # the paper's core finding, on one machine
        rng = np.random.default_rng(35)
        data = Weibull(0.43, 3409.0).sample(200, rng)
        from repro.distributions import fit_exponential, fit_hyperexponential

        train = data[:25]
        exp_fit = fit_exponential(train)
        h2_fit = fit_hyperexponential(train, k=2).distribution
        cfg = SimulationConfig(checkpoint_cost=500.0)
        res_e = simulate_trace(exp_fit, data, cfg)
        res_h = simulate_trace(h2_fit, data, cfg)
        assert res_e.mb_total > res_h.mb_total
        assert abs(res_e.efficiency - res_h.efficiency) < 0.15


class TestValidation:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            simulate_trace(Exponential(1e-3), [], SimulationConfig(checkpoint_cost=10.0))

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(checkpoint_cost=10.0, partial_transfer_policy="half")

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(checkpoint_cost=-1.0)

    @pytest.mark.parametrize(
        "storage", [None, StoragePolicy(delta_fraction=0.1, full_every_k=3)], ids=["flat", "storage"]
    )
    def test_replay_schedule_accepts_sequences(self, storage):
        # regression: a list of durations used to raise TypeError
        # ('<' between list and int) in replay_schedule
        cfg = SimulationConfig(checkpoint_cost=100.0, storage=storage)
        W = Weibull(0.5, 3000.0)
        from_list = replay_schedule(model_schedule(W, cfg), [5000.0, 9000.0], cfg)
        assert from_list == replay_schedule(model_schedule(W, cfg), np.array([5000.0, 9000.0]), cfg)
        assert from_list.n_intervals == 2

    def test_zero_duration_interval_is_all_recovery_overhead(self):
        cfg = SimulationConfig(checkpoint_cost=100.0)
        res = simulate_trace(Exponential(1e-3), [0.0, 1000.0], cfg)
        assert res.n_intervals == 2
        assert abs(res.conservation_residual()) < 1e-9


class TestCheckpointLatencyAccounting:
    """Regression: the optimizer prices latency ``L`` into its retry
    horizon, but ``replay_schedule`` used to advance time by ``T + C``
    only -- committed checkpoints never paid ``L`` and the simulation
    disagreed with the Markov model it was validating."""

    def test_latency_billed_per_committed_checkpoint(self):
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0, latency=25.0)
        sched = exact_schedule(600.0)
        # 50 + 2*(600 + 100 + 25) = 1500, then 100 s of doomed work
        res = replay_schedule(sched, np.array([1600.0]), cfg)
        assert res.n_checkpoints_completed == 2
        assert res.useful_work == pytest.approx(1200.0)
        assert res.checkpoint_overhead == pytest.approx(2 * 125.0)
        assert res.lost_work == pytest.approx(100.0)
        assert abs(res.conservation_residual()) < 1e-9

    def test_eviction_in_latency_window_loses_interval(self):
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0, latency=25.0)
        sched = exact_schedule(600.0)
        # 50 + 600 + 100 + 10: eviction 10 s into the 25 s commit window
        res = replay_schedule(sched, np.array([760.0]), cfg)
        assert res.n_checkpoints_completed == 0
        assert res.n_checkpoints_attempted == 1
        assert res.lost_work == pytest.approx(600.0)
        assert res.checkpoint_overhead == pytest.approx(110.0)
        # the transfer itself finished: the full image crossed the wire
        assert res.mb_checkpoint == pytest.approx(500.0)
        assert abs(res.conservation_residual()) < 1e-9

    def test_nonzero_latency_changes_replay_consistently(self):
        rng = np.random.default_rng(7)
        durations = Weibull(0.6, 3000.0).sample(60, rng)
        model = Weibull(0.6, 2500.0)
        C, L = 150.0, 150.0
        base = simulate_trace(model, durations, SimulationConfig(checkpoint_cost=C))
        lat = simulate_trace(
            model, durations, SimulationConfig(checkpoint_cost=C, latency=L)
        )
        # conservation holds under latency billing
        assert abs(lat.conservation_residual()) < 1e-6 * lat.total_time
        # each committed checkpoint now carries C + L of overhead
        assert lat.checkpoint_overhead >= lat.n_checkpoints_completed * (C + L) - 1e-6
        # and the accounting genuinely moved relative to the L = 0 run
        assert lat.useful_work != pytest.approx(base.useful_work, rel=1e-6)
        # the model also predicts the hit (Vaidya: latency can only hurt)
        assert lat.predicted_efficiency < base.predicted_efficiency

    def test_latency_billed_in_storage_path(self):
        from repro.storage.policy import StoragePolicy

        policy = StoragePolicy(delta_fraction=0.2, full_every_k=3)
        cfg0 = SimulationConfig(
            checkpoint_cost=150.0, checkpoint_size_mb=500.0, storage=policy
        )
        cfgL = SimulationConfig(
            checkpoint_cost=150.0, checkpoint_size_mb=500.0, storage=policy, latency=75.0
        )
        rng = np.random.default_rng(11)
        durations = Weibull(0.6, 3000.0).sample(40, rng)
        model = Weibull(0.6, 2500.0)
        r0 = simulate_trace(model, durations, cfg0)
        rL = simulate_trace(model, durations, cfgL)
        assert abs(rL.conservation_residual()) < 1e-6 * rL.total_time
        # every committed checkpoint paid at least its 75 s commit window
        assert rL.checkpoint_overhead >= rL.n_checkpoints_completed * 75.0 - 1e-6
        assert rL.useful_work != pytest.approx(r0.useful_work, rel=1e-6)


class TestDegenerateScheduleGuard:
    """Regression: a schedule whose cycle advances time by zero seconds
    (``T == 0`` with ``C == L == 0``) used to spin ``while t < a``
    forever; both replay paths now refuse loudly."""

    def test_flat_path_raises(self):
        cfg = SimulationConfig(checkpoint_cost=0.0, recover_on_start=False)
        with pytest.raises(ValueError, match="no forward progress"):
            replay_schedule(exact_schedule(0.0), np.array([100.0]), cfg)

    def test_storage_path_raises(self):
        cfg = SimulationConfig(
            checkpoint_cost=0.0,
            recover_on_start=False,
            storage=StoragePolicy(mode="full", full_every_k=1),
        )
        with pytest.raises(ValueError, match="no forward progress"):
            replay_schedule(exact_schedule(0.0), np.array([100.0]), cfg)

    def test_zero_work_with_positive_costs_terminates(self):
        # T == 0 is harmless while C + L > 0: each cycle still advances
        cfg = SimulationConfig(checkpoint_cost=10.0, recover_on_start=False)
        res = replay_schedule(exact_schedule(0.0), np.array([100.0]), cfg)
        assert res.useful_work == 0.0
        assert abs(res.conservation_residual()) < 1e-9


class TestExactFitEvictionBoundary:
    """Regression: when ``t + T == a`` exactly, the old code took the
    mid-checkpoint branch with ``elapsed == 0`` and -- under the "full"
    partial-transfer policy -- billed a whole image for a transfer that
    never started, while ``t + T > a`` (a moment earlier) billed
    nothing.  Settled semantics: the exact fit is a mid-work eviction;
    no checkpoint is attempted and no bytes are billed."""

    def test_flat_exact_fit_is_midwork_eviction(self):
        cfg = SimulationConfig(
            checkpoint_cost=100.0,
            recovery_cost=50.0,
            partial_transfer_policy="full",
        )
        # a = R + T exactly: the owner reclaims as work completes
        res = replay_schedule(exact_schedule(600.0), np.array([650.0]), cfg)
        assert res.n_checkpoints_attempted == 0
        assert res.mb_checkpoint == 0.0
        assert res.lost_work == pytest.approx(600.0)
        assert res.checkpoint_overhead == 0.0
        assert abs(res.conservation_residual()) < 1e-9

    def test_flat_one_second_later_is_midckpt_attempt(self):
        cfg = SimulationConfig(
            checkpoint_cost=100.0,
            recovery_cost=50.0,
            partial_transfer_policy="full",
        )
        res = replay_schedule(exact_schedule(600.0), np.array([651.0]), cfg)
        assert res.n_checkpoints_attempted == 1
        assert res.mb_checkpoint == pytest.approx(500.0)  # "full" policy
        assert res.lost_work == pytest.approx(600.0)
        assert res.checkpoint_overhead == pytest.approx(1.0)

    def test_storage_exact_fit_is_midwork_eviction(self):
        cfg = SimulationConfig(
            checkpoint_cost=100.0,
            recovery_cost=50.0,
            partial_transfer_policy="full",
            storage=StoragePolicy(mode="full", full_every_k=1),
            recover_on_start=False,
        )
        res = replay_schedule(exact_schedule(600.0), np.array([600.0]), cfg)
        assert res.n_checkpoints_attempted == 0
        assert res.mb_checkpoint == 0.0
        assert res.lost_work == pytest.approx(600.0)
        assert abs(res.conservation_residual()) < 1e-9

    def test_storage_one_second_later_is_midckpt_attempt(self):
        cfg = SimulationConfig(
            checkpoint_cost=100.0,
            recovery_cost=50.0,
            partial_transfer_policy="full",
            storage=StoragePolicy(mode="full", full_every_k=1),
            recover_on_start=False,
        )
        res = replay_schedule(exact_schedule(600.0), np.array([601.0]), cfg)
        assert res.n_checkpoints_attempted == 1
        assert res.mb_checkpoint == pytest.approx(500.0)
        assert res.lost_work == pytest.approx(600.0)


class TestStorageReplayRecorderClock:
    """Regression: ``_replay_with_storage`` used to write ``tr.now``
    to timestamp the store's commit/GC events, permanently clobbering
    the active recorder's instrumentation clock."""

    def test_recorder_clock_unchanged(self):
        from repro.obs.tracing import use as use_trace

        cfg = SimulationConfig(
            checkpoint_cost=100.0,
            recovery_cost=50.0,
            storage=StoragePolicy(mode="full", full_every_k=1),
        )
        with use_trace() as tr:
            tr.now = 123.25
            replay_schedule(
                exact_schedule(600.0), np.array([750.0, 2250.0]), cfg
            )
            assert tr.now == 123.25
            commits = [e for e in tr.events() if e["name"] == "commit"]
        # the commit events are still stamped on the simulation timeline
        # (interval 2 starts at 750; recovery fetches the 500 MB chain in
        # 100 s, then each 600 s work + 100 s transfer cycle commits)
        assert commits
        assert commits[0]["ts"] == pytest.approx(1550.0)
        assert all(e["ts"] != 123.25 for e in commits)


class TestRecoveryGateConsistency:
    """Regression: the flat path gated recovery on
    ``recover_on_start and R >= 0.0`` while the storage path checked
    only ``recover_on_start``; both now use the bare flag, and the
    ``R == 0`` / ``a == 0`` boundaries agree across paths."""

    @pytest.mark.parametrize("a0", [0.0, 700.0])
    def test_r_zero_counts_one_attempt_per_interval(self, a0):
        flat = SimulationConfig(checkpoint_cost=100.0, recovery_cost=0.0)
        stor = SimulationConfig(
            checkpoint_cost=100.0,
            recovery_cost=0.0,
            storage=StoragePolicy(mode="full", full_every_k=1),
        )
        durations = np.array([a0, 750.0])
        sched = exact_schedule(600.0)
        rf = replay_schedule(sched, durations, flat)
        rs = replay_schedule(sched, durations, stor)
        assert rf.n_recoveries_attempted == rs.n_recoveries_attempted == 2
        # flat path: R == 0 always fits, even in a zero-length interval
        assert rf.n_recoveries_completed == 2
        # storage path: recovery is priced from the restore chain (a full
        # image even for an empty store), so ``recovery_cost == 0`` does
        # not make it free -- but the *attempt* accounting still agrees
        assert rs.n_recoveries_completed == (1 if a0 == 0.0 else 2)

    def test_zero_interval_with_positive_r_fails_recovery_in_flat_path(self):
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        res = replay_schedule(exact_schedule(600.0), np.array([0.0]), cfg)
        assert res.n_recoveries_attempted == 1
        assert res.n_recoveries_completed == 0
        assert res.recovery_overhead == 0.0
