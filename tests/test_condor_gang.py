"""Tests for gang-scheduled parallel jobs with coordinated checkpointing."""

import numpy as np
import pytest

import repro.condor.gang as gang_module
from repro.condor import (
    CondorMachine,
    CondorScheduler,
    GangExperimentConfig,
    GangJob,
    GangResult,
    run_gang_experiment,
)
from repro.core import CheckpointPlanner
from repro.distributions import Exponential
from repro.distributions.fitting import fit_model
from repro.engine import Environment
from repro.network import SharedLink, campus_link
from repro.obs.metrics import MetricsRegistry, use
from repro.traces.synthetic import _draw_ground_truth


def build_world(durations_by_machine, bandwidth=10.0, width=2, size_mb=100.0):
    """Deterministic fleet from explicit per-machine availability lists."""
    env = Environment()
    link = SharedLink(env, bandwidth)
    scheduler = CondorScheduler(env)
    planners = {}
    for mid, durations in durations_by_machine.items():
        planners[mid] = CheckpointPlanner.from_distribution(Exponential(1.0 / 5000.0))
        CondorMachine.from_trace(
            env, mid, durations=durations, gaps=[1.0] * len(durations), scheduler=scheduler
        )
    gang = GangJob(env, scheduler, link, planners, width=width, checkpoint_size_mb=size_mb)
    return env, gang, link


class TestGangMechanics:
    def test_progress_on_stable_machines(self):
        env, gang, link = build_world(
            {"a": [50000.0], "b": [50000.0]}, bandwidth=20.0, width=2, size_mb=100.0
        )
        env.run(until=20000.0)
        assert gang.committed_work > 0.0
        assert gang.n_coordinated_checkpoints >= 1
        assert gang.n_gang_failures == 0
        # both ranks transfer per coordinated phase
        assert gang.mb_transferred == pytest.approx(
            (gang.n_coordinated_checkpoints + 1) * 2 * 100.0
        )

    def test_coordinated_transfer_self_contends(self):
        # two ranks on a 10 MB/s link: 100 MB each -> 20 s coordinated,
        # twice a solo transfer
        env, gang, link = build_world(
            {"a": [5000.0], "b": [5000.0]}, bandwidth=10.0, width=2, size_mb=100.0
        )
        env.run(until=100.0)
        # the initial coordinated recovery must take 20 s
        assert env.now == 100.0
        assert gang.mb_transferred >= 200.0 - 1e-6

    def test_eviction_loses_uncommitted_work(self):
        # machine b dies mid-computation; its work since the last commit
        # is lost and counted
        env, gang, link = build_world(
            {"a": [50000.0], "b": [200.0, 50000.0]}, bandwidth=20.0, width=2
        )
        env.run(until=30000.0)
        assert gang.n_gang_failures >= 1
        assert gang.lost_work > 0.0
        # the gang re-placed the evicted rank and continued
        assert gang.n_placements >= 3
        assert gang.committed_work > 0.0

    def test_width_one_is_a_solo_job(self):
        env, gang, link = build_world({"a": [50000.0]}, width=1, bandwidth=20.0)
        env.run(until=20000.0)
        assert gang.committed_work > 0.0

    def test_invalid_width(self):
        env = Environment()
        with pytest.raises(ValueError):
            GangJob(env, CondorScheduler(env), SharedLink(env, 1.0), {}, width=0)


class TestGangExperiment:
    def test_experiment_runs_and_accounts(self):
        res = run_gang_experiment(
            GangExperimentConfig(width=2, model="exponential", horizon=0.2 * 86400.0, n_machines=6, seed=3)
        )
        assert 0.0 <= res.efficiency <= 1.0
        assert res.mb_transferred >= 0.0
        assert res.n_placements >= 2

    def test_same_seed_same_world_across_models(self):
        results = {}
        for model in ("exponential", "hyperexp2"):
            results[model] = run_gang_experiment(
                GangExperimentConfig(
                    width=2, model=model, horizon=0.2 * 86400.0, n_machines=6, seed=4
                )
            )
        # the fleet (and thus gang failures) is identical; only the
        # schedule differs
        assert (
            results["exponential"].n_gang_failures
            == results["hyperexp2"].n_gang_failures
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GangExperimentConfig(width=4, n_machines=2)
        with pytest.raises(ValueError):
            GangExperimentConfig(horizon=0.0)


def eager_gang_experiment(config):
    """``run_gang_experiment`` with every machine fitted before the DES
    starts: the construction the on-first-read planners replaced."""
    env = Environment()
    link_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    bandwidth = campus_link(link_rng)
    scale = config.bandwidth_scale if config.bandwidth_scale is not None else float(config.width)
    bandwidth.mean_mbps *= scale
    link = SharedLink(env, bandwidth, name="gang-link")
    scheduler = CondorScheduler(env)
    planners = {}
    for i in range(config.n_machines):
        machine_id = f"node-{i:03d}"
        world_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1, i]))
        fit_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2, i]))
        gt = _draw_ground_truth(config.pool_config, world_rng)
        history = np.asarray(gt.sample(config.n_train, world_rng), dtype=np.float64)
        planners[machine_id] = CheckpointPlanner(
            distribution=fit_model(config.model, history, rng=fit_rng), model_name=config.model
        )
        CondorMachine.from_distribution(
            env, machine_id, gt, world_rng, mean_owner_gap=config.mean_owner_gap, scheduler=scheduler
        )
    gang = GangJob(env, scheduler, link, planners, width=config.width, checkpoint_size_mb=config.checkpoint_size_mb)
    env.run(until=config.horizon)
    return GangResult(
        config=config,
        committed_work=gang.committed_work,
        lost_work=gang.lost_work,
        mb_transferred=gang.mb_transferred,
        n_gang_failures=gang.n_gang_failures,
        n_coordinated_checkpoints=gang.n_coordinated_checkpoints,
        n_placements=gang.n_placements,
        horizon=config.horizon,
    )


def perfbench_config(model, width):
    """One of the benchmark's gang runs (one simulated hour)."""
    return GangExperimentConfig(
        width=width, model=model, horizon=3600.0, n_machines=max(8, 3 * width), seed=2005
    )


class TestFitOnFirstPlacement:
    @pytest.mark.parametrize("width", [2, 6])
    @pytest.mark.parametrize("model", ["exponential", "weibull", "hyperexp3"])
    def test_equals_eager_fits(self, model, width):
        config = perfbench_config(model, width)
        assert run_gang_experiment(config) == eager_gang_experiment(config)

    @pytest.mark.parametrize(("width", "n_planned"), [(2, 3), (6, 9)])
    def test_fits_once_per_planned_machine(self, monkeypatch, width, n_planned):
        """One fit per machine whose rank the gang planned with; a rank
        evicted before its gang was whole leaves its machine unfitted."""
        fits = []
        hosted = set()
        planned = set()
        rank_body = GangJob._rank_body
        gang_distribution = GangJob._gang_distribution

        def counting_fit(*args, **kwargs):
            fits.append(args[0])
            return fit_model(*args, **kwargs)

        def recording_rank_body(self, env, machine):
            hosted.add(machine.machine_id)
            return rank_body(self, env, machine)

        def recording_gang_distribution(self):
            planned.update(self._ranks)
            return gang_distribution(self)

        monkeypatch.setattr(gang_module, "fit_model", counting_fit)
        monkeypatch.setattr(GangJob, "_rank_body", recording_rank_body)
        monkeypatch.setattr(GangJob, "_gang_distribution", recording_gang_distribution)
        config = perfbench_config("hyperexp2", width)
        run_gang_experiment(config)
        assert len(fits) == len(planned) == n_planned
        assert planned <= hosted
        assert len(hosted) < config.n_machines

    def test_fit_failure_propagates(self, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise ValueError("fit failed")

        monkeypatch.setattr(gang_module, "fit_model", failing_fit)
        with pytest.raises(ValueError, match="fit failed"):
            run_gang_experiment(perfbench_config("weibull", 2))

    def test_metrics_one_update_per_run(self):
        config = perfbench_config("exponential", 6)
        with use(MetricsRegistry()) as reg:
            res = run_gang_experiment(config)
        counters = reg.as_dict()["counters"]
        assert counters["gang.machines"] == config.n_machines
        assert counters["gang.machines_fitted"] == 9  # as test_fits_once_per_planned_machine
        assert counters["gang.placements"] == res.n_placements
        assert counters["gang.coordinated_checkpoints"] == res.n_coordinated_checkpoints
