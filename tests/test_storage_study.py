"""Tests for the storage-policy study (and its CLI entry point)."""

import io

import pytest

from repro.cli import main
from repro.experiments.storage_study import (
    DEFAULT_STORAGE_POLICIES,
    run_storage_study,
)
from repro.storage import StoragePolicy
from repro.traces.synthetic import SyntheticPoolConfig

SMALL_POOL = SyntheticPoolConfig(n_machines=5, n_observations=60)

STUDY_POLICIES = (
    ("full (paper)", None),
    ("inc d=0.10 full@10", StoragePolicy(delta_fraction=0.10, full_every_k=10)),
    ("inc d=0.10 keep5", StoragePolicy(delta_fraction=0.10, full_every_k=50, keep_last_k=5)),
)


@pytest.fixture(scope="module")
def study():
    return run_storage_study(
        pool_config=SMALL_POOL,
        seed=2005,
        model_names=("exponential", "weibull"),
        policies=STUDY_POLICIES,
    )


class TestAcceptance:
    """The issue's bar: at the Table 4 campus point, incremental storage
    strictly reduces megabytes while efficiency stays within one point
    of the full-checkpoint baseline, for every availability model."""

    def test_incremental_strictly_reduces_network_load(self, study):
        for model in study.model_names:
            base = study.aggregate(model, "full (paper)")
            for policy in study.policy_names[1:]:
                agg = study.aggregate(model, policy)
                assert agg.mb_total < base.mb_total, (model, policy)

    def test_efficiency_within_one_point_of_baseline(self, study):
        for model in study.model_names:
            base = study.aggregate(model, "full (paper)")
            for policy in study.policy_names[1:]:
                agg = study.aggregate(model, policy)
                assert agg.efficiency >= base.efficiency - 0.01, (model, policy)

    def test_keep_last_k_bounds_chains(self, study):
        agg = study.aggregate("weibull", "inc d=0.10 keep5")
        assert 1 <= agg.max_chain <= 5


class TestRendering:
    def test_table_renders(self, study):
        text = study.table().render()
        assert "Storage study" in text
        assert "full (paper)" in text
        assert "vs full" in text
        # baseline rows are 0 % by construction
        assert "+0.0%" in text or "-0.0%" in text

    def test_default_policies_well_formed(self):
        names = [name for name, _ in DEFAULT_STORAGE_POLICIES]
        assert names[0] == "full (paper)"
        assert len(names) == len(set(names))
        for _name, policy in DEFAULT_STORAGE_POLICIES[1:]:
            assert isinstance(policy, StoragePolicy)


class TestCli:
    def test_storage_study_command(self):
        buf = io.StringIO()
        code = main(
            ["storage-study", "--machines", "3", "--observations", "40"],
            stdout=buf,
        )
        assert code == 0
        out = buf.getvalue()
        assert "Storage study" in out
        assert "inc d=0.10 full@10" in out


class TestOneReplayCall:
    def test_matches_per_model_replays(self, study):
        """The study replays every (machine, model, policy) with one
        ``replay_batch`` call; each result is the one a per-(machine,
        model) call gives, bitwise."""
        import zlib

        import numpy as np

        from repro.core import SolverCache, use_solver_cache
        from repro.distributions.fitting import fit_model
        from repro.simulation.accounting import SimulationConfig
        from repro.simulation.batch_replay import BatchReplayItem, replay_batch
        from repro.simulation.trace_sim import model_schedule
        from repro.traces.synthetic import generate_condor_pool
        from repro.traces.model import TRAINING_SET_SIZE

        pool = generate_condor_pool(SMALL_POOL, np.random.default_rng(2005))
        expected: dict[tuple[str, str], list] = {}
        with use_solver_cache(SolverCache()):
            for trace in pool:
                train, _ = trace.split(TRAINING_SET_SIZE)
                key = zlib.crc32(trace.machine_id.encode("utf-8"))
                rng = np.random.default_rng(np.random.SeedSequence([424242, key]))
                for model in study.model_names:
                    dist = fit_model(model, train, rng=rng)
                    items = []
                    for _name, policy in STUDY_POLICIES:
                        config = SimulationConfig(
                            checkpoint_cost=study.checkpoint_cost,
                            checkpoint_size_mb=study.checkpoint_size_mb,
                            storage=policy,
                        )
                        items.append(
                            BatchReplayItem(
                                schedule=model_schedule(dist, config),
                                durations=trace.durations,
                                config=config,
                                machine_id=trace.machine_id,
                                model_name=model,
                            )
                        )
                    for (name, _), result in zip(STUDY_POLICIES, replay_batch(items), strict=True):
                        expected.setdefault((model, name), []).append(result)
        assert study.results == expected

