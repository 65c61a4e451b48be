"""The table-driven storage replay against the per-commit store loop.

``batch_replay._replay_with_storage`` walks each trace over per-interval
plan tables and the policy's commit cadence; the loop it replaced,
which commits every checkpoint to a live ``CheckpointStore``, is kept in
``tests/storage_replay_oracle.py``.  The two must agree bit for bit
(``==``) on every ``SimulationResult``, on the storage and ``sim.*``
counters, and on the recorded trace events, in order.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.solver_cache import SolverCache, use_solver_cache
from repro.distributions import Exponential, Hyperexponential, Weibull
from repro.experiments import storage_study
from repro.obs.metrics import use as use_metrics
from repro.obs.tracing import TraceRecorder, use as use_trace
from repro.simulation import SimulationConfig, replay_schedule, simulate_trace
from repro.simulation.trace_sim import model_schedule
from repro.storage import CheckpointStore, StoragePolicy
from repro.traces.synthetic import SyntheticPoolConfig, generate_condor_pool
from tests.storage_replay_oracle import replay_with_storage as oracle_replay

POLICIES = [
    StoragePolicy(),
    StoragePolicy.full(),
    StoragePolicy(delta_fraction=0.10, full_every_k=7, keep_last_k=3),
    StoragePolicy(delta_model="dirty-page", dirty_tau=1800.0, full_every_k=5),
    StoragePolicy(delta_fraction=0.10, compression_ratio=2.0, compression_mb_per_s=200.0),
    StoragePolicy(mode="full", full_every_k=10, keep_last_k=2, compression_ratio=2.0),
]

#: the walk's control-flow grid: cost, latency, partial-transfer policy,
#: recovery on start, recovery bandwidth counted
GRID = list(
    itertools.product(
        (30.0, 110.0), (0.0, 40.0), ("full", "none", "proportional"), (True, False), (True, False)
    )
)


class TableSchedule:
    """A duck-typed schedule over a fixed list of work intervals (the
    last one repeats), counting the reads and the indices read."""

    def __init__(self, intervals):
        self._T = [float(x) for x in intervals]
        self.reads = 0
        self.indices = set()

    def work_interval(self, i):
        self.reads += 1
        self.indices.add(i)
        return self._T[min(i, len(self._T) - 1)]

    def intervals(self, n):
        return [self.work_interval(i) for i in range(n)]

    def expected_efficiency(self, i=0):
        return 0.5


def _durations(rng, n):
    """Exponential occupancies with some zero-length and very long ones."""
    d = rng.exponential(4000.0, size=n)
    d[rng.random(n) < 0.1] = 0.0
    d[rng.random(n) < 0.05] *= 20.0
    return d


def _config(policy, cost, latency, partial, recover, count_rec):
    return SimulationConfig(
        checkpoint_cost=cost,
        checkpoint_size_mb=500.0,
        latency=latency,
        partial_transfer_policy=partial,
        recover_on_start=recover,
        count_recovery_bandwidth=count_rec,
        storage=policy,
    )


def both(schedule_factory, durations, config, **labels):
    """``(walk, oracle)`` results, each on its own fresh schedule."""
    labels = {"machine_id": "m0", "model_name": "model", **labels}
    walk = replay_schedule(schedule_factory(), durations, config, **labels)
    oracle = oracle_replay(schedule_factory(), durations, config, **labels)
    return walk, oracle


class TestBitwiseGate:
    @pytest.mark.parametrize("policy", POLICIES, ids=range(len(POLICIES)))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_tables_over_the_grid(self, policy, seed):
        rng = np.random.default_rng([seed, POLICIES.index(policy)])
        for cost, latency, partial, recover, count_rec in GRID:
            config = _config(policy, cost, latency, partial, recover, count_rec)
            T = rng.uniform(50.0, 3000.0, size=int(rng.integers(1, 40)))
            durations = _durations(rng, int(rng.integers(1, 80)))
            walk, oracle = both(lambda T=T: TableSchedule(T), durations, config)
            assert walk == oracle, (cost, latency, partial, recover, count_rec)

    @pytest.mark.parametrize(
        "dist",
        [Weibull(0.43, 3409.0), Exponential(1.0 / 3000.0), Hyperexponential([0.3, 0.7], [1 / 500.0, 1 / 20000.0])],
        ids=["weibull", "exponential", "hyperexp2"],
    )
    def test_fitted_schedules(self, dist):
        rng = np.random.default_rng(7)
        for policy, cell in zip(POLICIES, rng.permutation(len(GRID))[: len(POLICIES)], strict=True):
            config = _config(policy, *GRID[cell])
            durations = _durations(rng, 60)
            walk, oracle = both(lambda config=config: model_schedule(dist, config), durations, config)
            assert walk == oracle, policy

    def test_storage_study_results(self, monkeypatch):
        """Every storage result of the study is the oracle's on its item."""
        items = []
        replay_batch = storage_study.replay_batch

        def capture(batch):
            items.extend(batch)
            return replay_batch(batch)

        monkeypatch.setattr(storage_study, "replay_batch", capture)
        pool = generate_condor_pool(
            SyntheticPoolConfig(n_machines=2, n_observations=60), np.random.default_rng(2005)
        )
        with use_solver_cache(SolverCache()):
            study = storage_study.run_storage_study(pool)
        names = {policy: name for name, policy in storage_study.DEFAULT_STORAGE_POLICIES}
        checked = 0
        for item in items:
            if not item.config.storage_backed:
                continue
            (got,) = [
                res
                for res in study.results[(item.model_name, names[item.config.storage])]
                if res.machine_id == item.machine_id
            ]
            fresh = model_schedule(item.schedule.distribution, item.config)
            want = oracle_replay(
                fresh,
                np.asarray(item.durations, dtype=np.float64),
                item.config,
                machine_id=item.machine_id,
                model_name=item.model_name,
            )
            assert got == want, (item.machine_id, item.model_name, item.config.storage)
            checked += 1
        assert checked == 2 * 3 * 5  # machines x models x storage policies

    @pytest.mark.parametrize("replay", [replay_schedule, oracle_replay], ids=["walk", "oracle"])
    def test_zero_length_cycle_raises(self, replay):
        config = SimulationConfig(
            checkpoint_cost=0.0, checkpoint_size_mb=500.0, storage=StoragePolicy()
        )
        with pytest.raises(ValueError, match="no forward progress"):
            replay(TableSchedule([0.0]), np.array([100.0]), config, machine_id="m", model_name="x")

    def test_walk_reads_each_index_once(self):
        config = _config(POLICIES[0], 110.0, 40.0, "proportional", True, True)
        durations = np.full(50, 5000.0)
        walk, oracle = TableSchedule([300.0, 500.0, 700.0]), TableSchedule([300.0, 500.0, 700.0])
        replay_schedule(walk, durations, config)
        oracle_replay(oracle, durations, config, machine_id="machine", model_name="model")
        # the oracle asks for an interval on every cycle of every
        # occupancy, the walk once per index it reaches
        assert walk.reads == len(walk.indices) == len(oracle.indices) < oracle.reads


class TestStoredFootprint:
    def test_empty_store_footprint_is_float_zero(self):
        store = CheckpointStore(StoragePolicy(), 500.0)
        assert store.stored_mb() == 0.0 and type(store.stored_mb()) is float

    def test_replay_with_no_commit_reports_float_zero(self):
        res = simulate_trace(
            Weibull(0.43, 3409.0),
            [5.0, 50.0],
            SimulationConfig(checkpoint_cost=110.0, storage=StoragePolicy()),
        )
        assert res.n_checkpoints_completed == 0
        assert res.mb_stored_final == 0.0 and type(res.mb_stored_final) is float


def _reference_kind(store):
    """The store's pre-cadence rule, read off its live state."""
    policy = store.policy
    if store.n_committed == 0 or policy.mode == "full":
        return "full"
    if store.n_committed % policy.full_every_k == 0:
        return "full"
    k = policy.keep_last_k
    if k is not None and store.chain_length() >= k:
        return "full"
    return "delta"


class TestCommitCadence:
    @given(
        mode=st.sampled_from(["incremental", "full"]),
        full_every_k=st.integers(1, 12),
        keep_last_k=st.one_of(st.none(), st.integers(1, 12)),
    )
    def test_store_follows_the_cadence(self, mode, full_every_k, keep_last_k):
        policy = StoragePolicy(mode=mode, full_every_k=full_every_k, keep_last_k=keep_last_k)
        store = CheckpointStore(policy, 500.0)
        f = full_every_k
        for c in range(3 * f):
            plan = store.plan_checkpoint(600.0)
            assert plan.kind == _reference_kind(store) == policy.commit_kind(c % f)
            store.commit(plan)
            assert store.chain_length() == policy.chain_length(c % f + 1)
            assert store.n_full == policy.count_fulls(c + 1)
            assert store.max_chain_len == policy.max_chain_length(c + 1)

    def test_plan_of_a_requested_kind(self):
        store = CheckpointStore(StoragePolicy(delta_fraction=0.2), 500.0)
        assert store.plan_checkpoint(600.0, kind="delta").raw_mb == pytest.approx(100.0)
        assert store.plan_checkpoint(600.0).kind == "full"
        with pytest.raises(ValueError):
            store.plan_checkpoint(600.0, kind="partial")


def _storage_counters(reg):
    counters = reg.as_dict()["counters"]
    return {k: v for k, v in counters.items() if k.startswith(("storage.", "sim.", "link."))}


class TestTelemetryParity:
    @pytest.mark.parametrize("policy", POLICIES, ids=range(len(POLICIES)))
    def test_counters_match_the_oracle(self, policy):
        rng = np.random.default_rng(11)
        config = _config(policy, 110.0, 40.0, "proportional", True, True)
        T = rng.uniform(100.0, 2000.0, size=12)
        durations = _durations(rng, 120)
        with use_metrics() as walk_reg:
            replay_schedule(TableSchedule(T), durations, config)
        with use_metrics() as oracle_reg:
            oracle_replay(TableSchedule(T), durations, config, machine_id="machine", model_name="model")
        got, want = _storage_counters(walk_reg), _storage_counters(oracle_reg)
        assert got.keys() == want.keys()
        assert got["storage.commits.full"] + got.get("storage.commits.delta", 0) > 0
        for key, value in want.items():
            if key.endswith("_mb") or key == "sim.machine_seconds":
                assert got[key] == pytest.approx(value, rel=1e-9, abs=1e-9), key
            else:
                assert got[key] == value, key

    @pytest.mark.parametrize("policy", POLICIES, ids=range(len(POLICIES)))
    @pytest.mark.parametrize("partial", ["full", "none", "proportional"])
    def test_recorded_events_match_the_oracle(self, policy, partial):
        rng = np.random.default_rng(13)
        config = _config(policy, 110.0, 40.0, partial, True, True)
        T = rng.uniform(100.0, 2000.0, size=12)
        durations = _durations(rng, 60)
        with use_trace(TraceRecorder(sampling={})) as walk_rec:
            replay_schedule(TableSchedule(T), durations, config)
        with use_trace(TraceRecorder(sampling={})) as oracle_rec:
            oracle_replay(TableSchedule(T), durations, config, machine_id="machine", model_name="model")
        assert walk_rec.n_dropped == oracle_rec.n_dropped == 0
        assert list(walk_rec._buf) == list(oracle_rec._buf)

    def test_traced_fitted_replay_matches_the_oracle(self):
        """Lazy solves inside a traced replay land where the oracle's do
        (only their wall-clock argument may differ)."""

        def events(recorder):
            out = []
            for ev in recorder._buf:
                ev = dict(ev)
                if "args" in ev:
                    ev["args"] = {k: v for k, v in ev["args"].items() if k != "wall_s"}
                out.append(ev)
            return out

        dist = Weibull(0.43, 3409.0)
        config = _config(POLICIES[2], 110.0, 40.0, "proportional", True, True)
        durations = _durations(np.random.default_rng(17), 40)
        with use_solver_cache(SolverCache()), use_trace(TraceRecorder(sampling={})) as walk_rec:
            walk = replay_schedule(model_schedule(dist, config), durations, config)
        with use_solver_cache(SolverCache()), use_trace(TraceRecorder(sampling={})) as oracle_rec:
            oracle = oracle_replay(
                model_schedule(dist, config), durations, config, machine_id="machine", model_name="model"
            )
        assert walk == oracle
        assert events(walk_rec) == events(oracle_rec)
        assert any(ev["name"] == "solve" for ev in events(walk_rec))

