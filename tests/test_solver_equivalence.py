"""Golden-master equivalence of the solver paths.

Batching, lock-step schedule fills, serving and result caching are pure
performance devices: a row of the hybrid row solver is computed
elementwise, apart from the rows beside it, so every path reproduces the
cold solve *bitwise*.  The looser ``<= 1e-9`` relative budget bounds the
row solver against the scalar Brent oracle (``tests/solver_oracle.py``).
The suite sweeps the paper's model families from age 0 into the deep
conditional tail, plus fits taken from the pool sweep.
"""

import asyncio
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.optimizer as optimizer_module
import repro.distributions.conditional as conditional_module
import repro.distributions.weibull as weibull_module
from repro.core import (
    CheckpointCosts,
    CheckpointSchedule,
    MarkovIntervalModel,
    SolverCache,
    optimize_interval,
    use_solver_cache,
)
from repro.core.markov import MarkovRows
from repro.core.optimizer import optimize_intervals_batch
from repro.core.schedule import fill_schedules
from repro.distributions import Exponential, Hyperexponential, LogNormal, Pareto, ProductAvailability, Weibull
from repro.distributions.base import AvailabilityDistribution
from repro.distributions.conditional import ConditionalDistribution
from repro.serve.registry import TenantRegistry
from repro.serve.server import ScheduleServer, ServerConfig
from tests.solver_oracle import minimize_positive_hybrid, use_golden_solver

REL_BUDGET = 1e-9

COSTS = CheckpointCosts.symmetric(110.0)

#: (distribution, ages from job start into the deep conditional tail)
CASES = {
    "exp": (Exponential(1.0 / 5000.0), (0.0, 500.0, 5000.0, 1e6)),
    "weib-heavy": (Weibull(0.43, 3409.0), (0.0, 340.0, 3409.0, 34090.0, 4e6)),
    "hyper2": (
        Hyperexponential([0.5, 0.5], [1.0 / 100.0, 1.0 / 9000.0]),
        (0.0, 90.0, 9000.0, 2e5),
    ),
    "hyper3": (
        Hyperexponential([0.3, 0.5, 0.2], [1.0 / 50.0, 1.0 / 2000.0, 1.0 / 20000.0]),
        (0.0, 200.0, 20000.0, 4e5),
    ),
}


#: a Weibull fit of the pool sweep at an age its schedule reaches: a
#: flat, deep-tail optimum where solves entered from different brackets
#: land 3e-6 apart, so only bitwise paths agree
SWEEP_FIT = (Weibull(0.34861678622050735, 834.6982882412103), 5.179e5, CheckpointCosts.symmetric(50.0))


def _one_row(dist, age, costs=COSTS):
    """The one-row :class:`MarkovRows` of ``(dist, costs, age)``."""
    return MarkovRows(dist, [age], [costs.checkpoint], [costs.recovery], [costs.latency])


def _cold(dist, age, costs=COSTS):
    with use_solver_cache(None):
        return optimize_interval(dist, costs, age=age)


@pytest.mark.parametrize("name", sorted(CASES))
class TestGoldenMaster:
    def test_warm_matches_cold(self, name):
        """A solve made warm -- its age chain batched and cached first, in
        reverse -- is the cold solve, bitwise."""
        dist, ages = CASES[name]
        cold = [_cold(dist, age) for age in ages]
        with use_solver_cache(SolverCache()) as cache:
            optimize_intervals_batch(dist, COSTS, ages[::-1])
            warm = [optimize_interval(dist, COSTS, age=age) for age in ages]
            assert cache.hits == len(ages)
        assert warm == cold

    def test_bad_seed_matches_cold(self, name):
        """A row batched beside far-off rows -- other ages, other costs
        -- is the cold solve, bitwise."""
        dist, ages = CASES[name]
        cold = _cold(dist, ages[0])
        far = [CheckpointCosts.symmetric(5000.0), COSTS, CheckpointCosts.symmetric(0.5)]
        with use_solver_cache(None):
            batch = optimize_intervals_batch(
                dist, [*far, COSTS], [ages[-1] * 50.0 + 1e5, ages[-1], 0.0, ages[0]]
            )
        assert batch[-1] == cold

    def test_cached_matches_cold(self, name):
        dist, ages = CASES[name]
        for age in ages:
            cold = _cold(dist, age)
            with use_solver_cache(SolverCache()) as cache:
                optimize_interval(dist, COSTS, age=age)
                cached = optimize_interval(dist, COSTS, age=age)
                assert cache.hits == 1
            assert cached == cold

    def test_row_solver_matches_brent_oracle(self, name):
        dist, ages = CASES[name]
        for age in ages:
            model = MarkovIntervalModel(dist, COSTS, age)
            row = _one_row(dist, age)
            oracle = minimize_positive_hybrid(
                model.overhead_ratio,
                func_batch=lambda T, row=row: row.overhead_ratio(T[None, :])[0],
                guess=1000.0,
                lo=1e-3,
                hi=min(max(1e4 * float(dist.mean_residual_life(age)), 1e6), 1e9),
                rel_tol=1e-6,
            )
            assert _cold(dist, age).T_opt == pytest.approx(oracle.x, rel=REL_BUDGET)

    def test_hybrid_agrees_with_golden_reference(self, name):
        dist, ages = CASES[name]
        for age in ages:
            hybrid = _cold(dist, age)
            with use_golden_solver():
                golden = optimize_interval(dist, COSTS, age=age)
            # the two refine to the *solver* tolerance, not the polish's
            assert hybrid.T_opt == pytest.approx(golden.T_opt, rel=5e-5)
            assert hybrid.overhead_ratio == pytest.approx(golden.overhead_ratio, rel=1e-8)
            # the fast path never lands on a worse objective value
            assert hybrid.overhead_ratio <= golden.overhead_ratio * (1.0 + 1e-12)


_dists = st.sampled_from([dist for dist, _ in CASES.values()])
_ages = st.sampled_from([0.0, 77.0, 5000.0, 40000.0])
_Ts = st.lists(
    st.floats(min_value=1e-2, max_value=1e6), min_size=1, max_size=8
)


class TestBatchedObjective:
    """A one-row :class:`MarkovRows` against the scalar model."""

    @given(_dists, _ages, _Ts)
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_scalar_pointwise(self, dist, age, Ts):
        model = MarkovIntervalModel(dist, COSTS, age)
        batch = _one_row(dist, age).overhead_ratio(np.asarray([Ts]))[0]
        for t, b in zip(Ts, batch, strict=True):
            scalar = model.overhead_ratio(t)
            if math.isfinite(scalar):
                assert b == pytest.approx(scalar, rel=1e-9, abs=1e-12)
            else:
                assert not math.isfinite(b)

    @given(_dists, _ages, _Ts)
    @settings(max_examples=100, deadline=None)
    def test_gamma_batch_matches_scalar(self, dist, age, Ts):
        model = MarkovIntervalModel(dist, COSTS, age)
        batch = _one_row(dist, age).gamma(np.asarray([Ts]))[0]
        for t, b in zip(Ts, batch, strict=True):
            scalar = model.gamma(t)
            if math.isfinite(scalar):
                assert b == pytest.approx(scalar, rel=1e-9, abs=1e-12)
            else:
                assert not math.isfinite(b)

    def test_scalar_input_gives_length_one(self):
        model = MarkovIntervalModel(Exponential(1e-3), COSTS, 0.0)
        out = _one_row(Exponential(1e-3), 0.0).overhead_ratio(np.asarray([[123.0]]))
        assert out.shape == (1, 1)
        assert float(out[0, 0]) == pytest.approx(model.overhead_ratio(123.0), rel=1e-12)


# ----------------------------------------------------------------------
# bitwise equivalence of every solve path
# ----------------------------------------------------------------------
#: one model per row kind the solver evaluates: the three family kernels
#: (several fitted instances each, one Weibull with a shape numpy's pow
#: treats specially) and generic blocks of their own
_ROW_DISTS = [
    CASES["weib-heavy"][0],
    SWEEP_FIT[0],
    Weibull(0.5, 700.0),
    CASES["exp"][0],
    CASES["hyper2"][0],
    CASES["hyper3"][0],
    Hyperexponential([0.9, 0.1], [1.0 / 30.0, 1.0 / 5e4]),
    LogNormal(7.0, 1.5),
    Pareto(1.5, 100.0),
    ProductAvailability([Weibull(0.6, 2000.0), Exponential(1.0 / 8000.0)]),
    ConditionalDistribution(Weibull(0.43, 3409.0), 500.0),
]
_ROW_COSTS = [COSTS, CheckpointCosts.symmetric(50.0), CheckpointCosts(475.0, 300.0, 20.0)]
_rows = st.lists(
    st.tuples(
        st.sampled_from(range(len(_ROW_DISTS))),
        st.sampled_from([0.0, 77.0, 3409.0, 40000.0, 2e5, 4e6]),
        st.sampled_from(range(len(_ROW_COSTS))),
    ),
    min_size=1,
    max_size=6,
)


class TestBitwiseEquivalence:
    @given(_rows, st.randoms(use_true_random=False), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_split_reorder_pad_leave_rows_unchanged(self, rows, rnd, chunk):
        """Splitting, reordering or padding a batch changes no row's
        result, and each row is its model's lone solve -- with rows of
        many fitted models and families in one call: Weibull (deep-tail
        ages included), exponential, hyperexponential k = 2 and 3,
        lognormal, Pareto, a product and a conditional."""
        dists = [_ROW_DISTS[d] for d, _, _ in rows]
        ages = [age for _, age, _ in rows]
        costs = [_ROW_COSTS[c] for _, _, c in rows]
        with use_solver_cache(None):
            whole = optimize_intervals_batch(dists, costs, ages)
            lone = [optimize_interval(d, c, age=a) for d, c, a in zip(dists, costs, ages, strict=True)]
            order = list(range(len(rows)))
            rnd.shuffle(order)
            padded = optimize_intervals_batch(
                [*(dists[i] for i in order), _ROW_DISTS[0], _ROW_DISTS[4]],
                [*(costs[i] for i in order), CheckpointCosts.symmetric(2000.0), COSTS],
                [*(ages[i] for i in order), 123.0, 9e5],
            )
            split = []
            for k in range(0, len(rows), chunk):
                split += optimize_intervals_batch(dists[k : k + chunk], costs[k : k + chunk], ages[k : k + chunk])
        assert whole == lone
        assert split == whole
        for pos, i in enumerate(order):
            assert padded[pos] == whole[i]

    @pytest.mark.parametrize("name", [*sorted(CASES), "sweep-fit"])
    def test_cached_cold_served_lockstep_agree(self, name):
        if name == "sweep-fit":
            dist, age, costs = SWEEP_FIT
            ages = (age,)
        else:
            (dist, ages), costs = CASES[name], COSTS
        cold = {age: _cold(dist, age, costs) for age in ages}
        # cached: the second call is a hit
        with use_solver_cache(SolverCache()) as cache:
            for age in ages:
                optimize_interval(dist, costs, age=age)
                assert optimize_interval(dist, costs, age=age) == cold[age]
            assert cache.hits == len(ages)
        # served: through the daemon's codec and micro-batcher
        assert _served(dist, costs, ages) == [cold[age].T_opt for age in ages]
        # lock-step filled: every interval of schedules started at these
        # ages, filled together, is the cold solve at the age it was
        # solved for (memoryless and converged tails reuse a solve)
        schedules = [CheckpointSchedule(dist, costs, t_elapsed=age) for age in ages]
        with use_solver_cache(None):
            lengths = fill_schedules(
                schedules, [20.0 * cold[age].T_opt for age in ages], [costs.checkpoint] * len(ages)
            )
            for sched, n in zip(schedules, lengths, strict=True):
                assert n > 1
                for i in range(n):
                    opt = sched.interval(i)
                    assert opt == _cold(dist, opt.age, costs)


def _scalar_mrl(dist, age):
    """One scalar mean residual life through the generic survival /
    partial-expectation form (the exponential's constant excepted), as
    the bounds were computed before the Weibull and hyperexponential
    gained array forms."""
    if isinstance(dist, Exponential):
        return float(dist.mean_residual_life(float(age)))
    return float(AvailabilityDistribution.mean_residual_life(dist, float(age)))


def _scalar_bounds(dist, age):
    """``t_max`` from one scalar mean residual life."""
    mrl = _scalar_mrl(dist, age)
    if not math.isfinite(mrl) or mrl <= 0.0:
        mrl = max(dist.mean(), 1.0)
    return min(max(1e4 * mrl, 1e6), 1e9), mrl


class TestResolveBounds:
    """A call's search bounds come from one array mean residual life per
    fitted model; each is the scalar call's float."""

    def _check(self, dist, ages, monkeypatch):
        monkeypatch.setattr(optimizer_module, "_TMAX_MEMO", {})
        many = optimizer_module._resolve_bounds_many(dist, dist.fingerprint(), ages)
        assert many == [_scalar_bounds(dist, age) for age in ages]
        array = np.asarray(dist.mean_residual_life(np.array(ages, dtype=np.float64)))
        assert array.tolist() == [_scalar_mrl(dist, a) for a in ages]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_cases(self, name, monkeypatch):
        dist, ages = CASES[name]
        self._check(dist, list(ages), monkeypatch)

    @given(
        st.sampled_from([*sorted(CASES), "sweep-fit"]),
        st.lists(st.floats(min_value=0.0, max_value=1e7), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_ages(self, name, ages):
        dist = SWEEP_FIT[0] if name == "sweep-fit" else CASES[name][0]
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._check(dist, ages, monkeypatch)

    def test_memo_hits_and_misses_mix(self, monkeypatch):
        dist, ages = CASES["weib-heavy"]
        monkeypatch.setattr(optimizer_module, "_TMAX_MEMO", {})
        optimizer_module._resolve_bounds_many(dist, dist.fingerprint(), list(ages[:2]))
        mixed = [ages[3], ages[0], ages[3], ages[1]]
        assert optimizer_module._resolve_bounds_many(dist, dist.fingerprint(), mixed) == [
            _scalar_bounds(dist, age) for age in mixed
        ]


def _served(dist, costs, ages):
    registry = TenantRegistry()
    registry.register("t", dist, costs)

    async def session():
        server = ScheduleServer(ServerConfig(batch_window_s=0.005), registry=registry)
        await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        for i, age in enumerate(ages):
            writer.write((json.dumps({"op": "solve", "id": i, "pool": "t", "age": age}) + "\n").encode())
        await writer.drain()
        replies = {}
        for _ in ages:
            reply = json.loads(await reader.readline())
            replies[reply["id"]] = reply["result"]["T_opt"]
        writer.close()
        await writer.wait_closed()
        await server.stop()
        return [replies[i] for i in range(len(ages))]

    with use_solver_cache(SolverCache()):
        return asyncio.run(session())


class TestUpperTailConditional:
    """Weibull fits of the pool sweep just above the deep-tail switch
    (``S(age)`` ~ 1e-8), where the difference-form conditional put
    ``T_opt`` off by +0.30% and +0.57%."""

    FITS = [
        (Weibull(0.5693085326516375, 1238.135164633769), 2e5),
        (Weibull(0.6422891245316391, 2765.2380024237286), 3e5),
    ]

    @pytest.mark.parametrize("dist,age", FITS)
    def test_matches_by_parts_oracle(self, dist, age, monkeypatch):
        costs = CheckpointCosts.symmetric(50.0)
        assert 1e-9 < float(dist.sf(age)) < 1e-7
        fused = _cold(dist, age, costs)
        # the by-parts reference: every conditional takes the survival
        # quadrature that is otherwise reserved for the deep tail
        monkeypatch.setattr(conditional_module, "_DEEP_TAIL_SURV", 1.0)
        monkeypatch.setattr(weibull_module, "_DEEP_TAIL_SURV", 1.0)
        by_parts = _cold(dist, age, costs)
        assert fused.T_opt == pytest.approx(by_parts.T_opt, rel=1e-6)
