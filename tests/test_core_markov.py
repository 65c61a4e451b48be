"""Tests for Vaidya's three-state Markov interval model."""

import gc
import math
import weakref

import numpy as np
import pytest

from repro.core import CheckpointCosts, MarkovIntervalModel, optimize_interval
from repro.core.markov import MarkovRows
from repro.distributions import Exponential, Hyperexponential, LogNormal, Pareto, Weibull


@pytest.fixture
def exp_model():
    return MarkovIntervalModel(Exponential(1.0 / 3600.0), CheckpointCosts.symmetric(100.0))


class TestCheckpointCosts:
    def test_symmetric(self):
        c = CheckpointCosts.symmetric(250.0)
        assert c.checkpoint == c.recovery == 250.0
        assert c.latency == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CheckpointCosts(checkpoint=-1.0, recovery=0.0)
        with pytest.raises(ValueError):
            CheckpointCosts(checkpoint=1.0, recovery=1.0, latency=-0.5)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        for fields in ((bad, 1.0, 0.0), (1.0, bad, 0.0), (1.0, 1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                CheckpointCosts(*fields)


class TestTransitions:
    def test_probabilities_sum_and_bounds(self, exp_model):
        tr = exp_model.transitions(1000.0)
        assert tr.p01 + tr.p02 == pytest.approx(1.0)
        assert tr.p21 + tr.p22 == pytest.approx(1.0)
        assert 0.0 < tr.p01 < 1.0 and 0.0 < tr.p21 < 1.0

    def test_paper_formulas_exponential(self):
        lam, C, R, T = 1.0 / 2000.0, 150.0, 150.0, 800.0
        model = MarkovIntervalModel(Exponential(lam), CheckpointCosts(C, R))
        tr = model.transitions(T)
        assert tr.p01 == pytest.approx(math.exp(-lam * (C + T)))
        assert tr.k01 == C + T
        assert tr.p21 == pytest.approx(math.exp(-lam * (R + T)))
        assert tr.k21 == R + T
        # K02 = E[t | t < C+T]
        F = 1.0 - math.exp(-lam * (C + T))
        pe = 1.0 / lam - (C + T + 1.0 / lam) * math.exp(-lam * (C + T))
        assert tr.k02 == pytest.approx(pe / F)

    def test_latency_enters_state2_horizon(self):
        model = MarkovIntervalModel(
            Exponential(1e-4), CheckpointCosts(checkpoint=100.0, recovery=50.0, latency=30.0)
        )
        tr = model.transitions(500.0)
        assert tr.k21 == 30.0 + 50.0 + 500.0
        assert tr.k01 == 100.0 + 500.0

    def test_k02_below_horizon(self, exp_model):
        tr = exp_model.transitions(2000.0)
        assert 0.0 < tr.k02 < tr.k01

    def test_invalid_T(self, exp_model):
        with pytest.raises(ValueError):
            exp_model.transitions(0.0)
        with pytest.raises(ValueError):
            exp_model.transitions(-5.0)

    def test_conditioning_only_affects_state0(self):
        w = Weibull(0.5, 3000.0)
        young = MarkovIntervalModel(w, CheckpointCosts.symmetric(100.0), age=0.0)
        old = MarkovIntervalModel(w, CheckpointCosts.symmetric(100.0), age=20000.0)
        t_young, t_old = young.transitions(1000.0), old.transitions(1000.0)
        # DFR: an old resource is less likely to fail soon
        assert t_old.p02 < t_young.p02
        # state-2 terms use the unconditional distribution -> identical
        assert t_old.p21 == pytest.approx(t_young.p21)
        assert t_old.k22 == pytest.approx(t_young.k22)


class TestGamma:
    def test_gamma_exceeds_k01(self, exp_model):
        # failures can only add time
        for T in (100.0, 1000.0, 5000.0):
            assert exp_model.gamma(T) >= T + 100.0

    def test_gamma_exponential_closed_form(self):
        # For the exponential (memoryless, C=R, L=0) the first-step
        # analysis gives Gamma = (e^{lam (C+T)} - 1) / lam * e^{lam R} ...
        # verify instead against a direct Monte Carlo of the chain.
        lam, C, T = 1.0 / 1500.0, 120.0, 900.0
        model = MarkovIntervalModel(Exponential(lam), CheckpointCosts.symmetric(C))
        rng = np.random.default_rng(0)
        total, n = 0.0, 40000
        for _ in range(n):
            t_acc = 0.0
            horizon = C + T
            while True:
                life = rng.exponential(1.0 / lam)
                if life >= horizon:
                    t_acc += horizon
                    break
                t_acc += life
                horizon = C + T  # R + T with R = C
            total += t_acc
        assert model.gamma(T) == pytest.approx(total / n, rel=0.02)

    def test_efficiency_reciprocal(self, exp_model):
        T = 700.0
        assert exp_model.expected_efficiency(T) == pytest.approx(
            T / exp_model.gamma(T)
        )
        assert exp_model.overhead_ratio(T) == pytest.approx(
            exp_model.gamma(T) / T
        )

    def test_impossible_interval_infinite_gamma(self):
        # a bounded-ish distribution where surviving L+R+T is impossible:
        # huge rate, enormous T
        model = MarkovIntervalModel(Exponential(1.0), CheckpointCosts.symmetric(1.0))
        g = model.gamma(5000.0)
        assert g == math.inf or g > 1e100
        assert model.expected_efficiency(5000.0) == 0.0

    def test_zero_cost_perfect_efficiency_limit(self):
        model = MarkovIntervalModel(Exponential(1e-9), CheckpointCosts.symmetric(0.0))
        assert model.expected_efficiency(1000.0) == pytest.approx(1.0, abs=1e-4)


class TestHyperexponentialConditioningEffect:
    def test_surviving_lengthens_apparent_life(self):
        h = Hyperexponential([0.7, 0.3], [1.0 / 200.0, 1.0 / 8000.0])
        costs = CheckpointCosts.symmetric(100.0)
        g0 = MarkovIntervalModel(h, costs, age=0.0).gamma(1000.0)
        g1 = MarkovIntervalModel(h, costs, age=4000.0).gamma(1000.0)
        assert g1 < g0  # less expected retry cost once the fast phase is ruled out


class TestMarkovRows:
    def test_rows_group_by_family_wherever_they_sit(self):
        """Interleaved families make one kernel block each, and every row
        is bitwise its lone evaluation."""
        w1, w2 = Weibull(0.43, 3409.0), Weibull(1.7, 500.0)
        e = Exponential(1.0 / 5000.0)
        h = Hyperexponential([0.5, 0.5], [1.0 / 100.0, 1.0 / 9000.0])
        dists = [w1, e, w2, h, e, w1]
        ages = [0.0, 10.0, 300.0, 50.0, 0.0, 5000.0]
        C, R, L = [60.0, 60.0, 30.0, 90.0, 60.0, 60.0], [60.0] * 6, [0.0, 5.0, 0.0, 0.0, 0.0, 5.0]
        rows = MarkovRows(dists, ages, C, R, L)
        assert len(rows._blocks) == 3
        T = np.exp(np.random.default_rng(0).uniform(0.0, np.log(1e6), (6, 9)))
        got = rows.gamma(T)
        for i in range(6):
            lone = MarkovRows(dists[i], [ages[i]], [C[i]], [R[i]], [L[i]]).gamma(T[i : i + 1])
            assert np.array_equal(got[i : i + 1], lone), dists[i]

    @pytest.mark.parametrize(
        "make",
        [lambda: LogNormal(7.0, 1.5), lambda: Pareto(1.3, 60.0), lambda: Weibull(0.43, 3409.0)],
        ids=["lognormal", "pareto", "weibull"],
    )
    def test_solved_distribution_is_freed(self, make):
        """Nothing the solver keeps holds a solved model alive: an aged
        solve with L + R != C (its own state-2 kernel) leaves the model
        collectable once the caller drops it."""
        dist = make()
        optimize_interval(dist, CheckpointCosts(60.0, 90.0, 5.0), age=3600.0)
        ref = weakref.ref(dist)
        del dist
        gc.collect()
        assert ref() is None
