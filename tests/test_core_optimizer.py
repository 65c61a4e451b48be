"""Tests for T_opt optimisation."""

import math

import numpy as np
import pytest

from repro.core import CheckpointCosts, MarkovIntervalModel, optimize_interval, young_approximation
from repro.core.optimizer import T_MIN, _resolve_bounds, optimize_intervals_batch
from repro.distributions import Exponential, Hyperexponential, Weibull


def brute_force_T(dist, costs, age=0.0, lo=1.0, hi=1e7, n=4000):
    model = MarkovIntervalModel(dist, costs, age)
    Ts = np.geomspace(lo, hi, n)
    vals = np.array([model.overhead_ratio(t) for t in Ts])
    i = int(np.nanargmin(vals))
    return Ts[i], vals[i]


class TestOptimizeInterval:
    @pytest.mark.parametrize(
        "dist",
        [
            Exponential(1.0 / 5000.0),
            Weibull(0.43, 3409.0),
            Weibull(1.4, 2000.0),
            Hyperexponential([0.5, 0.5], [1.0 / 100.0, 1.0 / 9000.0]),
        ],
        ids=["exp", "weib-heavy", "weib-ifr", "hyper2"],
    )
    @pytest.mark.parametrize("C", [50.0, 500.0])
    @pytest.mark.parametrize("age", [0.0, 7000.0])
    def test_matches_brute_force(self, dist, C, age):
        costs = CheckpointCosts.symmetric(C)
        opt = optimize_interval(dist, costs, age=age)
        _, best = brute_force_T(dist, costs, age)
        assert opt.overhead_ratio <= best * (1.0 + 1e-4)
        assert opt.converged

    def test_result_fields_consistent(self):
        opt = optimize_interval(Exponential(1e-4), CheckpointCosts.symmetric(200.0))
        assert opt.gamma == pytest.approx(opt.T_opt * opt.overhead_ratio, rel=1e-9)
        assert opt.expected_efficiency == pytest.approx(1.0 / opt.overhead_ratio, rel=1e-9)
        assert 0.0 < opt.expected_efficiency < 1.0

    def test_larger_cost_means_longer_interval(self):
        d = Exponential(1.0 / 4000.0)
        t_small = optimize_interval(d, CheckpointCosts.symmetric(50.0)).T_opt
        t_large = optimize_interval(d, CheckpointCosts.symmetric(1000.0)).T_opt
        assert t_large > t_small

    def test_more_volatile_machine_shorter_interval(self):
        costs = CheckpointCosts.symmetric(100.0)
        t_stable = optimize_interval(Exponential(1.0 / 20000.0), costs).T_opt
        t_flaky = optimize_interval(Exponential(1.0 / 1000.0), costs).T_opt
        assert t_flaky < t_stable

    def test_exponential_age_invariant(self):
        d = Exponential(1.0 / 3000.0)
        costs = CheckpointCosts.symmetric(100.0)
        t0 = optimize_interval(d, costs, age=0.0).T_opt
        t1 = optimize_interval(d, costs, age=50000.0).T_opt
        assert t0 == pytest.approx(t1, rel=1e-6)

    def test_efficiency_decreases_with_cost(self):
        d = Weibull(0.5, 3000.0)
        effs = [
            optimize_interval(d, CheckpointCosts.symmetric(c)).expected_efficiency
            for c in (50.0, 250.0, 1000.0)
        ]
        assert effs[0] > effs[1] > effs[2]

    def test_respects_bounds(self):
        # an interior optimum, one pinned at the lower end (free
        # checkpoints) and an unschedulable cost
        for d, cost, age in (
            (Exponential(1.0 / 3000.0), 100.0, 0.0),
            (Weibull(0.43, 3409.0), 0.0, 3409.0),
            (Hyperexponential([0.5, 0.5], [1e-2, 1e-4]), 1e9, 50.0),
        ):
            opt = optimize_interval(d, CheckpointCosts.symmetric(cost), age=age)
            t_max = _resolve_bounds(d, d.fingerprint(), age)[0]
            assert T_MIN <= opt.T_opt <= t_max

    @pytest.mark.parametrize("age", [math.nan, math.inf, -1.0])
    def test_rejects_bad_age(self, age):
        d = Hyperexponential([0.5, 0.5], [1e-2, 1e-4])
        with pytest.raises(ValueError, match="finite and non-negative"):
            optimize_interval(d, CheckpointCosts.symmetric(110.0), age=age)
        with pytest.raises(ValueError, match="finite and non-negative"):
            optimize_intervals_batch(Weibull(0.43, 3409.0), CheckpointCosts.symmetric(110.0), [0.0, age])

    def test_unschedulable_solve_not_converged(self):
        # a retry never fits before the next failure: every interval has
        # an infinite expected cost, so nothing converges
        for d in (Weibull(0.43, 3409.0), Exponential(1.0 / 3000.0)):
            opt = optimize_interval(d, CheckpointCosts.symmetric(1e9))
            assert opt.converged is False
            assert opt.gamma == math.inf
            assert opt.expected_efficiency == 0.0


class TestYoungApproximation:
    def test_order_of_magnitude(self):
        d = Exponential(1.0 / 10000.0)
        y = young_approximation(d, CheckpointCosts.symmetric(100.0))
        t = optimize_interval(d, CheckpointCosts.symmetric(100.0)).T_opt
        assert 0.2 * t < y < 5.0 * t

    def test_adapts_to_age_for_dfr(self):
        d = Weibull(0.4, 2000.0)
        y0 = young_approximation(d, CheckpointCosts.symmetric(100.0), age=0.0)
        y1 = young_approximation(d, CheckpointCosts.symmetric(100.0), age=50000.0)
        assert y1 > y0
