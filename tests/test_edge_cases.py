"""Edge-case and failure-injection tests across modules."""

import math

import numpy as np
import pytest

from repro.core import CheckpointCosts, MarkovIntervalModel, optimize_interval
from repro.distributions import Exponential, Hyperexponential, Weibull


class _SloppyCDF(Exponential):
    """A distribution whose scalar CDF strays past 1 by round-off."""

    def cdf_one(self, x: float) -> float:
        return min(super().cdf_one(x) + 5e-12, 1.0 + 5e-12)


class TestMarkovRobustness:
    def test_sloppy_cdf_clamped(self):
        model = MarkovIntervalModel(_SloppyCDF(1e-4), CheckpointCosts.symmetric(100.0))
        tr = model.transitions(1000.0)
        assert 0.0 <= tr.p01 <= 1.0
        assert 0.0 <= tr.p21 <= 1.0
        assert math.isfinite(model.gamma(1000.0))

    def test_latency_shortens_optimal_interval(self):
        d = Weibull(0.43, 3409.0)
        no_latency = optimize_interval(d, CheckpointCosts(475.0, 475.0, latency=0.0))
        latency = optimize_interval(d, CheckpointCosts(475.0, 475.0, latency=475.0))
        assert latency.expected_efficiency < no_latency.expected_efficiency

    def test_asymmetric_costs(self):
        # cheap local recovery, expensive remote checkpoint
        d = Exponential(1.0 / 5000.0)
        opt = optimize_interval(d, CheckpointCosts(checkpoint=400.0, recovery=20.0))
        assert opt.T_opt > 0.0
        tr = MarkovIntervalModel(d, CheckpointCosts(400.0, 20.0)).transitions(1000.0)
        assert tr.k01 == 1400.0
        assert tr.k21 == 1020.0

    def test_tiny_and_huge_rates(self):
        for lam in (1e-9, 1e2):
            opt = optimize_interval(Exponential(lam), CheckpointCosts.symmetric(10.0))
            assert math.isfinite(opt.T_opt)
            assert opt.T_opt > 0.0


class TestGenericDerivedQuantities:
    def test_truncated_mean_generic(self):
        d = Weibull(0.7, 1000.0)
        x = 1500.0
        tm = float(d.truncated_mean(x))
        assert 0.0 < tm < x
        # definition check
        assert tm == pytest.approx(
            float(d.partial_expectation(x)) / float(d.cdf(x)), rel=1e-12
        )

    def test_mean_residual_life_generic_at_zero(self):
        for d in (Weibull(0.7, 1000.0), Hyperexponential([0.5, 0.5], [1e-3, 1e-4])):
            assert float(d.mean_residual_life(0.0)) == pytest.approx(d.mean(), rel=1e-9)

    def test_hyperexp_quantile_bisection(self):
        d = Hyperexponential([0.3, 0.7], [1.0 / 100.0, 1.0 / 5000.0])
        for q in (0.1, 0.5, 0.9, 0.999):
            x = float(d.quantile(q))
            assert d.cdf_one(x) == pytest.approx(q, abs=1e-8)

    def test_quantile_array_shape(self):
        d = Hyperexponential([0.3, 0.7], [1.0 / 100.0, 1.0 / 5000.0])
        q = np.array([[0.1, 0.5], [0.9, 0.99]])
        out = np.asarray(d.quantile(q))
        assert out.shape == q.shape
        assert np.all(np.diff(out.ravel()) > 0)

    def test_hazard_generic_fallback(self):
        d = Hyperexponential([0.5, 0.5], [1e-2, 1e-4])
        h = float(d.hazard(100.0))
        assert h == pytest.approx(
            float(d.pdf(100.0)) / float(d.sf(100.0)), rel=1e-9
        )


class TestLinkFailureModes:
    def test_stalled_zero_bandwidth_detected(self):
        from repro.engine import Environment
        from repro.network import PiecewiseConstantBandwidth, SharedLink

        env = Environment()
        # bandwidth model that claims a change never comes while rate -> 0
        class Dead(PiecewiseConstantBandwidth):
            def rate(self, t):
                return 0.0

            def next_change(self, t):
                return math.inf

        link = SharedLink(env, Dead([0.0], [1.0]))
        with pytest.raises(RuntimeError):
            link.start_transfer(10.0)

    def test_many_concurrent_transfers_conserve_bytes(self):
        from repro.engine import Environment
        from repro.network import SharedLink

        env = Environment()
        link = SharedLink(env, 10.0)
        n = 25
        done = []

        def sender(env, size):
            tr = link.start_transfer(size)
            yield tr.done
            done.append(tr.sent_mb)

        sizes = [10.0 * (i + 1) for i in range(n)]
        for s in sizes:
            env.process(sender(env, s))
        env.run()
        assert len(done) == n
        assert link.total_mb_sent == pytest.approx(sum(sizes))


class TestScheduleExtremes:
    def test_schedule_with_huge_t_elapsed(self):
        from repro.core import CheckpointSchedule

        d = Weibull(0.43, 3409.0)
        sched = CheckpointSchedule(d, CheckpointCosts.symmetric(100.0), t_elapsed=1e7)
        t = sched.work_interval(0)
        assert math.isfinite(t) and t > 0.0

    def test_conditioning_past_hyperexp_support(self):
        # at astronomically large ages the fast phases underflow entirely
        d = Hyperexponential([0.9, 0.1], [1.0, 1e-5])
        cond = d.conditional(1e6)
        assert cond.probs[np.argmin(cond.rates)] == pytest.approx(1.0)

    def test_zero_checkpoint_cost_schedule(self):
        from repro.core import CheckpointSchedule

        sched = CheckpointSchedule(Exponential(1e-4), CheckpointCosts.symmetric(0.0))
        # with free checkpoints the optimum hits the T_MIN floor
        assert sched.work_interval(0) <= 2.0
