"""Micro-benchmarks of the library's hot paths.

These are classic pytest-benchmark timings (many rounds) for the pieces
that dominate a pool sweep: the golden-section interval optimisation,
the Markov objective evaluation, the scalar distribution fast paths and
the EM fitter.  They guard against performance regressions rather than
reproducing a paper artefact.
"""

import numpy as np
import pytest

from repro.core import CheckpointCosts, MarkovIntervalModel, optimize_interval
from repro.distributions import (
    Hyperexponential,
    Weibull,
    fit_hyperexponential,
    fit_weibull,
)
from repro.simulation import SimulationConfig, simulate_trace

WEIBULL = Weibull(0.43, 3409.0)
HYPER = Hyperexponential([0.6, 0.4], [1.0 / 300.0, 1.0 / 9000.0])
COSTS = CheckpointCosts.symmetric(475.0)


def test_bench_optimize_interval_weibull(benchmark):
    result = benchmark(lambda: optimize_interval(WEIBULL, COSTS, age=3600.0))
    assert result.T_opt > 0


def test_bench_optimize_interval_hyper(benchmark):
    result = benchmark(lambda: optimize_interval(HYPER, COSTS, age=3600.0))
    assert result.T_opt > 0


def test_bench_markov_objective(benchmark):
    model = MarkovIntervalModel(WEIBULL, COSTS, age=3600.0)
    value = benchmark(lambda: model.overhead_ratio(2000.0))
    assert value > 1.0


def test_bench_scalar_cdf(benchmark):
    value = benchmark(lambda: WEIBULL.cdf_one(1234.5))
    assert 0.0 < value < 1.0


def test_bench_scalar_partial_expectation(benchmark):
    value = benchmark(lambda: WEIBULL.partial_expectation_one(1234.5))
    assert value > 0.0


def test_bench_vectorised_cdf(benchmark):
    xs = np.geomspace(1.0, 1e6, 10000)
    out = benchmark(lambda: np.asarray(WEIBULL.cdf(xs)))
    assert out.shape == xs.shape


def test_bench_weibull_mle(benchmark):
    rng = np.random.default_rng(0)
    data = WEIBULL.sample(500, rng)
    fit = benchmark(lambda: fit_weibull(data))
    assert fit.shape > 0


def test_bench_hyperexp_em(benchmark):
    rng = np.random.default_rng(1)
    data = HYPER.sample(500, rng)
    result = benchmark.pedantic(
        lambda: fit_hyperexponential(data, k=2, n_restarts=0), rounds=3, iterations=1
    )
    assert result.distribution.k <= 2


@pytest.mark.parametrize("k", [2, 3])
def test_bench_hyperexp_em_study_regime(benchmark, k):
    """The fits the gang, sweep and storage studies make: 25
    observations, the default 2 restarts, so 3 lanes run in lock-step."""
    data = HYPER.sample(25, np.random.default_rng(1))
    result = benchmark(lambda: fit_hyperexponential(data, k=k))
    assert result.distribution.k <= k


def test_bench_trace_replay(benchmark):
    rng = np.random.default_rng(2)
    durations = WEIBULL.sample(100, rng)
    cfg = SimulationConfig(checkpoint_cost=475.0)
    result = benchmark.pedantic(
        lambda: simulate_trace(WEIBULL, durations, cfg), rounds=3, iterations=1
    )
    assert result.total_time > 0
