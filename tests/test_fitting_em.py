"""Tests for the hyperexponential EM estimator."""

import numpy as np
import pytest

from repro.distributions import Hyperexponential, fit_hyperexponential
from repro.distributions.fitting.em import _merge_duplicate_rates
from tests.em_oracle import oracle_fit


@pytest.fixture
def bimodal_data():
    """A clearly bimodal mixture: 5-minute and 3-hour phases."""
    rng = np.random.default_rng(7)
    true = Hyperexponential([0.6, 0.4], [1.0 / 300.0, 1.0 / 10800.0])
    return true, true.sample(3000, rng)


class TestEMBasics:
    def test_recovers_bimodal_mixture(self, bimodal_data):
        true, data = bimodal_data
        res = fit_hyperexponential(data, k=2)
        fit = res.distribution
        assert fit.k == 2
        # rates sorted ascending; compare against the truth loosely
        assert fit.rates[0] == pytest.approx(1.0 / 10800.0, rel=0.25)
        assert fit.rates[1] == pytest.approx(1.0 / 300.0, rel=0.25)
        assert fit.probs[1] == pytest.approx(0.6, abs=0.1)

    def test_loglik_beats_single_exponential(self, bimodal_data):
        _, data = bimodal_data
        from repro.distributions import fit_exponential

        h2 = fit_hyperexponential(data, k=2).distribution
        e = fit_exponential(data)
        assert h2.log_likelihood(data) > e.log_likelihood(data)

    def test_k1_reduces_to_exponential_mle(self, bimodal_data):
        _, data = bimodal_data
        res = fit_hyperexponential(data, k=1)
        assert res.distribution.k == 1
        assert res.distribution.rates[0] == pytest.approx(1.0 / data.mean(), rel=1e-6)

    def test_more_phases_never_hurt_loglik(self, bimodal_data):
        _, data = bimodal_data
        lls = [
            fit_hyperexponential(data, k=k, n_restarts=3).log_likelihood for k in (1, 2, 3)
        ]
        assert lls[1] >= lls[0] - 1e-6
        assert lls[2] >= lls[1] - 1e-3  # k=3 may only tie numerically

    def test_reported_loglik_matches_distribution(self, bimodal_data):
        _, data = bimodal_data
        res = fit_hyperexponential(data, k=2)
        assert res.log_likelihood == pytest.approx(
            res.distribution.log_likelihood(np.maximum(data, 1e-9)), rel=1e-9
        )

    def test_deterministic_under_fixed_rng(self, bimodal_data):
        _, data = bimodal_data
        a = fit_hyperexponential(data, k=2, rng=np.random.default_rng(1))
        b = fit_hyperexponential(data, k=2, rng=np.random.default_rng(1))
        assert np.allclose(a.distribution.rates, b.distribution.rates)
        assert np.allclose(a.distribution.probs, b.distribution.probs)


class TestCensoring:
    def test_censoring_improves_truth_recovery(self):
        rng = np.random.default_rng(8)
        true = Hyperexponential([0.7, 0.3], [1.0 / 200.0, 1.0 / 5000.0])
        full = true.sample(4000, rng)
        cutoff = 3000.0
        observed = np.minimum(full, cutoff)
        cens = full > cutoff
        naive = fit_hyperexponential(observed, k=2).distribution
        aware = fit_hyperexponential(observed, censored=cens, k=2).distribution
        # slow-phase mean is badly truncated without censoring support
        slow_true = 5000.0
        slow_naive = 1.0 / naive.rates[0]
        slow_aware = 1.0 / aware.rates[0]
        assert abs(slow_aware - slow_true) < abs(slow_naive - slow_true)

    def test_all_censored_rejected(self):
        with pytest.raises(ValueError):
            fit_hyperexponential([1.0, 2.0], censored=[True, True])


class TestEdgeCases:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_hyperexponential([])

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            fit_hyperexponential([1.0, 2.0], k=0)

    def test_tiny_sample(self):
        res = fit_hyperexponential([10.0, 20.0, 5000.0], k=2)
        assert res.distribution.k in (1, 2)  # duplicate merge may collapse
        assert np.isfinite(res.log_likelihood)

    def test_identical_data_collapses_phases(self):
        res = fit_hyperexponential([100.0] * 50, k=3)
        # all phases converge to the same rate and get merged
        assert res.distribution.k == 1
        assert res.distribution.rates[0] == pytest.approx(1.0 / 100.0, rel=1e-6)

    def test_paper_requires_distinct_rates(self, ):
        rng = np.random.default_rng(11)
        data = np.random.default_rng(11).exponential(100.0, size=500)
        res = fit_hyperexponential(data, k=3, rng=rng)
        rates = res.distribution.rates
        assert len(set(np.round(rates, 12))) == len(rates)


class TestMergeDuplicates:
    def test_merge(self):
        p, r = _merge_duplicate_rates(
            np.array([0.3, 0.3, 0.4]), np.array([1.0, 1.0 + 1e-9, 5.0])
        )
        assert len(r) == 2
        assert p[0] == pytest.approx(0.6)

    def test_no_merge_when_distinct(self):
        p, r = _merge_duplicate_rates(np.array([0.5, 0.5]), np.array([1.0, 2.0]))
        assert len(r) == 2


@pytest.mark.parametrize("k", [7, 8, 9])
def test_many_phases_equal_scalar_oracle(k):
    """Fits equal the scalar oracle on both sides of numpy's 8-element
    pairwise-sum block, where a reordered phase sum would round apart."""
    rng = np.random.default_rng(k)
    x = np.where(rng.random(120) < 0.6, rng.exponential(300.0, 120), rng.exponential(10800.0, 120))
    got = fit_hyperexponential(x, k, rng=np.random.default_rng(1))
    want = oracle_fit(x, k, rng=np.random.default_rng(1))
    assert np.array_equal(got.distribution.rates, want.distribution.rates)
    assert np.array_equal(got.distribution.probs, want.distribution.probs)
    assert (got.log_likelihood, got.iterations) == (want.log_likelihood, want.iterations)
