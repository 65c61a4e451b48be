"""Tests for the gang (min-of-machines) availability distribution."""

import warnings

import numpy as np
import pytest

from repro.core import CheckpointCosts, optimize_interval
from repro.distributions import (
    Exponential,
    ProductAvailability,
    Weibull,
)


@pytest.fixture
def gang():
    return ProductAvailability(
        [Exponential(1.0 / 4000.0), Weibull(0.6, 3000.0), Exponential(1.0 / 9000.0)]
    )


class TestConstruction:
    def test_needs_members(self):
        with pytest.raises(ValueError):
            ProductAvailability([])

    def test_type_checked(self):
        with pytest.raises(TypeError):
            ProductAvailability([Exponential(1e-3), "not a distribution"])

    def test_width(self, gang):
        assert gang.width == 3
        assert gang.n_params == 1 + 2 + 1


class TestSurvivalAlgebra:
    def test_sf_is_product(self, gang):
        x = np.array([10.0, 1000.0, 20000.0])
        expected = np.ones(3)
        for m in gang.members:
            expected *= np.asarray(m.sf(x))
        assert np.allclose(np.asarray(gang.sf(x)), expected)

    def test_exponential_members_reduce_to_rate_sum(self):
        gang = ProductAvailability([Exponential(1e-3), Exponential(2e-3)])
        single = Exponential(3e-3)
        x = np.linspace(0, 5000, 40)
        assert np.allclose(np.asarray(gang.cdf(x)), np.asarray(single.cdf(x)))
        assert gang.mean() == pytest.approx(single.mean(), rel=1e-6)

    def test_pdf_integrates_to_cdf(self, gang):
        from repro.numerics import gauss_legendre

        x = 3000.0
        mass = gauss_legendre(
            lambda t: np.asarray(gang.pdf(np.maximum(t, 1e-9))), 1e-9, x, order=80, panels=32
        )
        # the DFR Weibull member's hazard is singular at 0, costing the
        # equal-panel quadrature a few digits
        assert mass == pytest.approx(gang.cdf_one(x), rel=1e-3)

    def test_pdf_zero_where_every_member_survival_vanished(self):
        # each member's sf underflows to 0 at 1e5 s, so its hazard is inf:
        # the density must not form S * sum(h) = 0 * inf there
        gang = ProductAvailability([Weibull(1.5, 100.0).conditional(50.0), Exponential(1e-2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(float(m.sf(1e5)) == 0.0 for m in gang.members)
            assert gang.pdf(1e5) == 0.0
            dens = np.asarray(gang.pdf(np.array([10.0, 1e5, 1e6])))
        assert dens[0] > 0.0
        assert dens[1:].tolist() == [0.0, 0.0]

    def test_min_stochastically_smaller_than_members(self, gang):
        for m in gang.members:
            assert gang.mean() < m.mean()
        for x in (100.0, 2000.0):
            for m in gang.members:
                assert gang.cdf_one(x) >= float(m.cdf(x)) - 1e-12


class TestSampling:
    def test_sample_is_min(self, gang):
        rng = np.random.default_rng(0)
        s = gang.sample(30000, rng)
        assert s.mean() == pytest.approx(gang.mean(), rel=0.05)

    def test_empirical_cdf_matches(self, gang):
        rng = np.random.default_rng(1)
        s = gang.sample(30000, rng)
        x = 1000.0
        assert (s <= x).mean() == pytest.approx(gang.cdf_one(x), abs=0.01)


class TestConditioning:
    def test_conditional_distributes(self, gang):
        age = 1500.0
        cond = gang.conditional(age)
        x = 800.0
        expected = (gang.cdf_one(age + x) - gang.cdf_one(age)) / float(gang.sf(age))
        assert cond.cdf_one(x) == pytest.approx(expected, rel=1e-6)

    def test_at_ages_heterogeneous(self, gang):
        cond = gang.at_ages([100.0, 0.0, 5000.0])
        assert cond.width == 3
        # survival at 0 is 1 regardless of member ages
        assert float(cond.sf(0.0)) == pytest.approx(1.0)

    def test_at_ages_length_checked(self, gang):
        with pytest.raises(ValueError):
            gang.at_ages([1.0])


class TestOptimizerIntegration:
    def test_gang_needs_shorter_intervals(self):
        member = Weibull(0.6, 5000.0)
        solo = optimize_interval(member, CheckpointCosts.symmetric(200.0))
        gang8 = optimize_interval(
            ProductAvailability([member] * 8), CheckpointCosts.symmetric(200.0)
        )
        assert gang8.T_opt < solo.T_opt
        assert gang8.expected_efficiency < solo.expected_efficiency

    def test_wider_gang_lower_efficiency(self):
        member = Exponential(1.0 / 20000.0)
        effs = []
        for w in (1, 4, 16):
            opt = optimize_interval(
                ProductAvailability([member] * w), CheckpointCosts.symmetric(200.0)
            )
            effs.append(opt.expected_efficiency)
        assert effs[0] > effs[1] > effs[2]
