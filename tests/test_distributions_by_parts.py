"""The generic partial expectation, integrated by parts, against a
per-point ``t f(t)`` oracle.

``AvailabilityDistribution.partial_expectation`` evaluates
``PE(x) = int_0^x S(t) dt - x S(x)`` for every abscissa of a call in one
running survival-only quadrature.  The oracle below is the formulation
it replaced: a separate Gauss-Legendre quadrature of ``t f(t)`` per
abscissa (with doubling panels, so it stays accurate far past the
distribution's time scale).  The gang (``ProductAvailability``) is the
family that reaches the generic path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CheckpointCosts, optimize_interval
from repro.distributions import Exponential, Hyperexponential, ProductAvailability, Weibull
from repro.numerics import gauss_legendre_nodes

EPS = np.finfo(np.float64).eps


def pe_oracle(dist, x):
    """``int_0^x t f(t) dt`` by a 64-point rule on each panel
    ``[x 2^-(k+1), x 2^-k]``, k = 0..59, plus ``[0, x 2^-60]``."""
    if x <= 0.0:
        return 0.0
    nodes, weights = gauss_legendre_nodes(64)
    edges = np.concatenate([[0.0], x * 2.0 ** np.arange(-60.0, 1.0)])
    half = 0.5 * np.diff(edges)
    t = (edges[:-1] + half)[:, None] + half[:, None] * nodes[None, :]
    dens = np.asarray(dist._pdf(t.ravel())).reshape(t.shape)
    return float(np.sum(half * ((t * dens) @ weights)))


def assert_matches_oracle(gang, x, pe):
    # by parts subtracts two terms of size ~x, so below a few ulps of x
    # (PE ~ h(0) x^2 / 2 for x far under the time scale) it cannot resolve
    # PE; the bound is 1e-9 relative above that floor
    assert pe == pytest.approx(pe_oracle(gang, x), rel=1e-9, abs=64 * EPS * x)


class OracleGang(ProductAvailability):
    """A gang whose partial expectation is the per-point oracle."""

    def partial_expectation(self, x):
        arr = np.asarray(x, dtype=np.float64)
        out = np.vectorize(lambda v: pe_oracle(self, v) if math.isfinite(v) else self.mean())(arr)
        return float(out) if arr.ndim == 0 else out


scales = st.floats(min_value=2.0, max_value=5.0).map(lambda e: 10.0**e)
age_fractions = st.floats(min_value=0.01, max_value=3.0)
exponentials = st.builds(lambda mean: Exponential(1.0 / mean), scales)
weibulls = st.builds(
    lambda shape, scale, u: Weibull(shape, scale).conditional(u * scale),
    st.floats(min_value=0.4, max_value=3.0),
    scales,
    age_fractions,
)
abscissae = st.lists(
    st.floats(min_value=-3.0, max_value=7.0).map(lambda e: 10.0**e), min_size=1, max_size=12
)


def _hyper(weights, means, u):
    k = min(len(weights), len(means))
    w = np.asarray(weights[:k]) / sum(weights[:k])
    return Hyperexponential(w, 1.0 / np.asarray(means[:k])).conditional(u * min(means[:k]))


hyperexponentials = st.builds(
    _hyper,
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=3),
    st.lists(scales, min_size=2, max_size=3),
    age_fractions,
)
gangs = st.lists(st.one_of(exponentials, weibulls, hyperexponentials), min_size=1, max_size=6).map(
    ProductAvailability
)


class TestByPartsAgainstOracle:
    @given(gangs, abscissae, st.data())
    @settings(max_examples=60, deadline=None)
    def test_unsorted_duplicate_and_special_abscissae(self, gang, xs, data):
        # duplicates, 0, a negative and +inf ride along, in shuffled order
        picks = data.draw(st.lists(st.sampled_from(xs), max_size=4))
        raw = np.asarray([*xs, *picks, 0.0, -5.0, math.inf])
        raw = raw[data.draw(st.permutations(range(raw.size)))]
        pe = np.asarray(gang.partial_expectation(raw))
        assert pe.shape == raw.shape
        for x, value in zip(raw, pe):
            if x <= 0.0:
                assert value == 0.0
            elif x == math.inf:
                assert value == gang.mean()
            else:
                assert_matches_oracle(gang, x, value)

    @given(gangs, st.floats(min_value=-3.0, max_value=7.0).map(lambda e: 10.0**e))
    @settings(max_examples=40, deadline=None)
    def test_scalar_in_scalar_out(self, gang, x):
        pe = gang.partial_expectation(x)
        assert isinstance(pe, float)
        assert_matches_oracle(gang, x, pe)
        assert gang.partial_expectation_one(x) == pe

    @given(gangs, st.lists(st.floats(min_value=-3.0, max_value=7.0), min_size=3, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_two_dimensional_input_keeps_shape(self, gang, exponents):
        grid = np.array([[10.0 ** e for e in exponents], [0.0, math.inf, 10.0 ** exponents[0]]])
        pe = np.asarray(gang.partial_expectation(grid))
        assert pe.shape == grid.shape
        flat = np.asarray(gang.partial_expectation(grid.ravel()))
        assert pe.ravel().tolist() == flat.tolist()
        assert pe[1, 0] == 0.0
        assert pe[1, 1] == gang.mean()

    def test_nan_propagates(self):
        gang = ProductAvailability([Exponential(1e-3), Weibull(1.5, 800.0).conditional(200.0)])
        pe = np.asarray(gang.partial_expectation(np.array([np.nan, 100.0])))
        assert math.isnan(pe[0])
        assert pe[1] > 0.0


GANGS = {
    "mixed": [Exponential(1.0 / 4000.0), Weibull(0.6, 3000.0).conditional(400.0), Exponential(1.0 / 9000.0)],
    "weibull-x4": [Weibull(1.6, 5000.0).conditional(a) for a in (100.0, 900.0, 2500.0, 7000.0)],
    "hyper-x6": [
        Hyperexponential([0.35, 0.65], [1.0 / 300.0, 1.0 / 20000.0]).conditional(a)
        for a in (0.0, 50.0, 400.0, 1500.0, 6000.0, 30000.0)
    ],
}


@pytest.mark.parametrize("name", sorted(GANGS))
@pytest.mark.parametrize("cost", [30.0, 300.0])
def test_gang_optimum_matches_oracle_path(name, cost):
    members = GANGS[name]
    costs = CheckpointCosts.symmetric(cost)
    fast = optimize_interval(ProductAvailability(members), costs, age=0.0)
    slow = optimize_interval(OracleGang(members), costs, age=0.0)
    assert fast.T_opt == pytest.approx(slow.T_opt, rel=1e-9)
    assert fast.expected_efficiency == pytest.approx(slow.expected_efficiency, rel=1e-9)
