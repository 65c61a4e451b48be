"""Tests for adaptive Simpson and Gauss-Legendre quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics import QuadratureError, adaptive_simpson, gauss_legendre, gauss_legendre_nodes


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        # Simpson is exact for cubics even without refinement
        val = adaptive_simpson(lambda x: x**3 - 2 * x, 0.0, 2.0)
        assert val == pytest.approx(4.0 - 4.0, abs=1e-12)

    def test_exponential(self):
        val = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-12)
        assert val == pytest.approx(math.e - 1.0, abs=1e-10)

    def test_oscillatory(self):
        val = adaptive_simpson(lambda x: math.sin(10.0 * x), 0.0, math.pi, tol=1e-11)
        assert val == pytest.approx((1.0 - math.cos(10.0 * math.pi)) / 10.0, abs=1e-8)

    def test_zero_width(self):
        assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0

    def test_reversed_limits_negate(self):
        a = adaptive_simpson(math.exp, 0.0, 1.0)
        b = adaptive_simpson(math.exp, 1.0, 0.0)
        assert a == pytest.approx(-b, rel=1e-12)

    def test_singularity_hits_depth_limit(self):
        with pytest.raises(QuadratureError):
            adaptive_simpson(lambda x: 1.0 / x if x > 0 else 1e308, 0.0, 1.0, tol=1e-14, max_depth=8)


class TestGaussLegendre:
    def test_nodes_cached_and_correct(self):
        nodes, weights = gauss_legendre_nodes(5)
        assert weights.sum() == pytest.approx(2.0, abs=1e-12)
        assert np.all(np.diff(nodes) > 0)
        again, _ = gauss_legendre_nodes(5)
        assert again is nodes  # lru_cache returns the same object

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            gauss_legendre_nodes(0)

    def test_polynomial_exact(self):
        # order-n GL integrates degree 2n-1 exactly
        val = gauss_legendre(lambda x: x**7 + x**2, -1.0, 2.0, order=4, panels=1)
        exact = (2.0**8 - 1.0) / 8.0 + (2.0**3 + 1.0) / 3.0
        assert val == pytest.approx(exact, rel=1e-12)

    def test_weibull_density_mass(self):
        # integral of a (smooth, shape > 1) Weibull pdf over a long range ~ 1
        a, b = 1.5, 100.0

        def pdf(x):
            z = np.maximum(x, 1e-12) / b
            return (a / b) * z ** (a - 1.0) * np.exp(-(z**a))

        val = gauss_legendre(pdf, 0.0, 5000.0, order=60, panels=20)
        assert val == pytest.approx(1.0, abs=1e-5)

    def test_integrable_singularity_degrades_gracefully(self):
        # shape < 1 puts an x^(a-1) singularity at 0: equal-width panels
        # lose accuracy but remain within a percent -- which is why the
        # paper families carry closed-form partial expectations instead
        a, b = 0.7, 100.0

        def pdf(x):
            z = np.maximum(x, 1e-12) / b
            return (a / b) * z ** (a - 1.0) * np.exp(-(z**a))

        val = gauss_legendre(pdf, 1e-9, 5000.0, order=60, panels=20)
        assert val == pytest.approx(1.0, abs=2e-2)

    def test_zero_width(self):
        assert gauss_legendre(np.exp, 2.0, 2.0) == 0.0

    def test_reversed_limits_negate(self):
        a = gauss_legendre(np.exp, 0.0, 1.0)
        b = gauss_legendre(np.exp, 1.0, 0.0)
        assert a == pytest.approx(-b, rel=1e-12)

    def test_matches_simpson(self):
        def f_arr(x):
            return np.sin(x) * np.exp(-0.1 * x)

        def f_sca(x):
            return math.sin(x) * math.exp(-0.1 * x)

        gl = gauss_legendre(f_arr, 0.0, 10.0, order=40, panels=4)
        simp = adaptive_simpson(f_sca, 0.0, 10.0, tol=1e-12)
        assert gl == pytest.approx(simp, abs=1e-9)


def _gauss_legendre_reference(func, a, b, order, panels):
    """The scalar-limit composite rule as first written (the bitwise oracle)."""
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    nodes, weights = gauss_legendre_nodes(order)
    edges = np.linspace(a, b, panels + 1)
    lows = edges[:-1]
    half_widths = 0.5 * (edges[1:] - lows)
    mids = lows + half_widths
    xs = mids[:, None] + half_widths[:, None] * nodes[None, :]
    values = func(xs.ravel()).reshape(xs.shape)
    return sign * float(np.sum(half_widths * (values @ weights)))


def _smooth(t):
    # a 40-point rule integrates this to round-off on any panel up to ~60 wide
    return np.exp(-t / 20.0) + 1e-3 * t**2 + np.sin(t / 9.0)


class TestGaussLegendreRunningIntegrals:
    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_limit_scalar_calls(self, a, offsets, panels):
        limits = a + np.sort(np.asarray(offsets))
        running = gauss_legendre(_smooth, a, limits, panels=panels)
        assert running.shape == limits.shape
        for b, value in zip(limits, running):
            expected = gauss_legendre(_smooth, a, float(b), panels=panels)
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(
        st.floats(min_value=-1e4, max_value=1e4),
        st.floats(min_value=-1e4, max_value=1e4),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=80, deadline=None)
    def test_scalar_limit_bitwise_unchanged(self, a, b, order, panels):
        func = lambda t: np.exp(-np.abs(t) / 3e3) * np.cos(t / 700.0)  # noqa: E731
        got = gauss_legendre(func, a, b, order=order, panels=panels)
        assert isinstance(got, float)
        assert got == _gauss_legendre_reference(func, a, b, order, panels)

    def test_single_integrand_call(self):
        calls = []

        def func(t):
            calls.append(t.size)
            return np.ones_like(t)

        running = gauss_legendre(func, 0.0, np.array([1.0, 2.0, 2.0, 5.0]), order=8, panels=3)
        assert running == pytest.approx([1.0, 2.0, 2.0, 5.0], rel=1e-14)
        # three panels on [0, 1], then one per later gap (the empty one too)
        assert calls == [8 * (3 + 3)]

    def test_empty_limits(self):
        assert gauss_legendre(np.exp, 0.0, np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize(
        "limits", [np.array([2.0, 1.0]), np.array([-1.0, 1.0]), np.ones((2, 2))]
    )
    def test_rejects_unsorted_low_or_2d_limits(self, limits):
        with pytest.raises(ValueError):
            gauss_legendre(np.exp, 0.0, limits)
