"""Tests for bracketing, Golden Section Search, the row minimiser, and
the scalar Brent hybrid kept as the solver's test oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics import (
    Bracket,
    BracketError,
    bracket_minimum,
    golden_section_minimize,
    minimize_positive_scalar,
    minimize_rows,
)
from repro.obs.metrics import use as use_metrics
from tests.solver_oracle import brent_minimize, minimize_positive_hybrid


class TestBracket:
    def test_valid_bracket(self):
        b = Bracket(a=0.0, b=1.0, c=2.0, fa=5.0, fb=1.0, fc=4.0)
        assert b.a < b.b < b.c

    def test_unordered_abscissae_rejected(self):
        with pytest.raises(ValueError):
            Bracket(a=2.0, b=1.0, c=3.0, fa=1.0, fb=0.0, fc=1.0)

    def test_no_minimum_rejected(self):
        with pytest.raises(ValueError):
            Bracket(a=0.0, b=1.0, c=2.0, fa=0.0, fb=1.0, fc=2.0)


class TestBracketMinimum:
    def test_parabola(self):
        b = bracket_minimum(lambda x: (x - 3.0) ** 2, 0.0, 1.0)
        assert b.a < 3.0 < b.c
        assert b.fb <= b.fa and b.fb <= b.fc

    def test_downhill_start_reversed(self):
        # starting points on the far side of the minimum
        b = bracket_minimum(lambda x: (x + 5.0) ** 2, 1.0, 0.5)
        assert b.a < -5.0 < b.c

    def test_monotone_function_raises(self):
        with pytest.raises(BracketError):
            bracket_minimum(lambda x: x, 0.0, 1.0, max_iter=30)

    def test_quartic(self):
        b = bracket_minimum(lambda x: x**4 - 2 * x**2, 2.0, 2.5)
        # minima at +-1; from the right we should bracket +1 or -1
        assert b.fb <= min(b.fa, b.fc)


class TestGoldenSection:
    def test_parabola_minimum_location(self):
        def f(x):
            return (x - 1.234) ** 2 + 5.0

        b = bracket_minimum(f, 0.0, 0.5)
        res = golden_section_minimize(f, b, rel_tol=1e-10)
        assert res.converged
        assert res.x == pytest.approx(1.234, abs=1e-6)
        assert res.fx == pytest.approx(5.0, abs=1e-10)

    def test_asymmetric_function(self):
        def f(x):
            return math.exp(x) + math.exp(-2.0 * x)

        # minimum at x = ln(2)/3
        b = bracket_minimum(f, -1.0, 0.0)
        res = golden_section_minimize(f, b)
        assert res.x == pytest.approx(math.log(2.0) / 3.0, abs=1e-6)

    def test_iteration_cap_reports_nonconverged(self):
        def f(x):
            return (x - 2.0) ** 2

        b = bracket_minimum(f, 0.0, 0.5)
        res = golden_section_minimize(f, b, rel_tol=1e-15, abs_tol=0.0, max_iter=3)
        assert not res.converged
        # still returns the best point seen
        assert abs(res.x - 2.0) < abs(b.a - 2.0) + abs(b.c - 2.0)


class TestMinimizePositiveScalar:
    def test_interior_minimum(self):
        res = minimize_positive_scalar(lambda x: (x - 7.0) ** 2, guess=1.0)
        assert res.x == pytest.approx(7.0, rel=1e-5)

    def test_checkpoint_like_objective(self):
        # Gamma/T shape: (C + T)/T * e^(lambda T) style coercive objective
        C, lam = 100.0, 1e-4
        def f(T):
            return (C + T) / T * math.exp(lam * T)

        res = minimize_positive_scalar(f, guess=500.0)
        # analytic optimum solves T^2 * lam * (C+T) = C*T => ~ sqrt(C/lam)
        brute = min((f(t), t) for t in [i * 5.0 for i in range(1, 40000)])
        assert res.fx <= brute[0] * (1 + 1e-6)

    def test_monotone_decreasing_falls_back_to_grid(self):
        # minimum pinned at the hi boundary: grid fallback must handle it
        res = minimize_positive_scalar(lambda x: 1.0 / x, guess=1.0, lo=0.1, hi=100.0)
        assert res.x == pytest.approx(100.0, rel=0.05)

    def test_bad_domain_rejected(self):
        with pytest.raises(ValueError):
            minimize_positive_scalar(lambda x: x, guess=1.0, lo=5.0, hi=1.0)

    def test_plateau_returns_finite(self):
        res = minimize_positive_scalar(lambda x: 1.0, guess=1.0, lo=0.5, hi=10.0)
        assert 0.5 <= res.x <= 10.0
        assert res.fx == 1.0


class _DomainError(Exception):
    """Raised by objectives evaluated outside their domain."""


class TestClampedRefinement:
    """Regression: golden-section refinement must use the same clamped
    objective the bracketing ran on, never the raw function outside
    ``(lo, hi)``."""

    def test_refinement_never_leaves_domain(self):
        lo, hi = 1.0, 10.0

        def f(x):
            if x < lo - 1e-12 or x > hi + 1e-12:
                raise _DomainError(x)
            return (x - 9.9) ** 2

        # pre-fix: bracketing (clamped) walks past hi, then refinement
        # (raw) evaluates outside the domain and _DomainError escapes
        res = minimize_positive_scalar(f, guess=1.2, lo=lo, hi=hi)
        assert lo <= res.x <= hi
        assert res.x == pytest.approx(9.9, rel=1e-3)

    def test_returned_x_clamped_into_domain(self):
        lo, hi = 0.5, 50.0
        calls = []

        def f(x):
            calls.append(x)
            return (x - 49.9) ** 2

        res = minimize_positive_scalar(f, guess=1.0, lo=lo, hi=hi)
        assert lo <= res.x <= hi
        # every raw evaluation stayed inside the clamped range
        assert all(lo - 1e-9 <= x <= hi + 1e-9 for x in calls)

    def test_refined_value_consistent_with_bracket(self):
        # the clamped objective's landscape is what the bracket saw, so
        # the refined minimum can never exceed the bracket's centre value
        lo, hi = 1.0, 1000.0

        def f(x):
            return (x - 700.0) ** 2 + 3.0

        res = minimize_positive_scalar(f, guess=2.0, lo=lo, hi=hi)
        assert res.fx == pytest.approx(3.0, abs=1e-6)
        assert res.x == pytest.approx(700.0, rel=1e-6)


class TestBrentMinimize:
    def _bracket(self, func, a, b):
        return bracket_minimum(func, a, b)

    def test_quadratic(self):
        def f(x):
            return (x - 3.0) ** 2 + 1.0

        res = brent_minimize(f, self._bracket(f, 0.0, 1.0))
        assert res.converged
        assert res.x == pytest.approx(3.0, abs=1e-6)
        assert res.fx == pytest.approx(1.0, abs=1e-10)

    def test_fewer_evaluations_than_golden(self):
        def f(x):
            return (math.log(x) - 2.0) ** 2 + 0.5

        bracket = self._bracket(f, 1.0, 2.0)
        golden = golden_section_minimize(f, bracket, rel_tol=1e-8)
        brent = brent_minimize(f, bracket, rel_tol=1e-8)
        assert brent.x == pytest.approx(golden.x, rel=1e-6)
        assert brent.iterations < golden.iterations / 2

    def test_nonsmooth_still_converges(self):
        def f(x):
            return abs(x - 5.0) + 0.1

        res = brent_minimize(f, self._bracket(f, 0.5, 1.0))
        assert res.converged
        assert res.x == pytest.approx(5.0, abs=1e-4)

    def test_iteration_cap_reported(self):
        def f(x):
            return (x - 2.0) ** 2

        res = brent_minimize(f, self._bracket(f, 0.1, 0.2), max_iter=2)
        assert not res.converged


class TestMinimizePositiveHybrid:
    F_MIN = math.exp(2.0)

    @staticmethod
    def _f(x):
        return (math.log(x) - 2.0) ** 2 + 0.5

    @staticmethod
    def _f_batch(xs):
        import numpy as np

        return (np.log(xs) - 2.0) ** 2 + 0.5

    def test_cold_path_accurate(self):
        res = minimize_positive_hybrid(
            self._f, func_batch=self._f_batch, guess=1.0, lo=1e-3, hi=1e5
        )
        assert res.converged
        # the parabolic polish trades a small systematic bias (identical
        # for every entry path, so equivalence is unaffected) for
        # repeatability; absolute accuracy is O(h^2) ~ 1e-6 relative
        assert res.x == pytest.approx(self.F_MIN, rel=1e-5)

    def test_scalar_fallback_matches_batched(self):
        a = minimize_positive_hybrid(self._f, func_batch=self._f_batch, guess=1.0, lo=1e-3, hi=1e5)
        b = minimize_positive_hybrid(self._f, guess=1.0, lo=1e-3, hi=1e5)
        assert a.x == pytest.approx(b.x, rel=1e-9)

    def test_monotone_objective_falls_back_to_scalar(self):
        res = minimize_positive_hybrid(lambda x: x, guess=1.0, lo=1e-3, hi=1e3)
        assert res.x == pytest.approx(1e-3, rel=1e-6)

    def test_invalid_domain_rejected(self):
        with pytest.raises(ValueError):
            minimize_positive_hybrid(self._f, guess=1.0, lo=10.0, hi=1.0)


class TestMinimizeRows:
    """The vectorised row minimiser behind ``method="hybrid"``."""

    F_MIN = math.exp(2.0)

    @staticmethod
    def _f(X):
        return (np.log(X) - 2.0) ** 2 + 0.5

    def test_accurate(self):
        res = minimize_rows(self._f, np.array([1e-3]), np.array([1e5]))
        assert bool(res.bracketed[0])
        assert res.x[0] == pytest.approx(self.F_MIN, rel=1e-6)
        assert res.fx[0] == pytest.approx(0.5, abs=1e-12)

    def test_agrees_with_brent_oracle(self):
        def scaled(X):
            return (np.log(X / 37.0) - 1.5) ** 2 + 0.25 * np.log(X) ** 2 / 100.0

        res = minimize_rows(scaled, np.array([1e-3]), np.array([1e7]))
        oracle = minimize_positive_hybrid(
            lambda x: float(scaled(np.array([x]))[0]), func_batch=scaled, guess=1.0, lo=1e-3, hi=1e7
        )
        assert res.x[0] == pytest.approx(oracle.x, rel=1e-9)

    def test_monotone_row_is_not_bracketed(self):
        res = minimize_rows(lambda X: X.copy(), np.array([1e-3, 1e-3]), np.array([1e3, 1e3]))
        assert not res.bracketed.any()

    def test_six_passes_whatever_the_rows(self):
        for n in (1, 7):
            with use_metrics() as reg:
                minimize_rows(self._f, np.full(n, 1e-3), np.full(n, 1e5))
            counters = reg.as_dict()["counters"]
            assert counters["numerics.hybrid.passes"] == 6.0
            assert counters["numerics.hybrid.rows"] == 6.0 * n

    @pytest.mark.parametrize("lo,hi", [(10.0, 1.0), (0.0, 1.0), (-1.0, 5.0)])
    def test_invalid_domain_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            minimize_rows(self._f, np.array([lo]), np.array([hi]))

    @given(
        st.lists(st.floats(min_value=0.5, max_value=8.0), min_size=1, max_size=6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_are_independent(self, centres, rnd):
        """Reordering or padding the rows leaves each row's result bitwise."""

        def rows_f(c):
            def f(X):
                return (np.log(X) - c[:, None]) ** 2 + 0.5 + 1e-3 * np.log(X) ** 3
            return f

        c = np.array(centres)
        lo, hi = np.full(c.size, 1e-3), np.full(c.size, 1e6)
        alone = [minimize_rows(rows_f(c[i : i + 1]), lo[:1], hi[:1]) for i in range(c.size)]
        order = list(range(c.size))
        rnd.shuffle(order)
        padded = np.concatenate([c[order], [3.0, 0.1]])
        batch = minimize_rows(rows_f(padded), np.full(padded.size, 1e-3), np.full(padded.size, 1e6))
        for pos, i in enumerate(order):
            assert batch.x[pos] == alone[i].x[0]
            assert batch.fx[pos] == alone[i].fx[0]
