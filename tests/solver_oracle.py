"""Scalar reference solvers, kept as test oracles.

* :func:`minimize_positive_hybrid` -- the scalar grid + Brent hybrid,
  the cold path the solver ran before the vectorised row solver
  (:func:`repro.numerics.optimize.minimize_rows`) replaced it: one
  batched log-grid pass brackets the minimum, Brent's method refines it
  one scalar evaluation at a time, and a symmetric three-point parabola
  polishes the abscissa.  It shares no refinement code with the row
  solver, so agreement between the two is an independent check of both.
* :func:`use_golden_solver` -- the paper's bracketing + Golden Section
  Search on every row, the reference the row solver is benchmarked
  against.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import optimizer
from repro.core.solver_cache import use_solver_cache
from repro.numerics import (
    BatchObjective,
    Bracket,
    GoldenSectionResult,
    minimize_positive_scalar,
)

_CGOLD = 0.3819660112501051  # 2 - phi: the golden section fraction
_ZEPS = 1e-18


def brent_minimize(
    func: Callable[[float], float],
    bracket: Bracket,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
    max_iter: int = 200,
) -> GoldenSectionResult:
    """Refine a bracketing triple with Brent's method.

    Successive parabolic interpolation through the three best points,
    falling back to a golden-section step whenever the parabola is
    uncooperative (the Numerical Recipes ``brent`` safeguards).
    """
    a, b = bracket.a, bracket.c
    x = w = v = bracket.b
    fx = fw = fv = bracket.fb
    d = e = 0.0
    iterations = 0
    for _ in range(max_iter):
        xm = 0.5 * (a + b)
        tol1 = rel_tol * abs(x) + max(abs_tol, _ZEPS)
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return GoldenSectionResult(x=x, fx=fx, iterations=iterations, converged=True)
        use_golden = True
        if abs(e) > tol1:
            # fit a parabola through (v, w, x)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            etemp = e
            e = d
            if not (abs(p) >= abs(0.5 * q * etemp) or p <= q * (a - x) or p >= q * (b - x)):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = math.copysign(tol1, xm - x)
                use_golden = False
        if use_golden:
            e = (a - x) if x >= xm else (b - x)
            d = _CGOLD * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = func(u)
        iterations += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return GoldenSectionResult(x=x, fx=fx, iterations=iterations, converged=False)


def _eval(func_batch: BatchObjective | None, func: Callable[[float], float], xs: list[float]) -> list[float]:
    if func_batch is not None:
        return [float(v) for v in np.asarray(func_batch(np.asarray(xs)), dtype=np.float64).ravel()]
    return [func(x) for x in xs]


def _parabolic_polish(
    func: Callable[[float], float],
    func_batch: BatchObjective | None,
    x: float,
    fx: float,
    *,
    lo: float,
    hi: float,
    h_rel: float = 1e-3,
) -> tuple[float, float]:
    """One symmetric three-point parabola fit through ``x(1 -+ h)``."""
    x0, x2 = x * (1.0 - h_rel), x * (1.0 + h_rel)
    if not (lo <= x0 and x2 <= hi):
        return x, fx
    f0, f2 = _eval(func_batch, func, [x0, x2])
    denom = (f0 - fx) + (f2 - fx)
    if not (math.isfinite(denom) and denom > 0.0):
        return x, fx
    shift = 0.5 * h_rel * x * (f0 - f2) / denom
    if abs(shift) >= h_rel * x:
        return x, fx
    v = x + shift
    fv = func(v)
    if math.isfinite(fv) and fv <= max(f0, f2):
        return v, fv
    return x, fx


def minimize_positive_hybrid(
    func: Callable[[float], float],
    *,
    func_batch: BatchObjective | None = None,
    guess: float,
    lo: float = 1e-6,
    hi: float = 1e9,
    rel_tol: float = 1e-8,
    grid_points: int = 48,
) -> GoldenSectionResult:
    """Grid bracket, Brent refinement, parabolic polish; the golden-section
    path when the grid finds no interior minimum."""
    if not (lo < hi):
        raise ValueError(f"invalid domain: lo={lo} must be < hi={hi}")

    def clamped(x: float) -> float:
        return func(min(max(x, lo), hi))

    log_lo, log_hi = math.log(lo), math.log(hi)
    xs = [math.exp(log_lo + (log_hi - log_lo) * i / (grid_points - 1)) for i in range(grid_points)]
    fs = [f if math.isfinite(f) else math.inf for f in _eval(func_batch, clamped, xs)]
    best = min(range(len(xs)), key=lambda i: fs[i])
    if (
        math.isfinite(fs[best])
        and 0 < best < len(xs) - 1
        and fs[best] <= fs[best - 1]
        and fs[best] <= fs[best + 1]
        and (fs[best] < fs[best - 1] or fs[best] < fs[best + 1])
    ):
        bracket = Bracket(
            a=xs[best - 1], b=xs[best], c=xs[best + 1],
            fa=fs[best - 1], fb=fs[best], fc=fs[best + 1],
        )
        result = brent_minimize(clamped, bracket, rel_tol=rel_tol)
        x, fx = _parabolic_polish(clamped, func_batch, result.x, result.fx, lo=lo, hi=hi)
        return GoldenSectionResult(x=x, fx=fx, iterations=result.iterations, converged=result.converged)
    return minimize_positive_scalar(func, guess=guess, lo=lo, hi=hi, rel_tol=rel_tol, grid_points=grid_points)


def _solve_golden_rows(rows, *, lone):
    return [
        optimizer._solve_scalar(dist, dist.fingerprint(), costs, age, t_max)
        for dist, costs, age, t_max in rows
    ]


@contextmanager
def use_golden_solver() -> Iterator[None]:
    """Solve every row by golden section (the row solver's fallback),
    with the solver cache disabled, inside the block."""
    with pytest.MonkeyPatch.context() as patch, use_solver_cache(None):
        patch.setattr(optimizer, "_solve_rows", _solve_golden_rows)
        yield
