"""Scalar and row-batched minimisation: bracketing, Golden Section Search
and the vectorised row minimiser.

The paper minimises the expected overhead ratio ``Gamma(T)/T`` with the
Golden Section Search "as implemented in Numerical Recipes".  This module
provides a faithful, dependency-free implementation plus the fast path
the schedule solver actually runs:

* :func:`bracket_minimum` -- the ``mnbrak`` procedure: starting from two
  abscissae it walks downhill (with parabolic extrapolation and a golden
  ratio growth limit) until it finds a triple ``a < b < c`` with
  ``f(b) <= f(a)`` and ``f(b) <= f(c)``.
* :func:`golden_section_minimize` -- classic golden-section refinement of
  a bracketing triple down to a requested relative tolerance.
* :func:`minimize_positive_scalar` -- the reference entry point:
  bracketing seeded from a caller-supplied initial guess, golden-section
  refinement, and a coarse grid scan fallback for awkward shapes.
* :func:`minimize_rows` -- the fast path: many independent objectives
  minimised together on ``(rows x abscissae)`` arrays (a log grid, two
  zoom passes inside the best grid cell, a parabolic polish), six
  vectorised passes whatever the number of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable

import numpy as np
from numpy.typing import NDArray

from repro.obs.metrics import MetricsRegistry, active as _metrics

#: the array type batched objectives traffic in (matches
#: ``repro.distributions.base.FloatArray`` without importing it: the
#: distribution layer already depends on :mod:`repro.numerics`)
FloatArray = NDArray[np.float64]

__all__ = [
    "Bracket",
    "BracketError",
    "GoldenSectionResult",
    "BatchObjective",
    "RowMinima",
    "bracket_minimum",
    "golden_section_minimize",
    "minimize_positive_scalar",
    "minimize_rows",
]

#: a vectorised objective: one call evaluates a whole array of abscissae
#: (for :func:`minimize_rows`, a ``(rows, n)`` array, row by row)
BatchObjective = Callable[[FloatArray], FloatArray]

#: golden ratio section constants
_GOLD = 1.618033988749895
_CGOLD = 0.3819660112501051  # 2 - phi: the golden section fraction
_TINY = 1e-21
_GLIMIT = 100.0


class BracketError(RuntimeError):
    """Raised when a bracketing triple around a minimum cannot be found."""


@dataclass(frozen=True)
class Bracket:
    """A bracketing triple ``a < b < c`` with ``f(b) <= min(f(a), f(c))``."""

    a: float
    b: float
    c: float
    fa: float
    fb: float
    fc: float

    def __post_init__(self) -> None:
        if not (self.a < self.b < self.c):
            raise ValueError(f"bracket abscissae must be ordered: {self}")
        if self.fb > self.fa or self.fb > self.fc:
            raise ValueError(f"bracket does not contain a minimum: {self}")


@dataclass(frozen=True)
class GoldenSectionResult:
    """Result of a golden-section minimisation."""

    x: float
    fx: float
    iterations: int
    converged: bool


def bracket_minimum(
    func: Callable[[float], float],
    a: float,
    b: float,
    *,
    grow_limit: float = _GLIMIT,
    max_iter: int = 200,
) -> Bracket:
    """Bracket a minimum of ``func`` starting from abscissae ``a`` and ``b``.

    This follows the ``mnbrak`` routine of Numerical Recipes: the points
    are ordered downhill, then the search steps by golden-ratio
    magnification (with parabolic extrapolation capped at ``grow_limit``
    times the current step) until the function value rises again.

    Raises
    ------
    BracketError
        If no rise in the function is observed within ``max_iter`` steps
        (e.g. the function decreases monotonically over the reachable
        range).
    """
    fa = func(a)
    fb = func(b)
    if fb > fa:  # ensure we walk downhill from a to b
        a, b = b, a
        fa, fb = fb, fa
    c = b + _GOLD * (b - a)
    fc = func(c)
    iterations = 0
    reg = _metrics()
    if reg is not None:
        reg.inc("numerics.bracket.calls")
    while fb >= fc:
        iterations += 1
        if iterations > max_iter:
            if reg is not None:
                reg.inc("numerics.bracket.expansions", iterations)
                reg.inc("numerics.bracket.failures")
            raise BracketError(
                f"could not bracket a minimum within {max_iter} expansions "
                f"(last triple: ({a}, {b}, {c}))"
            )
        # Parabolic extrapolation from a, b, c.
        r = (b - a) * (fb - fc)
        q = (b - c) * (fb - fa)
        denom = 2.0 * math.copysign(max(abs(q - r), _TINY), q - r)
        u = b - ((b - c) * q - (b - a) * r) / denom
        ulim = b + grow_limit * (c - b)
        if (b - u) * (u - c) > 0.0:  # u between b and c
            fu = func(u)
            if fu < fc:  # minimum between b and c
                a, b = b, u
                fa, fb = fb, fu
                break
            if fu > fb:  # minimum between a and u
                c, fc = u, fu
                break
            u = c + _GOLD * (c - b)  # parabolic fit useless; golden step
            fu = func(u)
        elif (c - u) * (u - ulim) > 0.0:  # u between c and the limit
            fu = func(u)
            if fu < fc:
                b, c, u = c, u, u + _GOLD * (u - c)
                fb, fc, fu = fc, fu, func(u)
        elif (u - ulim) * (ulim - c) >= 0.0:  # clamp to the limit
            u = ulim
            fu = func(u)
        else:  # reject parabolic u; golden step
            u = c + _GOLD * (c - b)
            fu = func(u)
        a, b, c = b, c, u
        fa, fb, fc = fb, fc, fu
    if a > c:
        a, c = c, a
        fa, fc = fc, fa
    if reg is not None:
        reg.inc("numerics.bracket.expansions", iterations)
    return Bracket(a=a, b=b, c=c, fa=fa, fb=fb, fc=fc)


def golden_section_minimize(
    func: Callable[[float], float],
    bracket: Bracket,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
    max_iter: int = 500,
) -> GoldenSectionResult:
    """Refine a bracketing triple with Golden Section Search.

    Parameters
    ----------
    func:
        The scalar objective.
    bracket:
        A :class:`Bracket` as produced by :func:`bracket_minimum`.
    rel_tol, abs_tol:
        Convergence when the bracket width drops below
        ``rel_tol * (|x1| + |x2|) / 2 + abs_tol``.
    max_iter:
        Hard cap on function evaluations.
    """
    x0, x3 = bracket.a, bracket.c
    if abs(bracket.c - bracket.b) > abs(bracket.b - bracket.a):
        x1 = bracket.b
        x2 = bracket.b + _CGOLD * (bracket.c - bracket.b)
        f1 = bracket.fb
        f2 = func(x2)
    else:
        x2 = bracket.b
        x1 = bracket.b - _CGOLD * (bracket.b - bracket.a)
        f2 = bracket.fb
        f1 = func(x1)
    iterations = 0
    reg = _metrics()
    if reg is not None:
        reg.inc("numerics.golden.calls")
    while abs(x3 - x0) > rel_tol * (abs(x1) + abs(x2)) / 2.0 + abs_tol:
        iterations += 1
        if iterations > max_iter:
            x, fx = (x1, f1) if f1 < f2 else (x2, f2)
            if reg is not None:
                reg.inc("numerics.golden.iterations", iterations)
            return GoldenSectionResult(x=x, fx=fx, iterations=iterations, converged=False)
        if f2 < f1:
            x0 = x1
            x1, x2 = x2, x2 + _CGOLD * (x3 - x2)
            f1, f2 = f2, func(x2)
        else:
            x3 = x2
            x2, x1 = x1, x1 - _CGOLD * (x1 - x0)
            f2, f1 = f1, func(x1)
    if reg is not None:
        reg.inc("numerics.golden.iterations", iterations)
    if f1 < f2:
        return GoldenSectionResult(x=x1, fx=f1, iterations=iterations, converged=True)
    return GoldenSectionResult(x=x2, fx=f2, iterations=iterations, converged=True)


def minimize_positive_scalar(
    func: Callable[[float], float],
    *,
    guess: float,
    lo: float = 1e-6,
    hi: float = 1e9,
    rel_tol: float = 1e-8,
    grid_points: int = 64,
) -> GoldenSectionResult:
    """Minimise ``func`` over the open interval ``(lo, hi)``.

    The strategy is the one used throughout the checkpoint optimizer:

    1. try to bracket a minimum around ``guess`` with
       :func:`bracket_minimum` and refine it with golden section;
    2. if bracketing fails (monotone objective, plateau, minimum pinned
       at a boundary), fall back to a log-spaced grid scan of
       ``grid_points`` abscissae followed by golden-section refinement of
       the best grid cell.

    This makes the optimizer robust to the awkward shapes ``Gamma(T)/T``
    takes for extreme parameters (e.g. very heavy tails pushing the
    optimal interval toward the upper bound).
    """
    if not (lo < hi):
        raise ValueError(f"invalid domain: lo={lo} must be < hi={hi}")
    guess = min(max(guess, lo * 1.01), hi * 0.99)
    # bracketing may probe outside (lo, hi); the *same* clamped objective
    # must drive the golden-section refinement, otherwise refinement can
    # evaluate the raw function outside its domain with values
    # inconsistent with the bracket's (the bracket was built on the
    # clamped landscape)
    clamped = _Clamped(func, lo, hi)
    try:
        second = min(guess * 1.5 + 1e-9, hi * 0.999)
        if second <= guess:
            second = (guess + hi) / 2.0
        bracket = bracket_minimum(clamped, guess, second)
        result = golden_section_minimize(clamped, bracket, rel_tol=rel_tol)
        x = min(max(result.x, lo), hi)
        # exact comparison is correct: min/max return result.x unchanged
        # whenever it already lies inside [lo, hi]
        if x != result.x:  # reprolint: ignore[RL002]
            # abscissa strayed into the clamped plateau: its objective
            # value is by construction func(clamp(x)), so only x moves
            result = GoldenSectionResult(
                x=x, fx=result.fx, iterations=result.iterations, converged=result.converged
            )
        return result
    except (BracketError, ValueError, OverflowError):
        pass
    reg = _metrics()
    if reg is not None:
        reg.inc("numerics.grid_fallbacks")
    return _grid_then_golden(func, lo=lo, hi=hi, rel_tol=rel_tol, grid_points=grid_points)


class _Clamped:
    """Clamp the argument of ``func`` into ``[lo, hi]``.

    Bracketing may probe outside the feasible domain; clamping keeps the
    objective well defined there while preserving the interior landscape.
    """

    __slots__ = ("func", "lo", "hi")

    def __init__(self, func: Callable[[float], float], lo: float, hi: float) -> None:
        self.func = func
        self.lo = lo
        self.hi = hi

    def __call__(self, x: float) -> float:
        return self.func(min(max(x, self.lo), self.hi))


def _grid_then_golden(
    func: Callable[[float], float],
    *,
    lo: float,
    hi: float,
    rel_tol: float,
    grid_points: int,
) -> GoldenSectionResult:
    """Log-spaced grid scan followed by golden-section refinement."""
    log_lo, log_hi = math.log(lo), math.log(hi)
    xs = [math.exp(log_lo + (log_hi - log_lo) * i / (grid_points - 1)) for i in range(grid_points)]
    fs = [func(x) for x in xs]
    best = min(range(len(xs)), key=lambda i: fs[i] if math.isfinite(fs[i]) else math.inf)
    if not math.isfinite(fs[best]):
        raise BracketError("objective is non-finite over the entire search grid")
    if 0 < best < len(xs) - 1 and fs[best] <= fs[best - 1] and fs[best] <= fs[best + 1]:
        # A strict interior bracket exists only if a neighbour is strictly
        # larger; on flat plateaus just return the grid point.
        if fs[best] < fs[best - 1] or fs[best] < fs[best + 1]:
            bracket = Bracket(
                a=xs[best - 1],
                b=xs[best],
                c=xs[best + 1],
                fa=fs[best - 1],
                fb=fs[best],
                fc=fs[best + 1],
            )
            return golden_section_minimize(func, bracket, rel_tol=rel_tol)
    return GoldenSectionResult(x=xs[best], fx=fs[best], iterations=grid_points, converged=True)




# ----------------------------------------------------------------------
# the vectorised row minimiser (the schedule solver's fast path)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RowMinima:
    """Per-row outcome of :func:`minimize_rows`.

    ``bracketed[i]`` is False when row ``i``'s grid found no interior
    minimum (monotone objective, edge plateau); its ``x``/``fx`` are then
    meaningless and the caller falls back to :func:`minimize_positive_scalar`.
    """

    x: FloatArray
    fx: FloatArray
    bracketed: NDArray[np.bool_]


def _evaluate(func: BatchObjective, X: FloatArray, reg: MetricsRegistry | None) -> FloatArray:
    """One vectorised objective pass over a (rows x abscissae) array."""
    if reg is not None:
        reg.inc("numerics.hybrid.passes")
        reg.inc("numerics.hybrid.rows", X.shape[0])
        reg.inc("numerics.hybrid.points", X.size)
    return func(X)


def _vertex(
    x: FloatArray, fx: FloatArray, f0: FloatArray, f2: FloatArray, inside: NDArray[np.bool_]
) -> tuple[FloatArray, NDArray[np.bool_]]:
    """Vertex of the parabola through ``x(1 -+ h)`` and ``x``, and whether
    to trust it: the stencil must lie in the domain (``inside``) and be
    convex, and the vertex must stay inside the stencil."""
    denom = (f0 - fx) + (f2 - fx)
    convex = denom > 0.0
    shift = (0.5 * _H_REL) * x * (f0 - f2) / np.where(convex, denom, 1.0)
    ok = inside & convex & (np.abs(shift) < _H_REL * x)
    return np.where(ok, x + shift, x), ok


#: the row minimiser's fixed schedule: a 48-point log grid, two zooms
#: of 62 points (each narrows the bracket 32-fold) and a polish stencil
#: of half-width _H_REL (see :func:`minimize_rows` for the choice)
_GRID_POINTS = 48
_ZOOM_POINTS = 62
_ZOOM_PASSES = 2
_H_REL = 1e-3
_HALF = _ZOOM_POINTS // 2
#: grid abscissae as fractions of a row's log width
_GRID = np.linspace(0.0, 1.0, _GRID_POINTS)
#: zoom abscissae as fractions of the bracket's log width: ``j / (m + 2)``
#: for ``m`` zoom points, skipping the centre ``j = m/2 + 1``
_ZOOM = np.concatenate([np.arange(1, _HALF + 1), np.arange(_HALF + 2, _ZOOM_POINTS + 2)]) / (
    _ZOOM_POINTS + 2.0
)
#: the narrowed bracket's left edge for each merged zoom index (the
#: centre included), as a fraction of the old bracket's width
_EDGE = np.arange(_ZOOM_POINTS + 1) / (_ZOOM_POINTS + 2.0)
_STENCIL2 = np.array([1.0 - _H_REL, 1.0 + _H_REL])
_STENCIL3 = np.array([1.0, 1.0 - _H_REL, 1.0 + _H_REL])


def minimize_rows(func: BatchObjective, lo: FloatArray, hi: FloatArray) -> RowMinima:
    """Minimise many independent objectives over ``(lo[i], hi[i])`` together.

    ``func`` maps a ``(rows, n)`` array of abscissae to the ``(rows, n)``
    objective values, row ``i`` under objective ``i``; values must be
    finite (callers map non-finite values to a large sentinel).  Every
    row takes the same fixed sequence of vectorised passes, so a row's
    result is bitwise independent of which other rows share the call:

    1. **grid** -- 48 log-spaced abscissae over the row's domain; the
       best interior point and its neighbours bracket the minimum;
    2. **zoom** -- two passes of 62 log-spaced abscissae inside the
       bracket, each keeping the best point and its neighbours (a
       32-fold narrower bracket);
    3. **polish** -- the symmetric three-point parabola fit through
       ``x(1 -+ h)``, applied twice.  The first fit lands within the
       cubic term's ``O(d^2)`` of the minimum from an entry offset ``d``;
       the second removes that.  A vertex is kept only when its value does
       not exceed the stencil's larger end, so a noisy or non-convex
       stencil leaves the abscissa alone.

    Six passes in all.  ``h = 1e-3`` trades the stencil's cubic bias
    (``O(h^2)``) against noise amplification ``~eta / (kappa h)``, where
    ``kappa = f'' x^2 / f`` is the dimensionless curvature and ``eta``
    the objective's relative evaluation noise: ``Gamma(T)/T`` is very flat
    near deep-tail optima (``kappa ~ 0.1``), and a narrower stencil would
    hand the vertex to round-off.
    """
    lo = np.asarray(lo, dtype=np.float64).ravel()
    hi = np.asarray(hi, dtype=np.float64).ravel()
    if lo.shape != hi.shape:
        raise ValueError(f"lo and hi differ in shape: {lo.shape} != {hi.shape}")
    if not bool(np.all((lo > 0.0) & (lo < hi))):
        raise ValueError("every row needs a domain 0 < lo < hi")
    return _minimize_rows(func, lo, hi)


def _minimize_rows(func: BatchObjective, lo: FloatArray, hi: FloatArray) -> RowMinima:
    """:func:`minimize_rows` on float64 vectors already known to satisfy
    ``0 < lo < hi`` (the schedule solver's domains always do)."""
    reg = _metrics()
    if reg is not None:
        reg.inc("numerics.hybrid.calls")
    n = lo.size

    # -- 1. grid --------------------------------------------------------
    left = np.log(lo)
    width = np.log(hi) - left
    LG = left[:, None] + width[:, None] * _GRID
    XG = np.exp(LG)
    FG = _evaluate(func, XG, reg)
    best = FG.argmin(axis=1)
    b = np.minimum(np.maximum(best, 1), _GRID_POINTS - 2)
    # flat indices of each row's grid point b and its two neighbours
    at = np.arange(0, n * _GRID_POINTS, _GRID_POINTS) + b
    below, above = at - 1, at + 1
    FG, LG = FG.ravel(), LG.ravel()
    fx = FG[at]
    # the argmin is no larger than its neighbours; a bracket also needs
    # an interior point strictly below one of them
    interior = best == b  # reprolint: ignore[RL002] -- integer grid indices
    bracketed = interior & ((fx < FG[below]) | (fx < FG[above]))
    x = XG.ravel()[at]
    left = LG[below]
    width = LG[above] - left
    del XG, LG, FG  # a wide solve's grid arrays are not read again

    # -- 2. zoom --------------------------------------------------------
    # the centre x sits at the bracket's log midpoint; the zoom abscissae
    # fall half on each side of it, and the best of them and the centre
    # becomes the centre of a bracket (_ZOOM_POINTS + 2) / 2 times narrower
    # (the abscissae and values in merged order, indexed flat)
    merged_x = np.empty((n, _ZOOM_POINTS + 1))
    merged_f = np.empty((n, _ZOOM_POINTS + 1))
    offsets = np.arange(0, n * (_ZOOM_POINTS + 1), _ZOOM_POINTS + 1)
    for _ in range(_ZOOM_PASSES):
        XZ = np.exp(left[:, None] + width[:, None] * _ZOOM)
        FZ = _evaluate(func, XZ, reg)
        merged_x[:, :_HALF], merged_x[:, _HALF], merged_x[:, _HALF + 1 :] = XZ[:, :_HALF], x, XZ[:, _HALF:]
        merged_f[:, :_HALF], merged_f[:, _HALF], merged_f[:, _HALF + 1 :] = FZ[:, :_HALF], fx, FZ[:, _HALF:]
        k = merged_f.argmin(axis=1)
        at = offsets + k
        fx = merged_f.ravel()[at]
        x = merged_x.ravel()[at]
        left = left + width * _EDGE[k]
        width = width * (2.0 / (_ZOOM_POINTS + 2.0))

    # -- 3. polish ------------------------------------------------------
    # a stencil centred on x fits the domain when lo_in <= x <= hi_in
    lo_in, hi_in = lo / (1.0 - _H_REL), hi / (1.0 + _H_REL)
    f02 = _evaluate(func, x[:, None] * _STENCIL2, reg)
    v, ok = _vertex(x, fx, f02[:, 0], f02[:, 1], (x >= lo_in) & (x <= hi_in))
    around = _evaluate(func, v[:, None] * _STENCIL3, reg)
    take = ok & (around[:, 0] <= f02.max(axis=1))
    x = np.where(take, v, x)
    fx = np.where(take, around[:, 0], fx)
    # second fit, centred on the accepted vertex (a rejected vertex
    # would only be refitted to itself and rejected again)
    inside = take & (v >= lo_in) & (v <= hi_in)
    v2, ok2 = _vertex(v, around[:, 0], around[:, 1], around[:, 2], inside)
    f_v2 = _evaluate(func, v2[:, None], reg)[:, 0]
    take2 = ok2 & (f_v2 <= around[:, 1:].max(axis=1))
    return RowMinima(
        x=np.where(take2, v2, x),
        fx=np.where(take2, f_v2, fx),
        bracketed=bracketed,
    )
