"""Optimal work-interval selection (``T_opt``).

The optimal interval minimises the expected overhead ratio
``Gamma(T) / T`` of the Markov model.  The objective is coercive at both
ends -- as ``T -> 0`` every interval pays the fixed checkpoint cost for
vanishing work, and as ``T -> inf`` the retry term ``K22 * P22 / P21``
blows up because a failure before ``L + R + T`` becomes certain -- so an
interior minimum exists whenever the availability distribution has
unbounded support.

Two solvers locate it:

* ``method="golden"`` -- bracketing plus Golden Section Search, exactly
  the method the paper cites from Numerical Recipes; kept as the
  reference implementation and the benchmark baseline.
* ``method="hybrid"`` (the default) -- the row solver: every solve of a
  call to :func:`optimize_intervals_batch` is one row of
  :func:`repro.numerics.optimize.minimize_rows` over the
  :class:`~repro.core.markov.MarkovRows` objective (a log grid, two zoom
  passes, a parabolic polish: six vectorised passes however many rows).
  :func:`optimize_interval` is its one-row call.

A row's result is bitwise independent of the rows sharing its batch, so
a solve answered from a lock-step schedule fill, a serving burst, the
cache or a lone call is the same float.  Solves are memoised in the
process-global :class:`~repro.core.solver_cache.SolverCache` keyed on
(distribution fingerprint, costs, age bucket); see
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import cast

import numpy as np

from repro.core.markov import CheckpointCosts, MarkovIntervalModel, MarkovRows
from repro.core.solver_cache import SolverCache, active_cache, use_solver_cache
from repro.distributions.base import AvailabilityDistribution, FloatArray
from repro.numerics.optimize import minimize_positive_scalar, minimize_rows
from repro.obs.metrics import active as _metrics

__all__ = [
    "OptimalInterval",
    "default_solver_method",
    "optimize_interval",
    "optimize_intervals_batch",
    "use_solver",
    "young_approximation",
]

#: solver methods accepted by :func:`optimize_interval`
_METHODS = ("hybrid", "golden")

_default_method = "hybrid"

#: objective value standing in for a non-finite ``Gamma(T)/T`` (keeps
#: every solver comparison and parabola fit in finite arithmetic)
_SENTINEL = 1e300

#: memo of the default ``t_max`` bound and the mean residual life it
#: derives from, per (fingerprint, age) -- a pure function of its key,
#: recomputed identically on any miss, so clearing the (bounded) memo
#: never changes results
_TMAX_MEMO: dict[tuple[tuple[object, ...], float], tuple[float, float]] = {}
_TMAX_MEMO_CAPACITY = 4096


def default_solver_method() -> str:
    """The process-wide solver method used when none is requested."""
    return _default_method


@contextmanager
def use_solver(
    *,
    method: str | None = None,
    cache: SolverCache | None | bool = True,
) -> Iterator[None]:
    """Temporarily override the process solver defaults.

    Parameters
    ----------
    method:
        ``"hybrid"`` or ``"golden"``; ``None`` keeps the current default.
    cache:
        ``True`` keeps the currently active cache, ``False``/``None``
        disables caching inside the block, a :class:`SolverCache`
        installs that instance.
    """
    global _default_method
    if method is not None and method not in _METHODS:
        raise ValueError(f"unknown solver method: {method!r}")
    previous = _default_method
    if method is not None:
        _default_method = method
    try:
        if cache is True:
            yield
        else:
            with use_solver_cache(cache if isinstance(cache, SolverCache) else None):
                yield
    finally:
        _default_method = previous


@dataclass(frozen=True)
class OptimalInterval:
    """The optimiser's output for one (distribution, costs, age) triple."""

    T_opt: float
    gamma: float
    overhead_ratio: float
    expected_efficiency: float
    age: float
    converged: bool


def _young(mrl: float, costs: CheckpointCosts) -> float:
    return math.sqrt(2.0 * max(costs.checkpoint, 1e-6) * mrl)


def young_approximation(distribution: AvailabilityDistribution, costs: CheckpointCosts, age: float = 0.0) -> float:
    """Young's first-order estimate ``T ~ sqrt(2 * C * MTTF)``.

    Used only to seed the golden-section bracketing; the mean time to
    failure is taken as the mean residual life at the current uptime,
    which adapts the seed to heavy-tailed ageing.
    """
    return _young(_resolve_bounds(distribution, distribution.fingerprint(), age)[1], costs)


def _resolve_bounds(
    distribution: AvailabilityDistribution,
    fingerprint: tuple[object, ...],
    age: float,
) -> tuple[float, float]:
    """``(default t_max, mean residual life)`` for one (distribution, age).

    One ``mean_residual_life`` evaluation per (fingerprint, age): the
    search bound is ``1e4`` times it (clamped to ``[1e6, 1e9]`` s), and
    Young's seed for the golden-section paths reads it too.  Memoised so
    a cache-hit query does not pay it again (for heavy-tailed families
    that call costs more than the cache lookup it guards); the memoised
    pair is the same floats the direct computation produces.
    """
    memo_key = (fingerprint, age)
    cached = _TMAX_MEMO.get(memo_key)
    if cached is not None:
        return cached
    mrl = float(distribution.mean_residual_life(age))
    if not math.isfinite(mrl) or mrl <= 0.0:
        mrl = max(distribution.mean(), 1.0)
    bounds = (min(max(1e4 * mrl, 1e6), 1e9), mrl)
    if len(_TMAX_MEMO) >= _TMAX_MEMO_CAPACITY:
        _TMAX_MEMO.clear()
    _TMAX_MEMO[memo_key] = bounds
    return bounds


def optimize_interval(
    distribution: AvailabilityDistribution,
    costs: CheckpointCosts,
    *,
    age: float = 0.0,
    t_min: float = 1e-3,
    t_max: float | None = None,
    rel_tol: float = 1e-6,
    method: str | None = None,
) -> OptimalInterval:
    """Compute ``T_opt`` for a distribution, cost set and elapsed uptime.

    The one-row call of :func:`optimize_intervals_batch`, so a direct
    solve and the same row solved inside any batch are the same float.

    Parameters
    ----------
    distribution:
        Fitted availability model.
    costs:
        ``C``/``R``/``L`` constants.
    age:
        ``T_elapsed``: time the resource has been available already
        (ignored by the memoryless exponential).
    t_min, t_max:
        Search bounds for the work interval.  ``t_max`` defaults to
        ``1e4`` times the mean residual life (clamped to ``[1e6, 1e9]``
        s), wide enough that the heavy-tailed optima of the paper's
        traces are interior.
    rel_tol:
        Relative tolerance of the golden-section refinement
        (``method="golden"``, and the hybrid's fallback for objectives
        with no interior grid minimum); the hybrid row solver's fixed
        passes resolve ``T_opt`` far below the default.
    method:
        ``"hybrid"`` (the vectorised row solver, the default) or
        ``"golden"`` (the paper's reference path); ``None`` uses the
        process default (see :func:`use_solver`).
    """
    return optimize_intervals_batch(
        distribution,
        costs,
        (age,),
        t_min=t_min,
        t_max=t_max,
        rel_tol=rel_tol,
        method=method,
    )[0]


def optimize_intervals_batch(
    distribution: AvailabilityDistribution,
    costs: CheckpointCosts | Sequence[CheckpointCosts],
    ages: Iterable[float],
    *,
    t_min: float = 1e-3,
    t_max: float | None = None,
    rel_tol: float = 1e-6,
    method: str | None = None,
) -> list[OptimalInterval]:
    """Solve one distribution at many (costs, elapsed uptime) rows.

    ``costs`` is one :class:`CheckpointCosts` shared by every row or one
    per age.  Each row is looked up in the active solver cache, duplicate
    rows are solved once, and every miss is solved together: with the
    default ``method="hybrid"`` as rows of one
    :func:`~repro.numerics.optimize.minimize_rows` call, six vectorised
    passes over a ``(rows x abscissae)`` array.  This is what the
    lock-step schedule fill (one call per step across every schedule of a
    fitted model) and the ``repro serve`` micro-batcher (one call per
    burst of queries on a model) run.

    A row's result is bitwise independent of the other rows in the
    call: the row solver's passes are elementwise within a row, so the
    same row solved alone (:func:`optimize_interval`), in any batch, or
    served from the cache is the same float.  The equivalence suites
    (``tests/test_serve_equivalence.py``,
    ``tests/test_solver_equivalence.py``) gate this.

    Results are returned in input order.
    """
    if method is None:
        method = _default_method
    elif method not in _METHODS:
        raise ValueError(f"unknown solver method: {method!r}")
    ages = [float(a) for a in ages]
    if isinstance(costs, CheckpointCosts):
        row_costs = [costs] * len(ages)
    else:
        row_costs = list(costs)
        if len(row_costs) != len(ages):
            raise ValueError(f"got {len(row_costs)} cost sets for {len(ages)} ages")
    if any(a < 0.0 for a in ages):
        raise ValueError("age must be non-negative")
    cache = active_cache()
    fingerprint = distribution.fingerprint()
    out: list[OptimalInterval | None] = [None] * len(ages)
    misses: list[tuple[int, tuple[object, ...], CheckpointCosts, float, float]] = []
    duplicates: list[tuple[int, int]] = []
    first: dict[tuple[object, ...], int] = {}
    for i, (c, a) in enumerate(zip(row_costs, ages, strict=True)):
        bound = t_max if t_max is not None else _resolve_bounds(distribution, fingerprint, a)[0]
        key = SolverCache.key(
            fingerprint, c.checkpoint, c.recovery, c.latency, a, t_min, bound, rel_tol, method
        )
        j = first.get(key)
        if j is not None:
            duplicates.append((i, j))
            continue
        first[key] = i
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            out[i] = hit
        else:
            misses.append((i, key, c, a, bound))
    if misses:
        rows = [(c, a, bound) for _, _, c, a, bound in misses]
        if method == "golden":
            solved = [
                _solve_scalar(distribution, fingerprint, c, a, t_min, bound, rel_tol)
                for c, a, bound in rows
            ]
        else:
            solved = _solve_rows(distribution, fingerprint, rows, t_min, rel_tol)
        for (i, key, *_), opt in zip(misses, solved, strict=True):
            out[i] = opt
            if cache is not None:
                cache.put(key, opt)
    for i, j in duplicates:
        out[i] = out[j]
    return cast("list[OptimalInterval]", out)


def _interval(x: float, fx: float, age: float, converged: bool) -> OptimalInterval:
    g = x * fx if fx < _SENTINEL else math.inf
    return OptimalInterval(
        T_opt=x,
        gamma=g,
        overhead_ratio=fx,
        expected_efficiency=x / g if math.isfinite(g) and g > 0.0 else 0.0,
        age=age,
        converged=converged,
    )


def _solve_scalar(
    distribution: AvailabilityDistribution,
    fingerprint: tuple[object, ...],
    costs: CheckpointCosts,
    age: float,
    t_min: float,
    t_max: float,
    rel_tol: float,
) -> OptimalInterval:
    """One golden-section solve on the scalar objective: the reference
    method, and the hybrid's fallback for rows with no interior grid
    minimum (the only readers of Young's seed)."""
    model = MarkovIntervalModel(distribution, costs, age)
    guess = _young(_resolve_bounds(distribution, fingerprint, age)[1], costs)
    guess = min(max(guess, t_min * 2.0), t_max / 2.0)

    def objective(T: float) -> float:
        ratio = model.overhead_ratio(T)
        return ratio if math.isfinite(ratio) else _SENTINEL

    result = minimize_positive_scalar(objective, guess=guess, lo=t_min, hi=t_max, rel_tol=rel_tol)
    return _interval(min(max(result.x, t_min), t_max), result.fx, age, result.converged)


def _solve_rows(
    distribution: AvailabilityDistribution,
    fingerprint: tuple[object, ...],
    rows: list[tuple[CheckpointCosts, float, float]],
    t_min: float,
    rel_tol: float,
) -> list[OptimalInterval]:
    """Solve ``(costs, age, t_max)`` rows of one distribution together."""
    ages = np.array([a for _, a, _ in rows])
    model = MarkovRows(
        distribution,
        ages,
        [c.checkpoint for c, _, _ in rows],
        [c.recovery for c, _, _ in rows],
        [c.latency for c, _, _ in rows],
    )

    def objective(T: FloatArray) -> FloatArray:
        ratio = model.overhead_ratio(T)
        out: FloatArray = np.where(np.isfinite(ratio), ratio, _SENTINEL)
        return out

    res = minimize_rows(
        objective, np.full(len(rows), t_min), np.array([b for _, _, b in rows])
    )
    out: list[OptimalInterval] = []
    reg = _metrics()
    for i, (c, a, bound) in enumerate(rows):
        if res.bracketed[i]:
            out.append(_interval(float(res.x[i]), float(res.fx[i]), a, True))
            continue
        # no interior grid minimum (monotone objective, edge plateau):
        # the robust scalar path settles it
        if reg is not None:
            reg.inc("numerics.hybrid.cold_fallbacks")
        out.append(_solve_scalar(distribution, fingerprint, c, a, t_min, bound, rel_tol))
    return out
