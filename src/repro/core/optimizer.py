"""Optimal work-interval selection (``T_opt``).

The optimal interval minimises the expected overhead ratio
``Gamma(T) / T`` of the Markov model.  The objective is coercive at both
ends -- as ``T -> 0`` every interval pays the fixed checkpoint cost for
vanishing work, and as ``T -> inf`` the retry term ``K22 * P22 / P21``
blows up because a failure before ``L + R + T`` becomes certain -- so an
interior minimum exists whenever the availability distribution has
unbounded support.

One solver locates it over ``T`` in ``[T_MIN, t_max]``: every solve of a
call to :func:`optimize_intervals_batch` is one row of
:func:`repro.numerics.optimize.minimize_rows` over the
:class:`~repro.core.markov.MarkovRows` objective (a log grid, two zoom
passes, a parabolic polish: six vectorised passes however many rows), and
:func:`optimize_interval` is its one-row call.  A row with no interior
grid minimum falls back to bracketing plus Golden Section Search, the
method the paper cites from Numerical Recipes.  ``t_max`` is ``1e4``
times the mean residual life at the row's age (clamped to ``[1e6,
1e9]`` s), wide enough that the heavy-tailed optima of the paper's
traces are interior.

A row's result is bitwise independent of the rows sharing its batch, so
a solve answered from a lock-step schedule fill, a serving burst, the
cache or a lone call is the same float.  Solves are memoised in the
process-global :class:`~repro.core.solver_cache.SolverCache` keyed on
(distribution fingerprint, C, R, L, age bucket); see
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import cast

import numpy as np

from repro.core.markov import CheckpointCosts, MarkovIntervalModel, MarkovRows
from repro.core.solver_cache import SolverCache, active_cache
from repro.distributions.base import AvailabilityDistribution, FloatArray
from repro.numerics.optimize import minimize_positive_scalar, minimize_rows
from repro.obs.metrics import active as _metrics

__all__ = [
    "REL_TOL",
    "T_MIN",
    "OptimalInterval",
    "optimize_interval",
    "optimize_intervals_batch",
    "young_approximation",
]

#: lower bound of the work-interval search (seconds)
T_MIN = 1e-3

#: relative tolerance of the golden-section fallback; the row solver's
#: fixed passes resolve ``T_opt`` far below it
REL_TOL = 1e-6

#: objective value standing in for a non-finite ``Gamma(T)/T`` (keeps
#: every solver comparison and parabola fit in finite arithmetic)
_SENTINEL = 1e300

#: memo of the ``t_max`` bound and the mean residual life it
#: derives from, per (fingerprint, age) -- a pure function of its key,
#: recomputed identically on any miss, so clearing the (bounded) memo
#: never changes results
_TMAX_MEMO: dict[tuple[tuple[object, ...], float], tuple[float, float]] = {}
_TMAX_MEMO_CAPACITY = 4096


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
    """``(t_max, mean residual life)`` for one (distribution, age).

    One ``mean_residual_life`` evaluation per (fingerprint, age): the
    search bound is ``1e4`` times it (clamped to ``[1e6, 1e9]`` s), and
    Young's seed for the golden-section fallback reads it too.  Only
    cache misses need it; memoised so the misses of one (fingerprint,
    age) at different costs, and the fallback's seed, pay it once (for
    heavy-tailed families the call is costly); the memoised pair is the
    same floats the direct computation produces.
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
    """
    return optimize_intervals_batch(distribution, costs, (age,))[0]


def optimize_intervals_batch(
    distribution: AvailabilityDistribution,
    costs: CheckpointCosts | Sequence[CheckpointCosts],
    ages: Iterable[float],
) -> list[OptimalInterval]:
    """Solve one distribution at many (costs, elapsed uptime) rows.

    ``costs`` is one :class:`CheckpointCosts` shared by every row or one
    per age.  Each row is looked up in the active solver cache, duplicate
    rows are solved once, and every miss is solved together as rows of
    one :func:`~repro.numerics.optimize.minimize_rows` call, six vectorised
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

    Results are returned in input order.  Every age must be finite and
    non-negative.
    """
    ages = [float(a) for a in ages]
    if isinstance(costs, CheckpointCosts):
        row_costs = [costs] * len(ages)
    else:
        row_costs = list(costs)
        if len(row_costs) != len(ages):
            raise ValueError(f"got {len(row_costs)} cost sets for {len(ages)} ages")
    if not all(0.0 <= a < math.inf for a in ages):
        raise ValueError("age must be finite and non-negative")
    cache = active_cache()
    fingerprint = distribution.fingerprint()
    out: list[OptimalInterval | None] = [None] * len(ages)
    misses: list[tuple[int, tuple[object, ...], CheckpointCosts, float]] = []
    duplicates: list[tuple[int, int]] = []
    first: dict[tuple[object, ...], int] = {}
    for i, (c, a) in enumerate(zip(row_costs, ages, strict=True)):
        key = SolverCache.key(fingerprint, c.checkpoint, c.recovery, c.latency, a)
        j = first.get(key)
        if j is not None:
            duplicates.append((i, j))
            continue
        first[key] = i
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            out[i] = hit
        else:
            misses.append((i, key, c, a))
    if misses:
        rows = [
            (c, a, _resolve_bounds(distribution, fingerprint, a)[0]) for _, _, c, a in misses
        ]
        solved = _solve_rows(distribution, fingerprint, rows)
        for (i, key, *_), opt in zip(misses, solved, strict=True):
            out[i] = opt
            if cache is not None:
                cache.put(key, opt)
    for i, j in duplicates:
        out[i] = out[j]
    return cast("list[OptimalInterval]", out)


def _interval(x: float, fx: float, age: float, converged: bool) -> OptimalInterval:
    """The result for a minimum ``fx`` at ``x``; a sentinel minimum means
    no interval can ever commit (unschedulable), never convergence."""
    schedulable = fx < _SENTINEL
    g = x * fx if schedulable else math.inf
    return OptimalInterval(
        T_opt=x,
        gamma=g,
        overhead_ratio=fx,
        expected_efficiency=x / g if math.isfinite(g) and g > 0.0 else 0.0,
        age=age,
        converged=converged and schedulable,
    )


def _solve_scalar(
    distribution: AvailabilityDistribution,
    fingerprint: tuple[object, ...],
    costs: CheckpointCosts,
    age: float,
    t_max: float,
) -> OptimalInterval:
    """One golden-section solve on the scalar objective: the row solver's
    fallback for rows with no interior grid minimum (the only reader of
    Young's seed)."""
    model = MarkovIntervalModel(distribution, costs, age)
    guess = _young(_resolve_bounds(distribution, fingerprint, age)[1], costs)
    guess = min(max(guess, T_MIN * 2.0), t_max / 2.0)

    def objective(T: float) -> float:
        ratio = model.overhead_ratio(T)
        return ratio if math.isfinite(ratio) else _SENTINEL

    result = minimize_positive_scalar(objective, guess=guess, lo=T_MIN, hi=t_max, rel_tol=REL_TOL)
    return _interval(min(max(result.x, T_MIN), t_max), result.fx, age, result.converged)


def _solve_rows(
    distribution: AvailabilityDistribution,
    fingerprint: tuple[object, ...],
    rows: list[tuple[CheckpointCosts, float, float]],
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
        objective, np.full(len(rows), T_MIN), np.array([b for _, _, b in rows])
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
        out.append(_solve_scalar(distribution, fingerprint, c, a, bound))
    return out
