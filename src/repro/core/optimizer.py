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
from repro.core.solver_cache import SolverCache, SolverCacheKey, active_cache
from repro.distributions.base import AvailabilityDistribution, FloatArray
from repro.numerics.optimize import _minimize_rows, minimize_positive_scalar
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
    """``(t_max, mean residual life)`` for one (distribution, age)."""
    return _resolve_bounds_many(distribution, fingerprint, [age])[0]


def _resolve_bounds_many(
    distribution: AvailabilityDistribution,
    fingerprint: tuple[object, ...],
    ages: Sequence[float],
) -> list[tuple[float, float]]:
    """``(t_max, mean residual life)`` at each age of one distribution.

    One mean residual life per (fingerprint, age): the search bound is
    ``1e4`` times it (clamped to ``[1e6, 1e9]`` s), and Young's seed for
    the golden-section fallback reads it too.  Only cache misses need it;
    memoised so the misses of one (fingerprint, age) at different costs,
    and the fallback's seed, pay it once.  The ages the memo lacks take
    one array ``mean_residual_life`` call when the family's array form is
    its scalar calls bitwise (the paper families, whose solves fill whole
    schedules), else one scalar call each; the memoised pair is the same
    floats either way.
    """
    found = {a: _TMAX_MEMO.get((fingerprint, a)) for a in ages}
    missing = [a for a, bounds in found.items() if bounds is None]
    if missing:
        if distribution.elementwise_mrl:
            mrls = np.asarray(distribution.mean_residual_life(np.array(missing))).tolist()
        else:
            mrls = [float(distribution.mean_residual_life(a)) for a in missing]
        if len(_TMAX_MEMO) + len(missing) > _TMAX_MEMO_CAPACITY:
            _TMAX_MEMO.clear()
        for age, mrl in zip(missing, mrls, strict=True):
            if not math.isfinite(mrl) or mrl <= 0.0:
                mrl = max(distribution.mean(), 1.0)
            found[age] = _TMAX_MEMO[(fingerprint, age)] = (min(max(1e4 * mrl, 1e6), 1e9), mrl)
    return [cast("tuple[float, float]", found[a]) for a in ages]


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
    distribution: AvailabilityDistribution | Sequence[AvailabilityDistribution],
    costs: CheckpointCosts | Sequence[CheckpointCosts],
    ages: Iterable[float],
    *,
    cache_hits: list[bool | None] | None = None,
) -> list[OptimalInterval]:
    """Solve many (distribution, costs, elapsed uptime) rows together.

    ``distribution`` is one fitted model shared by every row or one per
    age, and ``costs`` one :class:`CheckpointCosts` shared by every row or
    one per age.  Each row is looked up in the active solver cache under
    its own distribution's fingerprint, duplicate rows are solved once,
    and every miss is solved together as rows of one
    :func:`~repro.numerics.optimize.minimize_rows` call, six vectorised
    passes over a ``(rows x abscissae)`` array whose rows may belong to
    many fitted models (:class:`~repro.core.markov.MarkovRows` evaluates
    each model family as one block).  This is what the lock-step schedule
    fill (one call per step across every schedule of a study) and the
    ``repro serve`` micro-batcher (one call per flush, across every
    model and cost set of the flush) run.

    A row's result is bitwise independent of the other rows in the
    call: the row solver's passes are elementwise within a row, so the
    same row solved alone (:func:`optimize_interval`), in any batch, or
    served from the cache is the same float.  The equivalence suites
    (``tests/test_serve_equivalence.py``,
    ``tests/test_solver_equivalence.py``) gate this.

    Results are returned in input order.  Every age must be finite and
    non-negative.  When ``cache_hits`` is given, one entry per row is
    appended to it: ``True`` for a row answered by the solver cache,
    ``False`` for a row the call solved, and ``None`` for a row that
    repeats an earlier row of the call or when no cache is active (no
    lookup).  The serve batcher attributes cache traffic to tenants from
    it.
    """
    ages = [float(a) for a in ages]
    n = len(ages)
    if isinstance(costs, CheckpointCosts):
        row_costs = [costs] * n
    else:
        row_costs = list(costs)
        if len(row_costs) != n:
            raise ValueError(f"got {len(row_costs)} cost sets for {n} ages")
    if isinstance(distribution, AvailabilityDistribution):
        row_dists = [distribution] * n
    else:
        row_dists = list(distribution)
        if len(row_dists) != n:
            raise ValueError(f"got {len(row_dists)} distributions for {n} ages")
    if not all(0.0 <= a < math.inf for a in ages):
        raise ValueError("age must be finite and non-negative")
    cache = active_cache()
    out: list[OptimalInterval | None] = [None] * n
    # a row repeating an earlier row's model and cost objects and age is
    # found on a flat tuple of the three; only the rest build their cache
    # key, once, and dedupe on it (equal models in other objects, ages in
    # one 1e-9 s bucket)
    seen: dict[tuple[int, int, float], int] = {}
    first: dict[SolverCacheKey, int] = {}
    rows: list[int] = []
    keys: list[SolverCacheKey] = []
    duplicates: list[tuple[int, int]] = []
    for i, (dist, c, a) in enumerate(zip(row_dists, row_costs, ages, strict=True)):
        j = seen.setdefault((id(dist), id(c), a), i)
        if j == i:
            key = SolverCache.key(dist.fingerprint(), c.checkpoint, c.recovery, c.latency, a)
            j = first.setdefault(key, i)
            if j == i:
                rows.append(i)
                keys.append(key)
                continue
        duplicates.append((i, j))
    found: list[OptimalInterval | None] = (
        cache.lookup(keys) if cache is not None else [None] * len(keys)
    )
    misses: list[tuple[int, SolverCacheKey]] = []
    for i, key, hit in zip(rows, keys, found, strict=True):
        if hit is None:
            misses.append((i, key))
        else:
            out[i] = hit
    if misses:
        # one bounds call per fitted model (MarkovRows groups the rows
        # into kernel blocks)
        models: dict[int, list[int]] = {}
        for i, _ in misses:
            models.setdefault(id(row_dists[i]), []).append(i)
        bounds: dict[int, float] = {}
        for model_rows in models.values():
            dist = row_dists[model_rows[0]]
            resolved = _resolve_bounds_many(dist, dist.fingerprint(), [ages[i] for i in model_rows])
            for i, (t_max, _) in zip(model_rows, resolved, strict=True):
                bounds[i] = t_max
        solved = _solve_rows(
            [(row_dists[i], row_costs[i], ages[i], bounds[i]) for i, _ in misses],
            lone=len(models) == 1,
        )
        for (i, _), opt in zip(misses, solved, strict=True):
            out[i] = opt
        if cache is not None:
            cache.store((key, opt) for (_, key), opt in zip(misses, solved, strict=True))
    if cache_hits is not None:
        outcome: list[bool | None] = [None] * n
        if cache is not None:
            for i, hit in zip(rows, found, strict=True):
                outcome[i] = hit is not None
        cache_hits.extend(outcome)
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
    rows: list[tuple[AvailabilityDistribution, CheckpointCosts, float, float]],
    *,
    lone: bool,
) -> list[OptimalInterval]:
    """Solve ``(distribution, costs, age, t_max)`` rows together; ``lone``
    when every row's distribution is one object."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        model = MarkovRows(
            rows[0][0] if lone else [d for d, _, _, _ in rows],
            [a for _, _, a, _ in rows],
            [c.checkpoint for _, c, _, _ in rows],
            [c.recovery for _, c, _, _ in rows],
            [c.latency for _, c, _, _ in rows],
        )

        def objective(T: FloatArray) -> FloatArray:
            ratio = model.evaluate(T)
            ratio /= T
            finite = np.isfinite(ratio)
            if finite.all():
                return ratio
            out: FloatArray = np.where(finite, ratio, _SENTINEL)
            return out

        # the domains are valid by construction: T_MIN < 1e6 <= t_max
        res = _minimize_rows(objective, np.full(len(rows), T_MIN), np.array([b for *_, b in rows]))
    out: list[OptimalInterval] = []
    reg = _metrics()
    for (dist, c, a, bound), x, fx, bracketed in zip(
        rows, res.x.tolist(), res.fx.tolist(), res.bracketed.tolist(), strict=True
    ):
        if bracketed:
            out.append(_interval(x, fx, a, True))
            continue
        # no interior grid minimum (monotone objective, edge plateau):
        # the robust scalar path settles it
        if reg is not None:
            reg.inc("numerics.hybrid.cold_fallbacks")
        out.append(_solve_scalar(dist, dist.fingerprint(), c, a, bound))
    return out
