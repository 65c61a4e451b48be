"""Aperiodic checkpoint schedules -- the sequence ``T_opt(i)``.

For a memoryless (exponential) model a single periodic interval is
optimal.  For the Weibull and hyperexponential models the future-lifetime
distribution changes as the resource ages, so the paper computes a
*schedule*: ``T_opt(0)`` at job initiation (using ``T_elapsed``, the time
the resource has already been available), then each successive
``T_opt(i)`` at the uptime the resource will have reached at the start of
work interval ``i``.  The schedule remains valid until the next failure,
after which a fresh schedule is computed.

:class:`CheckpointSchedule` materialises the sequence lazily and caches
it, since the trace simulator asks for the same prefixes over and over.
:func:`fill_schedules` advances many schedules in lock-step -- one
batched solve per step across all of them, whatever their fitted models
-- each only as far as its replay budget needs.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from typing import Any

import numpy as np

from repro.core.markov import CheckpointCosts
from repro.core.optimizer import OptimalInterval, optimize_intervals_batch
from repro.distributions.base import AvailabilityDistribution
from repro.distributions.exponential import Exponential
from repro.obs.metrics import active as _metrics
from repro.obs.tracing import active as _trace_active

__all__ = ["MAX_FILL_LENGTH", "CheckpointSchedule", "fill_schedules"]

#: ceiling on the intervals a fill materialises per schedule: reaching it
#: means a budget dwarfs the cycle length by ~7 orders of magnitude, and
#: the caller reports the budget as uncoverable
MAX_FILL_LENGTH = 1 << 22


class CheckpointSchedule:
    """Lazy, cached sequence of optimal work intervals for one uptime run.

    Parameters
    ----------
    distribution:
        Fitted availability model for the resource.
    costs:
        ``C``/``R``/``L`` constants in effect for this run.
    t_elapsed:
        Resource uptime at job initiation (``T_elapsed`` in the paper).
    include_recovery_age:
        If ``True``, the initial recovery phase of duration ``R`` ages
        the resource before the first work interval begins (the resource
        is up, just not doing useful work).  The paper computes
        ``T_opt(0)`` at initiation time, i.e. without the recovery
        offset, so the default is ``False``; the ablation benchmarks
        exercise both settings.
    converge_rel_tol:
        Optional early-out for long schedules: once two consecutive
        ``T_opt`` values differ by less than this relative tolerance the
        schedule is treated as converged and the last interval is reused
        for all later indices.  Non-memoryless optima settle quickly as
        the conditional distribution stabilises (the hyperexponential
        converges to its slowest phase; the Weibull drifts ever more
        slowly), so the trace simulator enables this with ``1e-3`` to
        bound the number of solves per schedule.
        ``None`` (the default) disables the shortcut.
    """

    def __init__(
        self,
        distribution: AvailabilityDistribution,
        costs: CheckpointCosts,
        *,
        t_elapsed: float = 0.0,
        include_recovery_age: bool = False,
        converge_rel_tol: float | None = None,
    ) -> None:
        if t_elapsed < 0:
            raise ValueError(f"t_elapsed must be non-negative, got {t_elapsed}")
        self.distribution = distribution
        self.costs = costs
        self.t_elapsed = float(t_elapsed)
        self.include_recovery_age = include_recovery_age
        self._intervals: list[OptimalInterval] = []
        self._ages: list[float] = []
        self._memoryless = isinstance(distribution, Exponential)
        self._converge_rel_tol = converge_rel_tol
        self._converged_at: int | None = None

    # ------------------------------------------------------------------
    @property
    def is_periodic(self) -> bool:
        """True when every interval is identical (memoryless model)."""
        return self._memoryless

    def age_of_interval(self, i: int) -> float:
        """Resource uptime at the start of work interval ``i``."""
        self._extend_to(i)
        return self._ages[i]

    def interval(self, i: int) -> OptimalInterval:
        """The full optimiser output for work interval ``i``."""
        self._extend_to(i)
        return self._intervals[i]

    def work_interval(self, i: int) -> float:
        """``T_opt(i)`` in seconds."""
        return self.interval(i).T_opt

    def intervals(self, n: int) -> list[float]:
        """The first ``n`` work intervals ``[T_opt(0), ..., T_opt(n-1)]``.

        ``n = 0`` is a valid (empty) prefix; negative ``n`` is an error.
        """
        if n < 0:
            raise ValueError(f"interval count must be >= 0, got {n}")
        if n == 0:
            return []
        self._extend_to(n - 1)
        return [it.T_opt for it in self._intervals[:n]]

    def interval_array(self, n: int) -> "np.ndarray[Any, np.dtype[np.float64]]":
        """The first ``n`` work intervals as a float64 vector.

        Bulk export for the batch replay kernel
        (:mod:`repro.simulation.batch_replay`), which turns the prefix
        into a cumulative cycle table ``t_k = sum_{j<k}(T_j + C + L)``
        and resolves whole availability traces against it with one
        ``searchsorted`` pass instead of per-event calls to
        :meth:`work_interval`.  Lazy like :meth:`intervals`: only the
        indices not yet materialised are solved.
        """
        return np.asarray(self.intervals(n), dtype=np.float64)

    def __iter__(self) -> Iterator[float]:
        i = 0
        while True:
            yield self.work_interval(i)
            i += 1

    def expected_efficiency(self, i: int = 0) -> float:
        """Model-predicted efficiency ``T / Gamma`` of interval ``i``."""
        return self.interval(i).expected_efficiency

    def restarted(self, t_elapsed: float = 0.0) -> "CheckpointSchedule":
        """A fresh schedule after a failure (new ``T_elapsed``)."""
        return CheckpointSchedule(
            self.distribution,
            self.costs,
            t_elapsed=t_elapsed,
            include_recovery_age=self.include_recovery_age,
            converge_rel_tol=self._converge_rel_tol,
        )

    def with_costs(self, costs: CheckpointCosts, *, t_elapsed: float | None = None) -> "CheckpointSchedule":
        """A schedule with re-measured costs (the live system re-measures
        ``C``/``R`` from each observed transfer)."""
        return CheckpointSchedule(
            self.distribution,
            costs,
            t_elapsed=self.t_elapsed if t_elapsed is None else t_elapsed,
            include_recovery_age=self.include_recovery_age,
            converge_rel_tol=self._converge_rel_tol,
        )

    def cover(self, budget: float, overhead: float) -> int:
        """Materialise the shortest prefix whose cycles cover ``budget``.

        Returns ``K``, the least number of intervals with
        ``sum_{j<K}(T_j + overhead) > budget`` (the sum accumulated in
        index order, exactly as the batch replay's cycle table
        ``np.cumsum`` forms it).  Only the intervals up to ``K`` are
        solved; see :func:`fill_schedules` for many schedules at once.
        """
        return fill_schedules([self], [budget], [overhead])[0]

    # ------------------------------------------------------------------
    def _next_age(self) -> float:
        """Resource uptime at the start of the next unsolved interval."""
        if not self._intervals:
            age = self.t_elapsed
            if self.include_recovery_age:
                age += self.costs.recovery
            return age
        # the machine is up throughout the strictly sequential work /
        # transfer / commit-latency phases, so interval i+1 starts
        # T + C + L after interval i did
        return self._ages[-1] + self._intervals[-1].T_opt + self.costs.checkpoint + self.costs.latency

    def _reuse(self) -> OptimalInterval | None:
        """Append the next interval without a solve when the tail is known
        (memoryless model, or converged schedule); returns it, else None."""
        if self._memoryless and self._intervals:
            kind, opt = "memoryless", self._intervals[0]
        elif self._converged_at is not None:
            kind, opt = "converged", self._intervals[-1]
        else:
            return None
        age = self._next_age()
        self._intervals.append(opt)
        self._ages.append(age)
        reg = _metrics()
        if reg is not None:
            reg.inc(f"schedule.reuses.{kind}")
        trace = _trace_active()
        if trace is not None:
            trace.point("opt", "cache_hit", ts=age, args={"kind": kind})
        return opt

    def _append_solved(self, opt: OptimalInterval, age: float) -> None:
        idx = len(self._intervals)
        self._intervals.append(opt)
        self._ages.append(age)
        if (
            self._converge_rel_tol is not None
            and idx >= 1
            and abs(opt.T_opt - self._intervals[idx - 1].T_opt)
            <= self._converge_rel_tol * self._intervals[idx - 1].T_opt
        ):
            self._converged_at = idx

    def _extend_to(self, i: int) -> None:
        if i < 0:
            raise IndexError(f"interval index must be >= 0, got {i}")
        while len(self._intervals) <= i:
            if self._reuse() is None:
                _solve_next([self])


def _solve_next(schedules: Sequence[CheckpointSchedule]) -> None:
    """Solve the next interval of every schedule, whatever its fitted
    model, with one batched solve."""
    ages = [sched._next_age() for sched in schedules]
    wall0 = time.perf_counter()
    solved = optimize_intervals_batch(
        [sched.distribution for sched in schedules], [sched.costs for sched in schedules], ages
    )
    wall = time.perf_counter() - wall0
    reg = _metrics()
    if reg is not None:
        reg.inc("schedule.solves", len(schedules))
    trace = _trace_active()
    for sched, age, opt in zip(schedules, ages, solved, strict=True):
        if trace is not None:
            # the solve is instantaneous in sim time (a zero-width span
            # at the resource age it was computed for); its real cost is
            # the wall_s argument (the whole batched call)
            trace.span(
                "opt", "solve", age, 0.0,
                args={"index": len(sched._intervals), "T_opt": opt.T_opt, "wall_s": wall},
            )
        sched._append_solved(opt, age)


def fill_schedules(
    schedules: Sequence[CheckpointSchedule],
    budgets: Sequence[float],
    overheads: Sequence[float],
) -> list[int]:
    """Advance schedules in lock-step until each covers its budget;
    returns each one's covering length (see
    :meth:`CheckpointSchedule.cover`).

    Each step solves the next interval of every schedule still short of
    its budget in one :func:`~repro.core.optimizer.optimize_intervals_batch`
    call, whatever fitted models the schedules follow, so a step costs
    about one solve however many schedules share it and a fill takes as
    many steps as its longest chain.  A schedule stops at the first
    interval whose cumulative ``T + overhead`` exceeds its budget;
    memoryless and converged tails are appended without solves.  The
    intervals are the ones the lazy per-interval path would produce:
    every row of a batched solve is bitwise the lone solve.  No schedule
    grows past :data:`MAX_FILL_LENGTH` intervals.
    """
    if not (len(schedules) == len(budgets) == len(overheads)):
        raise ValueError("need one budget and one overhead per schedule")
    if not schedules:
        return []
    totals: list[float] = []
    for sched, overhead in zip(schedules, overheads, strict=True):
        total = 0.0
        for opt in sched._intervals:
            total += opt.T_opt + overhead
        totals.append(total)
    def short(j: int) -> bool:
        return totals[j] <= budgets[j] and len(schedules[j]._intervals) < MAX_FILL_LENGTH

    live = [j for j in range(len(schedules)) if short(j)]
    while live:
        solve: list[int] = []
        for j in live:
            sched = schedules[j]
            while short(j):
                opt = sched._reuse()
                if opt is None:
                    solve.append(j)
                    break
                totals[j] += opt.T_opt + overheads[j]
        if solve:
            _solve_next([schedules[j] for j in solve])
            for j in solve:
                totals[j] += schedules[j]._intervals[-1].T_opt + overheads[j]
        live = [j for j in solve if short(j)]
    return [len(sched._intervals) for sched in schedules]
