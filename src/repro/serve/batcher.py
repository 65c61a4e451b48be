"""Micro-batched dispatch of concurrent schedule queries.

The daemon's hot path.  Solve requests do not call the optimizer
directly; they are appended to a pending list and answered when the
batch *flushes*, which happens when either

* the event-loop turn that queued a burst's first query ends (the
  default: a ``call_soon`` callback, no timer), or, with an explicit
  **batching window** ``window_s > 0``, that window elapses (a timer
  armed by the burst's first query), or
* the pending list reaches **max_batch** (back-pressure bound).

By default every query parsed from bytes already read shares one
flush, and queries that arrive while a flush solves are read on the
next turn and form the next one: batch size follows the load, and no
query waits on a timer.

A flush is the unit of work.  It makes **one**
:func:`~repro.core.optimizer.optimize_intervals_batch` call over every
pending query, whatever its model and cost set, with per-row
distributions and costs: duplicate ages of one model and cost set
collapse to a single solve (the dominant effect for a pool manager
polling a fleet at bucketed uptimes), cached rows are answered from the
solver cache, and every remaining row is solved in one vectorised row
solve (:class:`~repro.core.markov.MarkovRows` evaluates each model
family as one block).  A row's result does not depend on its
neighbours, so results are **bitwise identical** to per-request solves;
batching only changes *when* and *how often* the solver runs, never
what it returns.  Should that call raise, the flush is solved again one
*group* (same model fingerprint and cost triple) at a time, so only the
failing group's waiters get the exception.

Each query carries a reply callback that the flush calls directly --
no future, no event-loop hop -- and the ``on_flush`` hook runs once
after the flush's last reply, which is where the server writes each
connection's replies in one write.

Solving happens on the event loop, not in a worker thread: the
process-global :class:`~repro.core.solver_cache.SolverCache` and the
metrics registry are single-threaded by design, and a flush's solve is
short (microseconds when cached, a few ms cold).  ``max_batch`` (and a
batching window, when one is set) bounds how much solve work a single
flush can accumulate.

Counters: ``serve.batch.count`` / ``serve.batch.size`` /
``serve.batch.groups`` / ``serve.batch.collapsed`` /
``serve.batch.solve_seconds``; one ``serve``/``batch`` trace span per
flush.  The request-lifecycle histograms
(``serve.lifecycle.queue_wait_seconds`` per query,
``serve.lifecycle.batch_group_seconds`` /
``serve.lifecycle.solve_seconds`` per flush) and the tenant-labeled
cache attribution (``serve.tenant.cache.hits`` / ``.misses``: the
cache lookups of each group's rows, read from the solve call's per-row
outcome and credited to the group's tenant -- a group is single-tenant
unless two pools registered an identical model + cost set, in which
case the head tenant absorbs the shared lookups) are recorded here too,
all on sim-time-free wall clocks.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any, cast

from repro.core.markov import CheckpointCosts
from repro.core.optimizer import OptimalInterval, optimize_intervals_batch
from repro.distributions.base import AvailabilityDistribution
from repro.obs.metrics import active as _metrics
from repro.obs.tracing import active as _trace_active

__all__ = [
    "DEFAULT_BATCH_WINDOW_S",
    "BatcherStats",
    "MicroBatcher",
    "Reply",
    "SolveQuery",
]

#: The default batching window in seconds: ``0`` holds no query past
#: the event-loop turn that queued its burst's first query.  A positive
#: window is an explicit hold (``--batch-window-ms``).
DEFAULT_BATCH_WINDOW_S = 0.0


@dataclass(frozen=True)
class SolveQuery:
    """One schedule query: (model, costs, age).

    ``tenant`` is observability-only: the pool name the query arrived
    under (``"-"`` for inline-model queries).  It labels the per-tenant
    metrics but is deliberately **not** part of :meth:`group_key`, so
    two tenants sharing a model still share one batched solve.
    """

    distribution: AvailabilityDistribution
    costs: CheckpointCosts
    age: float
    tenant: str = "-"

    def __post_init__(self) -> None:
        if self.age < 0:
            raise ValueError(f"age must be non-negative, got {self.age}")

    def group_key(self) -> tuple[Any, ...]:
        """Queries with equal group keys share one batched dispatch."""
        return (
            self.distribution.fingerprint(),
            self.costs.checkpoint,
            self.costs.recovery,
            self.costs.latency,
        )


@dataclass
class BatcherStats:
    """Cumulative dispatch accounting (mirrored into ``serve.batch.*``)."""

    queries: int = 0
    batches: int = 0
    groups: int = 0
    solves: int = 0
    collapsed: int = 0
    errors: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "queries": self.queries,
            "batches": self.batches,
            "groups": self.groups,
            "solves": self.solves,
            "collapsed": self.collapsed,
            "errors": self.errors,
        }


#: a query's answer callback, called by the flush that answers it with
#: ``(result, None)`` or, when the query's group failed, ``(None, exc)``
Reply = Callable[[OptimalInterval | None, Exception | None], None]


@dataclass
class _Pending:
    query: SolveQuery
    reply: Reply = field(repr=False)
    #: ``time.perf_counter()`` at enqueue, for the queue-wait histogram
    enqueued: float = 0.0


class MicroBatcher:
    """Collect concurrent solve queries; answer them one flush at a time.

    Parameters
    ----------
    window_s:
        Batching window in seconds.  ``0`` (the default) flushes at the
        end of the event-loop turn that queued a burst's first query,
        so every query submitted in that turn shares the flush.  A
        positive window holds the burst: a timer is armed when its
        first query arrives, so an isolated query waits at most
        ``window_s``.
    max_batch:
        Flush immediately once this many queries are pending.
    clock:
        Returns the trace timestamp for batch spans (seconds since the
        server started, by default since batcher creation).
    on_flush:
        Called once at the end of every flush, after its last reply.
    """

    def __init__(
        self,
        *,
        window_s: float = DEFAULT_BATCH_WINDOW_S,
        max_batch: int = 256,
        clock: Callable[[], float] | None = None,
        on_flush: Callable[[], None] | None = None,
    ) -> None:
        if window_s < 0:
            raise ValueError(f"batch window must be >= 0, got {window_s}")
        if max_batch < 1:
            raise ValueError(f"max batch size must be >= 1, got {max_batch}")
        self.window_s = window_s
        self.max_batch = max_batch
        self.stats = BatcherStats()
        self._pending: list[_Pending] = []
        #: the scheduled flush of the pending burst (``call_soon`` or,
        #: with a window, ``call_later``)
        self._scheduled: asyncio.Handle | None = None
        self._on_flush = on_flush
        epoch = time.perf_counter()
        self._clock = clock if clock is not None else (lambda: time.perf_counter() - epoch)

    # ------------------------------------------------------------------
    def enqueue(self, query: SolveQuery, reply: Reply) -> None:
        """Queue a query; the flush that answers it calls ``reply``.

        Must run on the event loop (it schedules the flush); a query
        that fills the batch flushes before this returns.
        """
        self._pending.append(_Pending(query, reply, time.perf_counter()))
        self.stats.queries += 1
        if len(self._pending) >= self.max_batch:
            self._cancel_scheduled()
            self._flush()
        elif self._scheduled is None:
            loop = asyncio.get_running_loop()
            if self.window_s:
                self._scheduled = loop.call_later(self.window_s, self._scheduled_flush)
            else:
                self._scheduled = loop.call_soon(self._scheduled_flush)

    async def submit(self, query: SolveQuery) -> OptimalInterval:
        """Enqueue a query and wait for its batched result."""
        future: asyncio.Future[OptimalInterval] = asyncio.get_running_loop().create_future()

        def reply(result: OptimalInterval | None, exc: Exception | None) -> None:
            if future.done():
                return
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(cast(OptimalInterval, result))

        self.enqueue(query, reply)
        return await future

    def drain(self) -> None:
        """Flush whatever is pending right now (shutdown path)."""
        self._cancel_scheduled()
        self._flush()

    @property
    def pending(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    def _scheduled_flush(self) -> None:
        self._scheduled = None
        self._flush()

    def _cancel_scheduled(self) -> None:
        if self._scheduled is not None:
            self._scheduled.cancel()
            self._scheduled = None

    def _flush(self) -> None:
        pending, self._pending = self._pending, []
        if not pending:
            return
        reg = _metrics()
        trace = _trace_active()
        started = self._clock()
        wall0 = time.perf_counter()
        if reg is not None:
            for item in pending:
                reg.observe(
                    "serve.lifecycle.queue_wait_seconds", wall0 - item.enqueued
                )

        queries = [item.query for item in pending]
        groups: dict[tuple[Any, ...], list[int]] = {}
        for k, query in enumerate(queries):
            groups.setdefault(query.group_key(), []).append(k)
        if reg is not None:
            reg.observe(
                "serve.lifecycle.batch_group_seconds", time.perf_counter() - wall0
            )

        hits: list[bool | None] = []
        solve0 = time.perf_counter()
        results: list[OptimalInterval | Exception]
        try:
            results = list(
                optimize_intervals_batch(
                    [q.distribution for q in queries],
                    [q.costs for q in queries],
                    [q.age for q in queries],
                    cache_hits=hits,
                )
            )
        except Exception:  # reprolint: ignore[RL006] - the flush is re-solved group by group so only the failing group's waiters see the error
            results, hits = self._solve_by_group(queries, groups)
        if reg is not None:
            reg.observe("serve.lifecycle.solve_seconds", time.perf_counter() - solve0)

        batch_solves = 0
        batch_collapsed = 0
        for ks in groups.values():
            distinct = len({queries[k].age for k in ks})
            batch_solves += distinct
            batch_collapsed += len(ks) - distinct
            if reg is not None:
                outcome = [hits[k] for k in ks]
                tenant = {"tenant": queries[ks[0]].tenant}
                hit_count = outcome.count(True)
                miss_count = outcome.count(False)
                if hit_count:
                    reg.inc("serve.tenant.cache.hits", hit_count, labels=tenant)
                if miss_count:
                    reg.inc("serve.tenant.cache.misses", miss_count, labels=tenant)

        self.stats.batches += 1
        self.stats.groups += len(groups)
        self.stats.solves += batch_solves
        self.stats.collapsed += batch_collapsed
        if reg is not None:
            reg.inc("serve.batch.count")
            reg.observe("serve.batch.size", len(pending))
            reg.observe("serve.batch.groups", len(groups))
            if batch_collapsed:
                reg.inc("serve.batch.collapsed", batch_collapsed)
            reg.observe("serve.batch.solve_seconds", time.perf_counter() - wall0)
        if trace is not None:
            trace.span(
                "serve",
                "batch",
                started,
                self._clock() - started,
                args={
                    "size": len(pending),
                    "groups": len(groups),
                    "solves": batch_solves,
                    "collapsed": batch_collapsed,
                },
            )
        for item, result in zip(pending, results, strict=True):
            if isinstance(result, Exception):
                item.reply(None, result)
            else:
                item.reply(result, None)
        if self._on_flush is not None:
            self._on_flush()

    def _solve_by_group(
        self, queries: list[SolveQuery], groups: dict[tuple[Any, ...], list[int]]
    ) -> tuple[list[OptimalInterval | Exception], list[bool | None]]:
        """The error path: one solve call per group, so a group that
        raises fails only its own queries (each gets the exception).
        Rows the failed flush-wide call had already looked up count
        again in the solver cache's traffic counters; the per-tenant
        counts come from these calls only."""
        reg = _metrics()
        results: list[OptimalInterval | Exception | None] = [None] * len(queries)
        hits: list[bool | None] = [None] * len(queries)
        for ks in groups.values():
            head = queries[ks[0]]
            group_hits: list[bool | None] = []
            try:
                solved = optimize_intervals_batch(
                    head.distribution,
                    head.costs,
                    [queries[k].age for k in ks],
                    cache_hits=group_hits,
                )
            except Exception as exc:  # reprolint: ignore[RL006] - re-delivered to every waiter of the group; the daemon must outlive one bad group
                self.stats.errors += 1
                if reg is not None:
                    reg.inc("serve.batch.errors")
                for k in ks:
                    results[k] = exc
                continue
            for k, result, hit in zip(ks, solved, group_hits, strict=True):
                results[k] = result
                hits[k] = hit
        return cast("list[OptimalInterval | Exception]", results), hits
