"""Vectorized (struct-of-arrays) trace replay for machine pools.

:func:`~repro.simulation.trace_sim.replay_schedule` -- the golden
reference -- advances one machine, one availability interval, one
work/checkpoint cycle at a time in pure Python.  That is fine for a few
hundred machines and fatal for the 100k-machine availability sweeps the
policy-grid experiments need.  This module replays the same semantics as
batched array arithmetic with no per-event Python:

1. **Flatten the pool.**  Every machine's availability durations are
   concatenated into one segment array ``a`` with a parallel machine-id
   column (``np.repeat`` of ``arange`` by trace length) -- the classic
   struct-of-arrays layout.
2. **Precompute the schedule's cycle table.**  Each occupancy starts at
   uptime zero, so one schedule serves every interval.  The table
   ``cum[k] = sum_{j<k}(T_j + C + L)`` (work + transfer + commit
   latency per committed cycle) is built once, exactly as long as the
   longest post-recovery budget needs: :func:`replay_batch` first
   advances every schedule of a fitted model in lock-step
   (:func:`~repro.core.schedule.fill_schedules`, one batched solve per
   step) to its covering prefix, which the table then reads.
3. **Resolve every interval with one ``searchsorted``.**  The number of
   committed cycles in an interval with post-recovery budget ``a'`` is
   ``searchsorted(cum, a', side='right') - 1``; the remainder
   ``a' - cum[n]`` against ``T_n`` classifies the eviction phase
   (mid-work vs mid-checkpoint/latency window), and committed seconds,
   lost seconds, overhead and transferred MB under all three
   ``partial_transfer_policy`` modes fall out as ``np.where``
   arithmetic.  Per-machine totals are ``np.bincount`` reductions over
   the machine-id column.

The kernel covers the flat (non-storage) path only and emits no trace
events.  :func:`replay_batch` is the one entry point for every kind of
item: flat items go to the kernel, storage-backed items to the
table-driven storage walk of
:func:`~repro.simulation.trace_sim.replay_schedule` (each checkpoint's
size depends on its place in the store's commit cadence), and flat
items go to the scalar loop too while a
:class:`~repro.obs.tracing.TraceRecorder` is active, which keeps
recorded spans per event.  Storage items are
lock-step filled first like flat ones, so their walk reads solved
intervals only.  The scalar loop is also the golden equivalence reference
(``tests/test_batch_replay.py`` gates every ``SimulationResult`` field
to <= 1e-9 relative); ``benchmarks/test_bench_replay.py`` holds the
speedup floor.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Protocol, cast

import numpy as np

from repro.core.schedule import MAX_FILL_LENGTH, CheckpointSchedule, fill_schedules
from repro.obs.metrics import active as _metrics
from repro.obs.tracing import active as _trace_active
from repro.simulation.accounting import SimulationConfig, SimulationResult
from repro.simulation.trace_sim import replay_schedule

__all__ = [
    "BatchReplayArrays",
    "BatchReplayItem",
    "ScheduleLike",
    "replay_batch",
    "replay_flat_pool",
    "replay_schedule_batch",
]

FloatArray = np.ndarray[Any, np.dtype[np.float64]]
IntArray = np.ndarray[Any, np.dtype[np.int64]]

#: Hard ceiling on cycle-table length (cycles), bounding table memory;
#: reaching it means budgets dwarf the cycle length by ~7 orders of
#: magnitude and the scalar loop would be intractable anyway.  The same
#: ceiling as a schedule fill's.
MAX_TABLE_CYCLES = MAX_FILL_LENGTH


class ScheduleLike(Protocol):
    """The slice of :class:`~repro.core.schedule.CheckpointSchedule`
    the replay kernels consume (duck-typed so tests can pin exact
    work intervals)."""

    def intervals(self, n: int) -> list[float]: ...

    def work_interval(self, i: int) -> float: ...

    def expected_efficiency(self, i: int = 0) -> float: ...


def _no_progress_error(i: int, T: float, overhead: float) -> ValueError:
    return ValueError(
        f"degenerate schedule: work interval {i} has T={T!r} with a "
        f"per-cycle overhead of {overhead!r} -- the replay cycle makes "
        "no forward progress"
    )


def _cycle_tables(
    schedule: ScheduleLike, overhead: float, max_budget: float
) -> tuple[FloatArray, FloatArray, FloatArray, int]:
    """``(cum, T, cumT, first_bad)`` covering budgets up to ``max_budget``.

    ``cum[k] = sum_{j<k}(T_j + overhead)`` (length ``K+1``), ``T`` the
    work intervals (length ``K``), ``cumT[k] = sum_{j<k} T_j``.
    ``first_bad`` is the index of the first zero-length cycle in the
    table (``-1`` if none): committing such a cycle would never advance
    the clock, so the caller raises if any interval reaches it.

    A :class:`~repro.core.schedule.CheckpointSchedule` is read to its
    exact covering length ``K`` (the least with ``cum[K] > max_budget``),
    so no interval past coverage is solved; other schedules are read
    from a guess, doubled until it covers.
    """
    t_first = float(schedule.intervals(1)[0])
    first_cycle = t_first + overhead
    if first_cycle <= 0.0:
        # every interval with a positive budget would commit cycle 0
        # without advancing time (the scalar loop's infinite spin)
        raise _no_progress_error(0, t_first, overhead)
    if isinstance(schedule, CheckpointSchedule):
        K = schedule.cover(max_budget, overhead)
    else:
        # constant-interval schedules make the guess exact; drifting
        # ones converge within a doubling or two
        K = max(1, min(int(max_budget / first_cycle) + 2, MAX_TABLE_CYCLES))
    prev_total = -np.inf
    while True:
        T = np.asarray(schedule.intervals(K), dtype=np.float64)
        cyc = T + overhead
        cum = np.empty(K + 1, dtype=np.float64)
        cum[0] = 0.0
        np.cumsum(cyc, out=cum[1:])
        if cum[-1] > max_budget:
            break
        if cum[-1] <= prev_total or K >= MAX_TABLE_CYCLES:
            # doubling added no time: the schedule's tail cycles are all
            # zero-length (or the table ceiling was hit) and the budget
            # can never be covered
            raise _no_progress_error(int(np.argmin(cyc)), float(T.min()), overhead)
        prev_total = float(cum[-1])
        K = min(K * 2, MAX_TABLE_CYCLES)
    bad = np.flatnonzero(cyc <= 0.0)
    first_bad = int(bad[0]) if bad.size else -1
    cumT = np.empty(K + 1, dtype=np.float64)
    cumT[0] = 0.0
    np.cumsum(T, out=cumT[1:])
    return cum, T, cumT, first_bad


def _partial_mb_arr(
    size: float, elapsed: FloatArray, full_time: float, policy: str
) -> FloatArray:
    """Vector twin of ``trace_sim._partial_mb`` (scalar ``full_time``)."""
    if size <= 0.0 or policy == "none":
        return np.zeros_like(elapsed)
    if policy == "full":
        return np.full_like(elapsed, size)
    if full_time <= 0.0:
        return np.zeros_like(elapsed)
    return size * (elapsed / full_time)


@dataclass(frozen=True)
class BatchReplayArrays:
    """Struct-of-arrays outcome of a flat-pool replay.

    Index ``m`` in every array is machine ``m`` of the input pool; each
    column carries exactly what the matching :class:`SimulationResult`
    field would.  Pool-scale consumers (the statistics layer's metric
    matrices, the 100k-machine availability sweeps) reduce these arrays
    directly; :meth:`to_results` materialises the per-machine dataclass
    view, which costs far more than the replay itself at 100k machines.
    """

    checkpoint_cost: float
    predicted_efficiency: float
    n_intervals: IntArray
    total_time: FloatArray
    useful_work: FloatArray
    lost_work: FloatArray
    checkpoint_overhead: FloatArray
    recovery_overhead: FloatArray
    n_checkpoints_completed: IntArray
    n_checkpoints_attempted: IntArray
    n_recoveries_completed: IntArray
    n_recoveries_attempted: IntArray
    mb_checkpoint: FloatArray
    mb_recovery: FloatArray

    def __len__(self) -> int:
        return int(self.total_time.size)

    @property
    def efficiency(self) -> FloatArray:
        """Measured per-machine efficiency (0 for empty machines)."""
        out: FloatArray = np.divide(
            self.useful_work,
            self.total_time,
            out=np.zeros_like(self.useful_work),
            where=self.total_time > 0,
        )
        return out

    @property
    def mb_total(self) -> FloatArray:
        total: FloatArray = self.mb_checkpoint + self.mb_recovery
        return total

    def to_results(
        self,
        machine_ids: Sequence[str] | None = None,
        model_names: Sequence[str] | str = "model",
    ) -> list[SimulationResult]:
        """Materialise one :class:`SimulationResult` per machine."""
        M = len(self)
        ids: Sequence[str]
        if machine_ids is None:
            ids = [f"machine{i:06d}" for i in range(M)]
        elif len(machine_ids) != M:
            raise ValueError(f"got {len(machine_ids)} machine ids for {M} machines")
        else:
            ids = machine_ids
        names: Sequence[str]
        if isinstance(model_names, str):
            names = [model_names] * M
        elif len(model_names) != M:
            raise ValueError(f"got {len(model_names)} model names for {M} machines")
        else:
            names = model_names
        C = self.checkpoint_cost
        pred_eff = self.predicted_efficiency
        return [
            SimulationResult(
                machine_id=ids[m],
                model_name=names[m],
                checkpoint_cost=C,
                total_time=float(self.total_time[m]),
                useful_work=float(self.useful_work[m]),
                lost_work=float(self.lost_work[m]),
                checkpoint_overhead=float(self.checkpoint_overhead[m]),
                recovery_overhead=float(self.recovery_overhead[m]),
                n_intervals=int(self.n_intervals[m]),
                n_failures=int(self.n_intervals[m]),
                n_checkpoints_completed=int(self.n_checkpoints_completed[m]),
                n_checkpoints_attempted=int(self.n_checkpoints_attempted[m]),
                n_recoveries_completed=int(self.n_recoveries_completed[m]),
                n_recoveries_attempted=int(self.n_recoveries_attempted[m]),
                mb_checkpoint=float(self.mb_checkpoint[m]),
                mb_recovery=float(self.mb_recovery[m]),
                predicted_efficiency=pred_eff,
            )
            for m in range(M)
        ]


def replay_flat_pool(
    schedule: ScheduleLike,
    a: FloatArray,
    lengths: IntArray,
    config: SimulationConfig,
) -> BatchReplayArrays:
    """Replay a pre-flattened pool: the struct-of-arrays core.

    ``a`` holds every machine's availability durations concatenated;
    ``lengths[m]`` is machine ``m``'s segment count (``lengths.sum() ==
    a.size``).  This is the whole kernel -- no per-machine Python -- and
    the API of choice at 100k machines, where materialising
    :class:`SimulationResult` objects costs an order of magnitude more
    than the replay.  Supports the flat (non-storage) path only.
    """
    if config.storage_backed:
        raise ValueError(
            "batch replay supports only the flat (non-storage) path; "
            "use replay_schedule for storage-backed configs"
        )
    lengths = np.asarray(lengths, dtype=np.int64)
    a = np.asarray(a, dtype=np.float64)
    M = int(lengths.size)
    S = int(a.size)
    if int(lengths.sum()) != S or (lengths.size and bool(np.any(lengths < 0))):
        raise ValueError(
            f"segment lengths sum to {int(lengths.sum())} but the pool has {S} segments"
        )
    mid: IntArray = np.repeat(np.arange(M, dtype=np.int64), lengths)

    C = config.checkpoint_cost
    R = config.effective_recovery_cost
    L = config.latency
    size = config.checkpoint_size_mb
    policy = config.partial_transfer_policy
    reg = _metrics()
    t_wall = time.perf_counter() if reg is not None else 0.0

    if a.size and (not bool(np.all(np.isfinite(a))) or bool(np.any(a < 0.0))):
        raise ValueError("availability durations must be non-negative and finite")

    # ---- recovery phase (vectorized over all segments) ---------------
    if config.recover_on_start:
        active = R <= a
        rec_ov_seg = np.where(active, R, a)
        rec_done_seg = active.astype(np.int64)
        if config.count_recovery_bandwidth:
            mb_rec_seg = np.where(
                active, size, _partial_mb_arr(size, a, R, policy)
            )
        else:
            mb_rec_seg = np.zeros(S, dtype=np.float64)
        ap = np.where(active, a - R, 0.0)
        rec_try_m = lengths.astype(np.float64)
    else:
        active = np.ones(S, dtype=bool)
        rec_ov_seg = np.zeros(S, dtype=np.float64)
        rec_done_seg = np.zeros(S, dtype=np.int64)
        mb_rec_seg = np.zeros(S, dtype=np.float64)
        ap = a
        rec_try_m = np.zeros(M, dtype=np.float64)

    # ---- work / checkpoint cycles: one searchsorted per pool ---------
    max_ap = float(ap.max()) if S else 0.0
    table_cycles = 0
    if max_ap > 0.0:
        cum, Tarr, cumT, first_bad = _cycle_tables(schedule, C + L, max_ap)
        if first_bad >= 0 and bool(np.any(ap > cum[first_bad])):
            # the scalar loop raises when it *enters* a zero-length
            # cycle; an interval reaches cycle k when its budget
            # exceeds cum[k]
            raise _no_progress_error(first_bad, float(Tarr[first_bad]), C + L)
        table_cycles = int(Tarr.size)
        n: IntArray = np.searchsorted(cum, ap, side="right").astype(np.int64) - 1
        np.minimum(n, Tarr.size - 1, out=n)
        # segments whose recovery failed carry ap == 0, which resolves
        # to n == 0, r == 0 and zero everything below -- no extra mask
        r = ap - cum[n]
        Tn = Tarr[n]
        # eviction phase: the exact-fit boundary r == Tn counts as
        # mid-work (no transfer ever started), matching replay_schedule
        midckpt = r > Tn
        elapsed = np.where(midckpt, r - Tn, 0.0)
        useful_seg = cumT[n]
        lost_seg = np.where(midckpt, Tn, r)
        ckpt_ov_seg = n * (C + L) + elapsed
        done_seg: IntArray = n
        try_seg: IntArray = done_seg + midckpt.astype(np.int64)
        # committed transfers bill the full image under every policy;
        # an eviction past the C-second wire phase (inside the latency
        # window) left the whole image on the wire, uncommitted
        evicted_full = midckpt & (elapsed >= C)
        mb_evict = np.where(
            evicted_full,
            size,
            np.where(
                midckpt,
                _partial_mb_arr(size, np.minimum(elapsed, C), C, policy),
                0.0,
            ),
        )
        mb_ckpt_seg = done_seg * size + mb_evict
    else:
        useful_seg = np.zeros(S, dtype=np.float64)
        lost_seg = np.zeros(S, dtype=np.float64)
        ckpt_ov_seg = np.zeros(S, dtype=np.float64)
        done_seg = np.zeros(S, dtype=np.int64)
        try_seg = np.zeros(S, dtype=np.int64)
        mb_ckpt_seg = np.zeros(S, dtype=np.float64)

    # ---- per-machine reductions --------------------------------------
    def _bsum(seg: FloatArray | IntArray) -> FloatArray:
        out: FloatArray = np.bincount(mid, weights=seg, minlength=M)
        return out

    useful_m = _bsum(useful_seg)
    lost_m = _bsum(lost_seg)
    ckpt_ov_m = _bsum(ckpt_ov_seg)
    rec_ov_m = _bsum(rec_ov_seg)
    mb_ckpt_m = _bsum(mb_ckpt_seg)
    mb_rec_m = _bsum(mb_rec_seg)
    total_m = _bsum(a)
    done_m = _bsum(done_seg)
    try_m = _bsum(try_seg)
    rec_done_m = _bsum(rec_done_seg)

    out = BatchReplayArrays(
        checkpoint_cost=C,
        predicted_efficiency=float(schedule.expected_efficiency(0)),
        n_intervals=lengths,
        total_time=total_m,
        useful_work=useful_m,
        lost_work=lost_m,
        checkpoint_overhead=ckpt_ov_m,
        recovery_overhead=rec_ov_m,
        n_checkpoints_completed=done_m.astype(np.int64),
        n_checkpoints_attempted=try_m.astype(np.int64),
        n_recoveries_completed=rec_done_m.astype(np.int64),
        n_recoveries_attempted=rec_try_m.astype(np.int64),
        mb_checkpoint=mb_ckpt_m,
        mb_recovery=mb_rec_m,
    )

    if reg is not None:
        wall = time.perf_counter() - t_wall
        reg.inc("sim.replays", float(M))
        reg.inc("sim.machine_seconds", float(a.sum()))
        reg.inc("sim.checkpoints.attempted", float(try_m.sum()))
        reg.inc("sim.checkpoints.completed", float(done_m.sum()))
        reg.inc("link.transferred_mb", float(mb_ckpt_m.sum() + mb_rec_m.sum()))
        reg.inc("sim.batch.calls")
        reg.inc("sim.batch.machines", float(M))
        reg.inc("sim.batch.segments", float(S))
        if table_cycles:
            reg.observe("sim.batch.table_cycles", float(table_cycles))
        reg.observe("sim.replay_seconds", wall)
        reg.observe("sim.batch.replay_seconds", wall)
    return out


def replay_schedule_batch(
    schedule: ScheduleLike,
    durations_list: Sequence[Any],
    config: SimulationConfig,
    *,
    machine_ids: Sequence[str] | None = None,
    model_names: Sequence[str] | str = "model",
) -> list[SimulationResult]:
    """Replay many machines' traces against one shared schedule.

    The batched equivalent of calling
    :func:`~repro.simulation.trace_sim.replay_schedule` once per entry
    of ``durations_list``: one :class:`SimulationResult` per machine, in
    input order, every field matching the scalar loop to <= 1e-9
    relative (counts exactly).  A thin flatten-and-materialise wrapper
    over :func:`replay_flat_pool`; at very large pool sizes prefer that
    core directly -- the array-to-dataclass conversion here dominates
    the replay itself.
    """
    M = len(durations_list)
    arrs = [np.asarray(d, dtype=np.float64).ravel() for d in durations_list]
    lengths: IntArray = np.fromiter((d.size for d in arrs), dtype=np.int64, count=M)
    a: FloatArray = (
        np.concatenate(arrs) if arrs else np.empty(0, dtype=np.float64)
    )
    batch = replay_flat_pool(schedule, a, lengths, config)
    return batch.to_results(machine_ids, model_names)


@dataclass(frozen=True)
class BatchReplayItem:
    """One (schedule, trace, config) unit of a heterogeneous batch."""

    schedule: ScheduleLike
    durations: Any
    config: SimulationConfig
    machine_id: str = "machine"
    model_name: str = "model"


def _fill_need(durations: Any, config: SimulationConfig) -> tuple[float, float] | None:
    """``(budget, overhead)`` a schedule must cover for one item, or
    ``None`` when the durations are invalid (the replay raises on them).

    A flat item's budget is its longest post-recovery budget
    :func:`replay_flat_pool` will see (the same float: ``a - R`` is
    monotone in ``a``), at the kernel's cycle overhead ``C + L``.  A
    storage item's budget is its longest occupancy, with no ``R``
    subtracted (a recovery prices a variable restore chain, at least 0
    seconds), at overhead ``L``: each store cycle costs at least
    ``T + L``, so the storage walk reads no interval past this cover.
    """
    storage = config.storage_backed
    overhead = config.latency if storage else config.checkpoint_cost + config.latency
    a = np.asarray(durations, dtype=np.float64)
    if a.size == 0:
        return 0.0, overhead
    top = float(a.max())
    if not np.isfinite(top) or float(a.min()) < 0.0:
        return None
    if config.recover_on_start and not storage:
        R = config.effective_recovery_cost
        return (top - R if R <= top else 0.0), overhead
    return top, overhead


def _fill_lockstep(items: Sequence[BatchReplayItem]) -> None:
    """Solve every item's schedule to its covering prefix, one lock-step
    fill per fitted model (schedules sharing a distribution object).

    A schedule is filled to its items' longest budget at their smallest
    cycle overhead, which covers every one of its items.
    """
    need: dict[int, tuple[CheckpointSchedule, float, float]] = {}
    for item in items:
        sched = item.schedule
        if not isinstance(sched, CheckpointSchedule):
            continue
        fill = _fill_need(item.durations, item.config)
        if fill is None:
            continue
        budget, overhead = fill
        prev = need.get(id(sched))
        if prev is not None:
            budget, overhead = max(budget, prev[1]), min(overhead, prev[2])
        need[id(sched)] = (sched, budget, overhead)
    models: dict[int, list[tuple[CheckpointSchedule, float, float]]] = {}
    for entry in need.values():
        models.setdefault(id(entry[0].distribution), []).append(entry)
    for group in models.values():
        fill_schedules(
            [sched for sched, _, _ in group],
            [budget for _, budget, _ in group],
            [overhead for _, _, overhead in group],
        )


def replay_batch(items: Sequence[BatchReplayItem]) -> list[SimulationResult]:
    """Replay heterogeneous items, vectorizing within groups.

    Every schedule is first solved to exactly the prefix its replays
    read, in lock-step with the other schedules of its fitted model
    (one batched solve per step).  Flat items sharing a schedule *and*
    a config object (identity, not equality: the pool runner builds
    exactly one of each per sweep point) are then flattened into one
    kernel invocation.  Storage-backed items replay one by one through
    the table-driven storage walk.  While a trace recorder is active,
    nothing is filled ahead and every item replays one by one through
    :func:`~repro.simulation.trace_sim.replay_schedule`, solving
    lazily, so the recorded events are exactly those of
    :func:`~repro.simulation.trace_sim.simulate_trace` per item.
    Results come back in input order.
    """
    traced = _trace_active() is not None
    if not traced:
        _fill_lockstep(items)
    groups: dict[tuple[int, int], list[int]] = {}
    out: list[SimulationResult | None] = [None] * len(items)
    for idx, item in enumerate(items):
        if traced or item.config.storage_backed:
            # the scalar loop and the storage walk read only
            # work_interval/expected_efficiency
            out[idx] = replay_schedule(
                cast("CheckpointSchedule", item.schedule),
                np.asarray(item.durations, dtype=np.float64).ravel(),
                item.config,
                machine_id=item.machine_id,
                model_name=item.model_name,
            )
        else:
            groups.setdefault((id(item.schedule), id(item.config)), []).append(idx)
    for idxs in groups.values():
        first = items[idxs[0]]
        chunk = replay_schedule_batch(
            first.schedule,
            [items[i].durations for i in idxs],
            first.config,
            machine_ids=[items[i].machine_id for i in idxs],
            model_names=[items[i].model_name for i in idxs],
        )
        for i, res in zip(idxs, chunk, strict=True):
            out[i] = res
    return cast("list[SimulationResult]", out)
