"""Trace replay of the recovery/work/checkpoint cycle, for whole pools.

This is the paper's Section 5.1 simulator: given a machine's sequence of
availability durations and a schedule, replay a long-running job that,
within each availability interval, restores its last checkpoint,
computes the schedule's work intervals ``T_0, T_1, ...`` and alternates
work and checkpoints until the owner reclaims the machine, losing
whatever work was not yet committed.  :func:`replay_batch` is the one
replay in the package; it chooses between two paths per item.

**Flat items** (``checkpoint_size_mb`` transfers, no storage policy) go
to the struct-of-arrays kernel :func:`replay_flat_pool`, which replays
whole pools as batched array arithmetic with no per-cycle Python:

1. **Flatten the pool.**  Every machine's availability durations are
   concatenated into one segment array ``a`` with a parallel machine-id
   column (``np.repeat`` of ``arange`` by trace length) -- the classic
   struct-of-arrays layout.
2. **Precompute the schedule's cycle table.**  Each occupancy starts at
   uptime zero, so one schedule serves every interval.  The table
   ``cum[k] = sum_{j<k}(T_j + C + L)`` (work + transfer + commit
   latency per committed cycle) is built once, exactly as long as the
   longest post-recovery budget needs: :func:`replay_batch` first
   advances every schedule of the batch in lock-step
   (:func:`~repro.core.schedule.fill_schedules`, one batched solve per
   step across every fitted model) to its covering prefix, which the
   table then reads.
3. **Resolve every interval with one ``searchsorted``.**  The number of
   committed cycles in an interval with post-recovery budget ``a'`` is
   ``searchsorted(cum, a', side='right') - 1``; the remainder
   ``a' - cum[n]`` against ``T_n`` classifies the eviction phase
   (mid-work vs mid-checkpoint/latency window), and committed seconds,
   lost seconds, overhead and transferred MB under all three
   ``partial_transfer_policy`` modes fall out as ``np.where``
   arithmetic.  Per-machine totals are ``np.bincount`` reductions over
   the machine-id column.

While a :class:`~repro.obs.tracing.TraceRecorder` is active the kernel
also records each phase's span from those per-segment arrays.

**Storage-backed items** replay through a table-driven walk
(:func:`_replay_with_storage`): each checkpoint's size depends on its
place in the store's commit cadence, so the walk steps commit by commit.

The per-cycle loops these paths replaced are kept in ``tests/`` as
oracles: ``tests/test_batch_replay.py`` gates the kernel against
``tests/replay_oracle.py`` (every ``SimulationResult`` field to
<= 1e-9 relative, and the recorded spans), ``tests/test_storage_walk.py``
gates the walk bitwise against ``tests/storage_replay_oracle.py``, and
``benchmarks/test_bench_replay.py`` holds the kernel's speedup floor.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Protocol, cast

import numpy as np

from repro.core.schedule import MAX_FILL_LENGTH, CheckpointSchedule, fill_schedules
from repro.obs.metrics import active as _metrics
from repro.obs.tracing import TraceRecorder, active as _trace_active
from repro.simulation.accounting import SimulationConfig, SimulationResult
from repro.storage.store import CheckpointStore, PlannedCheckpoint, record_commit

__all__ = [
    "BatchReplayArrays",
    "BatchReplayItem",
    "ScheduleLike",
    "replay_batch",
    "replay_flat_pool",
]

FloatArray = np.ndarray[Any, np.dtype[np.float64]]
IntArray = np.ndarray[Any, np.dtype[np.int64]]

#: Hard ceiling on cycle-table length (cycles), bounding table memory;
#: reaching it means budgets dwarf the cycle length by ~7 orders of
#: magnitude.  The same ceiling as a schedule fill's.
MAX_TABLE_CYCLES = MAX_FILL_LENGTH


class ScheduleLike(Protocol):
    """The slice of :class:`~repro.core.schedule.CheckpointSchedule`
    a replay reads (duck-typed so tests and ablations can pin exact
    work intervals)."""

    def work_interval(self, i: int) -> float: ...

    def expected_efficiency(self, i: int = 0) -> float: ...


def _no_progress_error(i: int, T: float, overhead: float) -> ValueError:
    return ValueError(
        f"degenerate schedule: work interval {i} has T={T!r} with a "
        f"per-cycle overhead of {overhead!r} -- the replay cycle makes "
        "no forward progress"
    )


def _check_durations(a: FloatArray) -> None:
    if a.size and (not bool(np.all(np.isfinite(a))) or bool(np.any(a < 0.0))):
        raise ValueError("availability durations must be non-negative and finite")


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
    through ``work_interval`` from a guess, doubled until it covers.
    """

    def read(n: int) -> Sequence[float]:
        if isinstance(schedule, CheckpointSchedule):
            return schedule.intervals(n)
        return [schedule.work_interval(i) for i in range(n)]

    t_first = float(schedule.work_interval(0))
    first_cycle = t_first + overhead
    if first_cycle <= 0.0:
        # every interval with a positive budget would commit cycle 0
        # without advancing time (an endless replay)
        raise _no_progress_error(0, t_first, overhead)
    if isinstance(schedule, CheckpointSchedule):
        K = schedule.cover(max_budget, overhead)
    else:
        # constant-interval schedules make the guess exact; drifting
        # ones converge within a doubling or two
        K = max(1, min(int(max_budget / first_cycle) + 2, MAX_TABLE_CYCLES))
    prev_total = -np.inf
    while True:
        T = np.asarray(read(K), dtype=np.float64)
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


def _partial_mb(size_mb: float, elapsed: float, full_time: float, policy: str) -> float:
    """Bytes billed for a transfer of ``size_mb`` evicted after ``elapsed``
    of its ``full_time`` seconds (storage-agnostic partial accounting)."""
    if size_mb <= 0.0:
        return 0.0
    if policy == "full":
        return size_mb
    if policy == "none":
        return 0.0
    # proportional: bytes actually on the wire before eviction
    return size_mb * (elapsed / full_time) if full_time > 0 else 0.0


def _partial_mb_arr(
    size: float, elapsed: FloatArray, full_time: float, policy: str
) -> FloatArray:
    """Vector twin of :func:`_partial_mb` (scalar ``full_time``)."""
    if size <= 0.0 or policy == "none":
        return np.zeros_like(elapsed)
    if policy == "full":
        return np.full_like(elapsed, size)
    if full_time <= 0.0:
        return np.zeros_like(elapsed)
    return size * (elapsed / full_time)


def _default_ids(M: int) -> list[str]:
    return [f"machine{i:06d}" for i in range(M)]


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
            ids = _default_ids(M)
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
    *,
    machine_ids: Sequence[str] | None = None,
) -> BatchReplayArrays:
    """Replay a pre-flattened pool: the struct-of-arrays core.

    ``a`` holds every machine's availability durations concatenated;
    ``lengths[m]`` is machine ``m``'s segment count (``lengths.sum() ==
    a.size``).  This is the whole kernel -- no per-machine Python -- and
    the API of choice at 100k machines, where materialising
    :class:`SimulationResult` objects costs an order of magnitude more
    than the replay.  Supports the flat (non-storage) path only.

    While a trace recorder is active, each recorded event costs Python
    time too: machine ``m``'s spans and points are recorded on track
    ``machine_ids[m]`` (default: the ids
    :meth:`BatchReplayArrays.to_results` gives).
    """
    if config.storage_backed:
        raise ValueError(
            "batch replay supports only the flat (non-storage) path; "
            "use replay_batch for storage-backed configs"
        )
    lengths = np.asarray(lengths, dtype=np.int64)
    a = np.asarray(a, dtype=np.float64)
    M = int(lengths.size)
    S = int(a.size)
    if M and int(lengths.min()) < 0:
        raise ValueError(f"a segment count is negative: {int(lengths.min())}")
    if int(lengths.sum()) != S:
        raise ValueError(
            f"segment lengths sum to {int(lengths.sum())} but the pool has {S} segments"
        )
    if machine_ids is not None and len(machine_ids) != M:
        raise ValueError(f"got {len(machine_ids)} machine ids for {M} machines")
    _check_durations(a)
    mid: IntArray = np.repeat(np.arange(M, dtype=np.int64), lengths)

    C = config.checkpoint_cost
    R = config.effective_recovery_cost
    L = config.latency
    size = config.checkpoint_size_mb
    policy = config.partial_transfer_policy
    reg = _metrics()
    tr = _trace_active()
    t_wall = time.perf_counter() if reg is not None else 0.0

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
            # the per-cycle loop raises when it *enters* a zero-length
            # cycle; an interval reaches cycle k when its budget
            # exceeds cum[k]
            raise _no_progress_error(first_bad, float(Tarr[first_bad]), C + L)
        table_cycles = int(Tarr.size)
    else:
        # no segment has time left after recovery: a one-cycle table of
        # infinite work resolves every one to "nothing committed, nothing
        # lost" without reading the schedule
        cum = np.array([0.0, np.inf])
        Tarr = np.array([np.inf])
        cumT = np.zeros(2)
    n: IntArray = np.searchsorted(cum, ap, side="right").astype(np.int64) - 1
    np.minimum(n, Tarr.size - 1, out=n)
    # segments whose recovery failed carry ap == 0, which resolves to
    # n == 0, r == 0 and zero everything below -- no extra mask
    r = ap - cum[n]
    Tn = Tarr[n]
    # eviction phase: the exact-fit boundary r == Tn counts as mid-work
    # (no transfer ever started)
    midckpt = r > Tn
    elapsed = np.where(midckpt, r - Tn, 0.0)
    useful_seg = cumT[n]
    lost_seg = np.where(midckpt, Tn, r)
    ckpt_ov_seg = n * (C + L) + elapsed
    try_seg: IntArray = n + midckpt.astype(np.int64)
    # committed transfers bill the full image under every policy; an
    # eviction past the C-second wire phase (inside the latency window)
    # left the whole image on the wire, uncommitted
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
    mb_ckpt_seg = n * size + mb_evict

    if tr is not None:
        _record_spans(
            tr,
            _default_ids(M) if machine_ids is None else machine_ids,
            lengths,
            config,
            cum,
            Tarr,
            (a, active, mb_rec_seg, n, r, midckpt, elapsed, mb_evict),
        )

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
    done_m = _bsum(n)
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


def _record_spans(
    tr: TraceRecorder,
    tracks: Sequence[str],
    lengths: IntArray,
    config: SimulationConfig,
    cum: FloatArray,
    T: FloatArray,
    segments: tuple[np.ndarray[Any, Any], ...],
) -> None:
    """Record a flat replay's spans and points from the kernel's
    per-segment arrays.

    Per track this is the event sequence a per-cycle replay records
    (``tests/replay_oracle.py``): the same spans and points, arguments
    and order, with times formed from the cycle table ``cum`` (equal to
    the loop's running clock within float rounding).  ``segments`` holds
    the per-segment duration, recovery success, recovery megabytes,
    committed cycles, remainder past them, mid-checkpoint flag, seconds
    into that checkpoint and its megabytes.
    """
    C = config.checkpoint_cost
    CL = C + config.latency
    recover = config.recover_on_start
    R = config.effective_recovery_cost if recover else 0.0
    span, point = tr.span, tr.point
    # the recorder copies ``args``, so a committed cycle's can be shared
    committed = {"committed": True}
    committed_ckpt = {"committed": True, "mb": config.checkpoint_size_mb}
    committed_wire = {"mb": config.checkpoint_size_mb, "phase": "checkpoint"}
    evicted = {"committed": False}
    cum_l, T_l = cum.tolist(), T.tolist()
    rows = zip(*(col.tolist() for col in segments), strict=True)
    for track, count in zip(tracks, lengths.tolist(), strict=True):
        base = 0.0  # the track's clock at the segment's start
        for a_s, ok, rec_mb, n_s, r_s, mid, el, ev_mb in itertools.islice(rows, count):
            if recover:
                dur = R if ok else a_s
                span("replay", "recovery", base, dur, track=track, args={"committed": ok})
                span("link", "transfer", base, dur, track=track, args={"mb": rec_mb, "phase": "recovery"})
            t0 = base + R
            for k in range(n_s):
                ts, Tk = t0 + cum_l[k], T_l[k]
                end = ts + Tk
                span("replay", "work", ts, Tk, track=track, args=committed)
                span("replay", "checkpoint", end, CL, track=track, args=committed_ckpt)
                span("link", "transfer", end, C, track=track, args=committed_wire)
            if mid:
                ts, Tk = t0 + cum_l[n_s], T_l[n_s]
                span("replay", "work", ts, Tk, track=track, args=evicted)
                span("replay", "checkpoint", ts + Tk, el, track=track, args={"committed": False, "mb": ev_mb})
                span("link", "transfer", ts + Tk, min(el, C), track=track, args={"mb": ev_mb, "phase": "checkpoint"})
            elif r_s > 0.0:
                span("replay", "work", t0 + cum_l[n_s], r_s, track=track, args=evicted)
            point("replay", "failure", ts=base + a_s, track=track)
            base += a_s


def _replay_with_storage(
    schedule: ScheduleLike,
    durations: np.ndarray,
    config: SimulationConfig,
    *,
    machine_id: str,
    model_name: str,
) -> SimulationResult:
    """The storage-aware replay: one table-driven walk over the trace.

    The store persists across occupancies (it lives at the checkpoint
    manager, which does not fail when the harvested machine is
    reclaimed), so restore chains built in one occupancy price the next
    occupancy's recovery.  The link bandwidth is the one implied by
    "``checkpoint_cost`` seconds per full uncompressed image"; with
    ``checkpoint_cost == 0`` transfers are instantaneous and only
    compression CPU (if any) takes time.

    No snapshot is committed to a :class:`CheckpointStore`.  Each
    commit's kind is the policy's cadence at the commit counter
    (:meth:`~repro.storage.policy.StoragePolicy.commit_kind`), and its
    size a plan the store sizes once per kind and work-interval index:
    one full plan, one delta plan per index.  So the walk carries only
    the commit count and the restore chain's megabytes; the snapshot
    counts and the final footprint follow from the cadence.  Every
    float is formed in the order a store-driven loop forms it, so
    results, counters and trace events are bitwise that loop's.
    """
    _check_durations(durations)
    C = config.checkpoint_cost
    L = config.latency
    size = config.checkpoint_size_mb
    policy = config.partial_transfer_policy
    store = CheckpointStore(config.storage, size)
    cadence = store.policy
    bw = size / C if C > 0 else math.inf
    reg = _metrics()
    tr = _trace_active()
    t_wall = time.perf_counter() if reg is not None else 0.0

    def sized(T: float, kind: str) -> tuple[PlannedCheckpoint, float, float]:
        """A plan with its wire seconds and whole checkpoint time."""
        plan = store.plan_checkpoint(T, kind=kind)
        wire_time = plan.wire_mb / bw if math.isfinite(bw) else 0.0
        # commit latency L is billed after the CPU + wire phases,
        # mirroring the flat path (see replay_flat_pool)
        return plan, wire_time, plan.cpu_seconds + wire_time + L

    full = sized(0.0, "full")
    boot_mb = store.restore_chain_mb()
    # per work-interval index: T_i and its delta plan, grown on demand
    Ts: list[float] = []
    deltas: list[tuple[PlannedCheckpoint, float, float]] = []

    useful = 0.0
    lost = 0.0
    ckpt_overhead = 0.0
    rec_overhead = 0.0
    mb_ckpt = 0.0
    mb_rec = 0.0
    n_aborted = 0  # checkpoint attempts evicted before their commit
    n_rec_done = 0
    n_rec_try = 0
    c = 0  # snapshots committed so far
    chain_mb = 0.0  # the restore chain's megabytes (0 before any commit)
    gc_freed = 0.0
    full_next = True  # the cadence's kind for commit c
    base = 0.0  # machine-timeline offset of the current interval's start

    for a in durations:
        t = 0.0
        # ---- recovery phase: fetch the restore chain ----------------
        if config.recover_on_start:
            rec_mb = chain_mb if c else boot_mb
            R_i = rec_mb / bw if math.isfinite(bw) else 0.0
            n_rec_try += 1
            if tr is not None:
                tr.point(
                    "storage", "restore_chain", ts=base, track=machine_id,
                    args={"mb": rec_mb, "chain_len": cadence.chain_length(c)},
                )
            if t + R_i <= a:
                t += R_i
                rec_overhead += R_i
                n_rec_done += 1
                billed = rec_mb if config.count_recovery_bandwidth else 0.0
                mb_rec += billed
                if tr is not None:
                    tr.span("replay", "recovery", base, R_i, track=machine_id, args={"committed": True})
                    tr.span("link", "transfer", base, R_i, track=machine_id, args={"mb": billed, "phase": "recovery"})
            else:
                elapsed = a - t
                rec_overhead += elapsed
                billed = (
                    _partial_mb(rec_mb, elapsed, R_i, policy)
                    if config.count_recovery_bandwidth
                    else 0.0
                )
                mb_rec += billed
                if tr is not None:
                    tr.span("replay", "recovery", base, elapsed, track=machine_id, args={"committed": False})
                    tr.span("link", "transfer", base, elapsed, track=machine_id, args={"mb": billed, "phase": "recovery"})
                    tr.point("replay", "failure", ts=base + a, track=machine_id)
                base += a
                continue  # eviction during recovery: interval exhausted
        # ---- work / checkpoint cycles -------------------------------
        i = 0
        while t < a:
            if i == len(Ts):
                # a new index: solved lazily unless a fill already did
                Ts.append(schedule.work_interval(i))
                deltas.append(sized(Ts[i], "delta"))
            T = Ts[i]
            if t + T > a:
                lost += a - t  # eviction mid-work
                if tr is not None:
                    tr.span("replay", "work", base + t, a - t, track=machine_id, args={"committed": False})
                t = a
                break
            plan, wire_time, ckpt_time = full if full_next else deltas[i]
            if T + ckpt_time <= 0.0:
                # a zero-length cycle would commit without advancing the
                # clock: the replay would spin forever on this interval
                raise ValueError(
                    f"degenerate schedule: work interval {i} has "
                    f"T={T!r} with a zero-cost checkpoint -- the replay "
                    "cycle makes no forward progress"
                )
            if t + T + ckpt_time <= a:
                useful += T
                ckpt_overhead += ckpt_time
                mb_ckpt += plan.wire_mb
                if tr is not None:
                    tr.span("replay", "work", base + t, T, track=machine_id, args={"committed": True})
                    tr.span(
                        "replay", "checkpoint", base + t + T, ckpt_time, track=machine_id,
                        args={"committed": True, "mb": plan.wire_mb, "kind": plan.kind},
                    )
                    if plan.cpu_seconds > 0.0:
                        tr.span("storage", "compress", base + t + T, plan.cpu_seconds, track=machine_id)
                    tr.span(
                        "link", "transfer", base + t + T + plan.cpu_seconds, wire_time,
                        track=machine_id, args={"mb": plan.wire_mb, "phase": "checkpoint"},
                    )
                if reg is not None or tr is not None:
                    # store events are stamped explicitly at the cycle
                    # end; the recorder's instrumentation clock is not
                    # ours to mutate (the DES engine owns it)
                    record_commit(
                        plan.kind, plan.wire_mb, plan.raw_mb, c,
                        ts=base + t + T + ckpt_time,
                        dropped=cadence.chain_length(c) if full_next else 0,
                        freed_mb=chain_mb,
                    )
                # commit: a full image retires the old chain to GC
                if full_next:
                    gc_freed += chain_mb
                    chain_mb = 0.0
                chain_mb += plan.wire_mb
                c += 1
                full_next = cadence.commit_kind(c) == "full"
                t += T + ckpt_time
                i += 1
            elif t + T >= a:
                # eviction mid-work, including the exact-fit boundary
                # t + T == a: the owner reclaims the machine at (or
                # before) the instant the transfer could begin, so no
                # checkpoint is attempted and no bytes are billed
                lost += a - t
                if tr is not None:
                    tr.span("replay", "work", base + t, a - t, track=machine_id, args={"committed": False})
                t = a
                break
            else:
                # eviction mid-checkpoint: the interval's work is lost
                # and the snapshot is never committed to the store
                elapsed = a - (t + T)
                lost += T
                ckpt_overhead += elapsed
                n_aborted += 1
                # compression runs before bytes flow: only time past the
                # CPU phase moved data; an eviction inside the latency
                # window leaves the full payload on the wire
                if elapsed >= plan.cpu_seconds + wire_time:
                    billed = plan.wire_mb
                else:
                    wire_elapsed = max(0.0, elapsed - plan.cpu_seconds)
                    billed = _partial_mb(plan.wire_mb, wire_elapsed, wire_time, policy)
                mb_ckpt += billed
                if tr is not None:
                    tr.span("replay", "work", base + t, T, track=machine_id, args={"committed": False})
                    tr.span(
                        "replay", "checkpoint", base + t + T, elapsed, track=machine_id,
                        args={"committed": False, "mb": billed, "kind": plan.kind},
                    )
                    cpu_elapsed = min(elapsed, plan.cpu_seconds)
                    if cpu_elapsed > 0.0:
                        tr.span("storage", "compress", base + t + T, cpu_elapsed, track=machine_id)
                    wire_span = min(max(0.0, elapsed - plan.cpu_seconds), wire_time)
                    if wire_span > 0.0 or billed > 0.0:
                        # billed > 0 with no wire time happens under the
                        # "full" partial-transfer policy: the attempt is
                        # billed even though no bytes flowed yet
                        tr.span(
                            "link", "transfer", base + t + T + cpu_elapsed, wire_span,
                            track=machine_id, args={"mb": billed, "phase": "checkpoint"},
                        )
                t = a
                break
        if tr is not None:
            tr.point("replay", "failure", ts=base + a, track=machine_id)
        base += a

    n_ckpt_try = c + n_aborted
    if reg is not None:
        reg.inc("sim.replays")
        reg.inc("sim.machine_seconds", float(durations.sum()))
        reg.inc("sim.checkpoints.attempted", n_ckpt_try)
        reg.inc("sim.checkpoints.completed", c)
        reg.inc("link.transferred_mb", mb_ckpt + mb_rec)
        reg.observe("sim.replay_seconds", time.perf_counter() - t_wall)

    n_full = cadence.count_fulls(c)
    return SimulationResult(
        machine_id=machine_id,
        model_name=model_name,
        checkpoint_cost=C,
        total_time=float(durations.sum()),
        useful_work=useful,
        lost_work=lost,
        checkpoint_overhead=ckpt_overhead,
        recovery_overhead=rec_overhead,
        n_intervals=int(durations.size),
        n_failures=int(durations.size),
        n_checkpoints_completed=c,
        n_checkpoints_attempted=n_ckpt_try,
        n_recoveries_completed=n_rec_done,
        n_recoveries_attempted=n_rec_try,
        mb_checkpoint=mb_ckpt,
        mb_recovery=mb_rec,
        predicted_efficiency=schedule.expected_efficiency(0),
        n_full_checkpoints=n_full,
        n_delta_checkpoints=c - n_full,
        max_restore_chain_len=cadence.max_chain_length(c),
        mb_stored_final=chain_mb,
        mb_gc_freed=gc_freed,
    )


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
    """Solve every item's schedule to its covering prefix in one
    lock-step fill across every fitted model.

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
    fill_schedules(
        [sched for sched, _, _ in need.values()],
        [budget for _, budget, _ in need.values()],
        [overhead for _, _, overhead in need.values()],
    )


def _as_durations(durations: Any) -> FloatArray:
    out: FloatArray = np.asarray(durations, dtype=np.float64).ravel()
    return out


def _replay_flat_items(items: Sequence[BatchReplayItem]) -> list[SimulationResult]:
    """Replay flat items sharing one schedule and one config as one pool."""
    traces = [_as_durations(item.durations) for item in items]
    ids = [item.machine_id for item in items]
    pool = replay_flat_pool(
        items[0].schedule,
        np.concatenate(traces),
        np.array([d.size for d in traces], dtype=np.int64),
        items[0].config,
        machine_ids=ids,
    )
    return pool.to_results(ids, [item.model_name for item in items])


def replay_batch(items: Sequence[BatchReplayItem]) -> list[SimulationResult]:
    """Replay heterogeneous items, vectorizing within groups.

    Every schedule is first solved to exactly the prefix its replays
    read, in lock-step with every other schedule of the batch (one
    batched solve per step across all their fitted models).  Flat items sharing a schedule *and*
    a config object (identity, not equality: the pool runner builds
    exactly one of each per sweep point) are then flattened into one
    :func:`replay_flat_pool` call, made when the group's first item
    comes up.  Storage-backed items replay one by one through the
    table-driven storage walk.  While a trace recorder is active,
    nothing is filled ahead: the kernel solves each schedule to its
    cover before recording the group's spans, and the storage walk
    solves lazily, interval by interval.  Results come back in input
    order.
    """
    if _trace_active() is None:
        _fill_lockstep(items)
    groups: dict[tuple[int, int], list[int]] = {}
    for idx, item in enumerate(items):
        if not item.config.storage_backed:
            groups.setdefault((id(item.schedule), id(item.config)), []).append(idx)
    out: list[SimulationResult | None] = [None] * len(items)
    for idx, item in enumerate(items):
        if item.config.storage_backed:
            out[idx] = _replay_with_storage(
                item.schedule,
                _as_durations(item.durations),
                item.config,
                machine_id=item.machine_id,
                model_name=item.model_name,
            )
        elif out[idx] is None:
            idxs = groups[(id(item.schedule), id(item.config))]
            for i, res in zip(idxs, _replay_flat_items([items[i] for i in idxs]), strict=True):
                out[i] = res
    return cast("list[SimulationResult]", out)
