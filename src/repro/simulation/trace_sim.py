"""Deterministic trace replay of the recovery/work/checkpoint cycle.

This is the paper's Section 5.1 simulator: given a machine's sequence of
availability durations and a fitted model, replay a long-running job
that, within each availability interval,

1. restores its last checkpoint (``R`` seconds of transfer),
2. computes the model's aperiodic schedule ``T_opt(0), T_opt(1), ...``
   (conditioned on the machine's uptime at each work-interval start),
3. alternates work and ``C``-second checkpoints until the owner reclaims
   the machine, losing whatever work was not yet checkpointed.

Because each occupancy starts at uptime zero, the schedule for a given
(model, costs) pair is identical across intervals -- the simulator
exploits this by reusing one lazily-extended
:class:`~repro.core.schedule.CheckpointSchedule` for the whole trace,
which is what makes full pool sweeps laptop-tractable.

With ``config.storage`` set, checkpoints flow through the storage
subsystem instead of being flat ``checkpoint_size_mb`` transfers: the
per-checkpoint wire bytes come from the :class:`CheckpointStore`'s
full/delta/compression decisions, each recovery fetches the store's
*restore chain* at the link bandwidth implied by ``checkpoint_cost``,
and the schedule is built from the storage-adjusted effective costs so
the optimizer plans with the true ``C`` and ``R``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.markov import CheckpointCosts
from repro.core.schedule import CheckpointSchedule
from repro.distributions.base import AvailabilityDistribution
from repro.obs.metrics import active as _metrics
from repro.obs.tracing import active as _trace_active
from repro.simulation.accounting import SimulationConfig, SimulationResult
from repro.storage.costs import effective_costs
from repro.storage.store import CheckpointStore

__all__ = ["model_schedule", "simulate_trace", "replay_schedule", "storage_schedule_costs"]


def storage_schedule_costs(
    distribution: AvailabilityDistribution, config: SimulationConfig
) -> CheckpointCosts:
    """The ``C``/``R`` the schedule should be built from.

    Without a storage policy these are the configured scalars.  With
    one, the expected steady-state storage costs are computed via one
    fixed-point step: solve ``T_opt(0)`` at the base costs, use it as
    the typical work interval sizing the deltas, and re-price.
    """
    base = CheckpointCosts(
        checkpoint=config.checkpoint_cost,
        recovery=config.effective_recovery_cost,
        latency=config.latency,
    )
    if not config.storage_backed or config.checkpoint_cost <= 0:
        return base
    probe = CheckpointSchedule(
        distribution,
        base,
        t_elapsed=0.0,
        converge_rel_tol=config.schedule_converge_rel_tol,
    )
    return effective_costs(
        config.storage,
        base,
        config.checkpoint_size_mb,
        typical_work=probe.work_interval(0),
    )


def model_schedule(
    distribution: AvailabilityDistribution, config: SimulationConfig
) -> CheckpointSchedule:
    """The schedule :func:`simulate_trace` replays ``distribution`` under:
    solved from uptime zero at the storage-adjusted costs."""
    return CheckpointSchedule(
        distribution,
        storage_schedule_costs(distribution, config),
        t_elapsed=0.0,
        converge_rel_tol=config.schedule_converge_rel_tol,
    )


def simulate_trace(
    distribution: AvailabilityDistribution,
    durations,
    config: SimulationConfig,
    *,
    machine_id: str = "machine",
    model_name: str | None = None,
) -> SimulationResult:
    """Replay ``durations`` under the schedule induced by ``distribution``.

    Parameters
    ----------
    distribution:
        The fitted availability model steering the schedule.
    durations:
        Availability durations (seconds) to replay, chronological order.
    config:
        Costs and accounting policy.
    machine_id, model_name:
        Labels copied into the result row.
    """
    avail = np.asarray(durations, dtype=np.float64).ravel()
    if avail.size == 0:
        raise ValueError("cannot simulate over an empty trace")
    return replay_schedule(
        model_schedule(distribution, config),
        avail,
        config,
        machine_id=machine_id,
        model_name=model_name or distribution.name,
    )


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


def replay_schedule(
    schedule: CheckpointSchedule,
    durations: np.ndarray,
    config: SimulationConfig,
    *,
    machine_id: str = "machine",
    model_name: str = "model",
) -> SimulationResult:
    """Replay a pre-built schedule over availability ``durations``.

    Exposed separately so the validation experiment can replay the exact
    schedules observed in the live (DES) system.

    Checkpoint latency ``L`` (``config.latency``) is billed per
    checkpoint attempt: a checkpoint is only *committed* once its
    ``C``-second transfer **and** the ``L``-second commit window have
    both fit inside the availability interval, so each completed cycle
    advances time by ``T + C + L`` and an eviction during either phase
    loses the interval's work.  This matches the Markov model, whose
    retry horizon prices ``L + R + T`` (see ``docs/THEORY.md`` §8).
    """
    if np.any(durations < 0) or not np.all(np.isfinite(durations)):
        raise ValueError("availability durations must be non-negative and finite")
    if config.storage_backed:
        return _replay_with_storage(
            schedule, durations, config, machine_id=machine_id, model_name=model_name
        )
    C = config.checkpoint_cost
    R = config.effective_recovery_cost
    L = config.latency
    size = config.checkpoint_size_mb
    policy = config.partial_transfer_policy
    reg = _metrics()
    tr = _trace_active()
    t_wall = time.perf_counter() if reg is not None else 0.0

    useful = 0.0
    lost = 0.0
    ckpt_overhead = 0.0
    rec_overhead = 0.0
    mb_ckpt = 0.0
    mb_rec = 0.0
    n_ckpt_done = 0
    n_ckpt_try = 0
    n_rec_done = 0
    n_rec_try = 0
    base = 0.0  # machine-timeline offset of the current interval's start

    def _transfer_mb(elapsed: float, full_cost: float, completed: bool) -> float:
        if completed:
            return size
        return _partial_mb(size, elapsed, full_cost, policy)

    for a in durations:
        t = 0.0
        # ---- recovery phase -----------------------------------------
        if config.recover_on_start:
            n_rec_try += 1
            if t + R <= a:
                t += R
                rec_overhead += R
                n_rec_done += 1
                billed = _transfer_mb(R, R, completed=True) if config.count_recovery_bandwidth else 0.0
                mb_rec += billed
                if tr is not None:
                    tr.span("replay", "recovery", base, R, track=machine_id, args={"committed": True})
                    tr.span("link", "transfer", base, R, track=machine_id, args={"mb": billed, "phase": "recovery"})
            else:
                elapsed = a - t
                rec_overhead += elapsed
                billed = _transfer_mb(elapsed, R, completed=False) if config.count_recovery_bandwidth else 0.0
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
            T = schedule.work_interval(i)
            if T + C + L <= 0.0:
                # a zero-length cycle would commit without advancing the
                # clock: the replay would spin forever on this interval
                raise ValueError(
                    f"degenerate schedule: work interval {i} has "
                    f"T={T!r} with C={C!r}, L={L!r} -- the replay cycle "
                    "makes no forward progress"
                )
            if t + T + C + L <= a:
                useful += T
                ckpt_overhead += C + L
                n_ckpt_try += 1
                n_ckpt_done += 1
                mb_ckpt += _transfer_mb(C, C, completed=True)
                if tr is not None:
                    tr.span("replay", "work", base + t, T, track=machine_id, args={"committed": True})
                    tr.span("replay", "checkpoint", base + t + T, C + L, track=machine_id, args={"committed": True, "mb": size})
                    tr.span("link", "transfer", base + t + T, C, track=machine_id, args={"mb": size, "phase": "checkpoint"})
                t += T + C + L
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
                # eviction during the transfer or its commit latency:
                # the interval's work is never committed, so it is lost.
                # Bytes flow only during the C-second transfer phase; an
                # eviction inside the latency window leaves the full
                # image on the wire but uncommitted.
                elapsed = a - (t + T)
                lost += T
                ckpt_overhead += elapsed
                n_ckpt_try += 1
                billed = _transfer_mb(min(elapsed, C), C, completed=elapsed >= C)
                mb_ckpt += billed
                if tr is not None:
                    tr.span("replay", "work", base + t, T, track=machine_id, args={"committed": False})
                    tr.span("replay", "checkpoint", base + t + T, elapsed, track=machine_id, args={"committed": False, "mb": billed})
                    tr.span("link", "transfer", base + t + T, min(elapsed, C), track=machine_id, args={"mb": billed, "phase": "checkpoint"})
                t = a
                break
        if tr is not None:
            tr.point("replay", "failure", ts=base + a, track=machine_id)
        base += a

    if reg is not None:
        reg.inc("sim.replays")
        reg.inc("sim.machine_seconds", float(durations.sum()))
        reg.inc("sim.checkpoints.attempted", n_ckpt_try)
        reg.inc("sim.checkpoints.completed", n_ckpt_done)
        reg.inc("link.transferred_mb", mb_ckpt + mb_rec)
        reg.observe("sim.replay_seconds", time.perf_counter() - t_wall)

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
        n_checkpoints_completed=n_ckpt_done,
        n_checkpoints_attempted=n_ckpt_try,
        n_recoveries_completed=n_rec_done,
        n_recoveries_attempted=n_rec_try,
        mb_checkpoint=mb_ckpt,
        mb_recovery=mb_rec,
        predicted_efficiency=schedule.expected_efficiency(0),
    )


def _replay_with_storage(
    schedule: CheckpointSchedule,
    durations: np.ndarray,
    config: SimulationConfig,
    *,
    machine_id: str,
    model_name: str,
) -> SimulationResult:
    """The storage-aware replay loop.

    The store persists across occupancies (it lives at the checkpoint
    manager, which does not fail when the harvested machine is
    reclaimed), so restore chains built in one occupancy price the next
    occupancy's recovery.  The link bandwidth is the one implied by
    "``checkpoint_cost`` seconds per full uncompressed image"; with
    ``checkpoint_cost == 0`` transfers are instantaneous and only
    compression CPU (if any) takes time.
    """
    C = config.checkpoint_cost
    L = config.latency
    size = config.checkpoint_size_mb
    policy = config.partial_transfer_policy
    store = CheckpointStore(config.storage, size)
    bw = size / C if C > 0 else math.inf
    reg = _metrics()
    tr = _trace_active()
    t_wall = time.perf_counter() if reg is not None else 0.0

    useful = 0.0
    lost = 0.0
    ckpt_overhead = 0.0
    rec_overhead = 0.0
    mb_ckpt = 0.0
    mb_rec = 0.0
    n_ckpt_done = 0
    n_ckpt_try = 0
    n_rec_done = 0
    n_rec_try = 0
    base = 0.0  # machine-timeline offset of the current interval's start

    for a in durations:
        t = 0.0
        # ---- recovery phase: fetch the restore chain ----------------
        if config.recover_on_start:
            chain_mb = store.restore_chain_mb()
            R_i = chain_mb / bw if math.isfinite(bw) else 0.0
            n_rec_try += 1
            if tr is not None:
                tr.point(
                    "storage", "restore_chain", ts=base, track=machine_id,
                    args={"mb": chain_mb, "chain_len": store.chain_length()},
                )
            if t + R_i <= a:
                t += R_i
                rec_overhead += R_i
                n_rec_done += 1
                billed = chain_mb if config.count_recovery_bandwidth else 0.0
                mb_rec += billed
                if tr is not None:
                    tr.span("replay", "recovery", base, R_i, track=machine_id, args={"committed": True})
                    tr.span("link", "transfer", base, R_i, track=machine_id, args={"mb": billed, "phase": "recovery"})
            else:
                elapsed = a - t
                rec_overhead += elapsed
                billed = (
                    _partial_mb(chain_mb, elapsed, R_i, policy)
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
            T = schedule.work_interval(i)
            if t + T > a:
                lost += a - t  # eviction mid-work
                if tr is not None:
                    tr.span("replay", "work", base + t, a - t, track=machine_id, args={"committed": False})
                t = a
                break
            plan = store.plan_checkpoint(T)
            wire_time = plan.wire_mb / bw if math.isfinite(bw) else 0.0
            # commit latency L is billed after the CPU + wire phases,
            # mirroring the non-storage path (see replay_schedule)
            ckpt_time = plan.cpu_seconds + wire_time + L
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
                n_ckpt_try += 1
                n_ckpt_done += 1
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
                # store events (commit / GC) are stamped explicitly at
                # the cycle end; the recorder's instrumentation clock is
                # not ours to mutate (the DES engine owns it)
                store.commit(plan, ts=base + t + T + ckpt_time)
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
                n_ckpt_try += 1
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

    if reg is not None:
        reg.inc("sim.replays")
        reg.inc("sim.machine_seconds", float(durations.sum()))
        reg.inc("sim.checkpoints.attempted", n_ckpt_try)
        reg.inc("sim.checkpoints.completed", n_ckpt_done)
        reg.inc("link.transferred_mb", mb_ckpt + mb_rec)
        reg.observe("sim.replay_seconds", time.perf_counter() - t_wall)

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
        n_checkpoints_completed=n_ckpt_done,
        n_checkpoints_attempted=n_ckpt_try,
        n_recoveries_completed=n_rec_done,
        n_recoveries_attempted=n_rec_try,
        mb_checkpoint=mb_ckpt,
        mb_recovery=mb_rec,
        predicted_efficiency=schedule.expected_efficiency(0),
        n_full_checkpoints=store.n_full,
        n_delta_checkpoints=store.n_delta,
        max_restore_chain_len=store.max_chain_len,
        mb_stored_final=store.stored_mb(),
        mb_gc_freed=store.gc_freed_mb,
    )
