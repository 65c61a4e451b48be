"""The per-cycle flat replay loop, kept as a test oracle.

This is the loop ``trace_sim.replay_schedule`` ran for flat
(non-storage) configs before every flat replay went through the
struct-of-arrays kernel :func:`~repro.simulation.batch_replay.replay_flat_pool`:
one machine, one availability interval, one work/checkpoint cycle at a
time, asking the schedule for each work interval and recording each
phase's span as it goes.  The kernel must match it to <= 1e-9 relative
on every :class:`~repro.simulation.accounting.SimulationResult` field
(counts exactly), on the ``sim.*`` counters, and on the recorded spans
and points of each track.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs.metrics import active as _metrics
from repro.obs.tracing import active as _trace_active
from repro.simulation.accounting import SimulationConfig, SimulationResult
from repro.simulation.batch_replay import ScheduleLike, _partial_mb


def replay_flat(
    schedule: ScheduleLike,
    durations: np.ndarray,
    config: SimulationConfig,
    *,
    machine_id: str = "machine",
    model_name: str = "model",
) -> SimulationResult:
    """Replay a pre-built schedule over availability ``durations``.

    Checkpoint latency ``L`` (``config.latency``) is billed per
    checkpoint attempt: a checkpoint is only *committed* once its
    ``C``-second transfer **and** the ``L``-second commit window have
    both fit inside the availability interval, so each completed cycle
    advances time by ``T + C + L`` and an eviction during either phase
    loses the interval's work.  This matches the Markov model, whose
    retry horizon prices ``L + R + T`` (see ``docs/THEORY.md`` §8).
    """
    durations = np.asarray(durations, dtype=np.float64).ravel()
    if np.any(durations < 0) or not np.all(np.isfinite(durations)):
        raise ValueError("availability durations must be non-negative and finite")
    if config.storage_backed:
        raise ValueError("the flat oracle replays flat (non-storage) configs only")
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
