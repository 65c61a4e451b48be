"""The per-commit storage replay loop, kept as a test oracle.

This is the loop ``batch_replay._replay_with_storage`` ran before the
table-driven walk replaced it: every cycle asks the schedule for its
work interval, sizes the checkpoint with
:meth:`~repro.storage.store.CheckpointStore.plan_checkpoint`, and every
completed transfer is committed to a live
:class:`~repro.storage.store.CheckpointStore`, whose state prices the
next recovery.  The walk reads per-interval plan tables and the
policy's commit cadence instead; the two must agree bit for bit on
every :class:`~repro.simulation.accounting.SimulationResult`, counter
and trace event.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.schedule import CheckpointSchedule
from repro.obs.metrics import active as _metrics
from repro.obs.tracing import active as _trace_active
from repro.simulation.accounting import SimulationConfig, SimulationResult
from repro.simulation.batch_replay import _partial_mb
from repro.storage.store import CheckpointStore


def replay_with_storage(
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
