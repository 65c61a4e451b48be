"""Single-trace front doors to the Section 5.1 trace replay.

This is the paper's simulator as one machine sees it: given a machine's
sequence of availability durations and a fitted model, replay a
long-running job that, within each availability interval,

1. restores its last checkpoint (``R`` seconds of transfer),
2. computes the model's aperiodic schedule ``T_opt(0), T_opt(1), ...``
   (conditioned on the machine's uptime at each work-interval start),
3. alternates work and ``C``-second checkpoints until the owner reclaims
   the machine, losing whatever work was not yet checkpointed.

Because each occupancy starts at uptime zero, the schedule for a given
(model, costs) pair is identical across intervals: one
:class:`~repro.core.schedule.CheckpointSchedule` serves the whole trace.
:func:`simulate_trace` builds it (:func:`model_schedule`) and
:func:`replay_schedule` replays it as a one-item
:func:`~repro.simulation.batch_replay.replay_batch`, the one replay
path for single traces and whole pools alike.

With ``config.storage`` set, checkpoints flow through the storage
subsystem instead of being flat ``checkpoint_size_mb`` transfers: the
per-checkpoint wire bytes come from the storage policy's
full/delta/compression decisions, each recovery fetches the store's
*restore chain* at the link bandwidth implied by ``checkpoint_cost``,
and the schedule is built from the storage-adjusted effective costs
(:func:`storage_schedule_costs`) so the optimizer plans with the true
``C`` and ``R``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.markov import CheckpointCosts
from repro.core.schedule import CheckpointSchedule
from repro.distributions.base import AvailabilityDistribution
from repro.simulation.accounting import SimulationConfig, SimulationResult
from repro.simulation.batch_replay import BatchReplayItem, ScheduleLike, replay_batch
from repro.storage.costs import effective_costs

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


def replay_schedule(
    schedule: ScheduleLike,
    durations: Any,
    config: SimulationConfig,
    *,
    machine_id: str = "machine",
    model_name: str = "model",
) -> SimulationResult:
    """Replay a pre-built schedule over availability ``durations`` (any
    1-D sequence of seconds): one :func:`~repro.simulation.batch_replay.replay_batch`
    item.

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
    item = BatchReplayItem(
        schedule=schedule,
        durations=durations,
        config=config,
        machine_id=machine_id,
        model_name=model_name,
    )
    return replay_batch([item])[0]
