"""Trace-driven simulation of model-steered checkpointing (Section 5.1)."""

from repro.simulation.accounting import SimulationConfig, SimulationResult
from repro.simulation.batch_replay import (
    BatchReplayArrays,
    BatchReplayItem,
    replay_batch,
    replay_flat_pool,
)
from repro.simulation.runner import PoolSweep, SweepSettings, simulate_machine, simulate_pool
from repro.simulation.trace_sim import (
    replay_schedule,
    simulate_trace,
    storage_schedule_costs,
)

__all__ = [
    "BatchReplayArrays",
    "BatchReplayItem",
    "PoolSweep",
    "SimulationConfig",
    "SimulationResult",
    "SweepSettings",
    "replay_batch",
    "replay_flat_pool",
    "replay_schedule",
    "simulate_machine",
    "simulate_pool",
    "simulate_trace",
    "storage_schedule_costs",
]
