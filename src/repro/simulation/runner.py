"""Pool-scale simulation sweeps (machines x models x checkpoint costs).

This drives the paper's Figure 3 / Table 1 (efficiency) and Figure 4 /
Table 3 (network load) protocol:

1. for every machine trace, fit the four candidate models to the first
   ``n_train`` observations (the training set);
2. replay the machine's *entire* trace ("a job that begins before the
   first measurement ... and continues to run after the last") once per
   (model, checkpoint cost) pair -- serially, one
   :func:`~repro.simulation.batch_replay.replay_batch` call for the whole
   pool, which solves every schedule of every fitted model in lock-step
   and replays flat configs through the array kernel and storage-backed
   ones through the storage walk;
3. aggregate per-machine efficiencies and megabyte counts into the
   per-(model, cost) vectors that the statistics layer turns into means,
   confidence intervals and paired significance tests.

Machines are independent, so the sweep optionally fans out across
processes (``n_workers``) with a plain ``ProcessPoolExecutor`` -- the
work is CPU-bound interval optimisation, which releases no GIL.  Each
task is one machine running the serial path's own code,
:func:`simulate_machine` (fit, then one lock-step ``replay_batch`` over
the machine's model x cost items), so there is one sweep implementation
and a fanned-out sweep returns exactly the serial results.  A task ships
back only its results and, when the parent is collecting them, its
metrics and trace snapshots; see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.distributions.base import AvailabilityDistribution
from repro.distributions.fitting import MODEL_NAMES, fit_model
from repro.obs.metrics import MetricsRegistry, active as _metrics, use as _use_metrics
from repro.obs.tracing import (
    TraceRecorder,
    active as _trace_active,
    use as _use_trace,
)
from repro.simulation.accounting import SimulationConfig, SimulationResult
from repro.simulation.batch_replay import BatchReplayItem, replay_batch
from repro.simulation.trace_sim import model_schedule
from repro.traces.model import TRAINING_SET_SIZE, AvailabilityTrace, MachinePool

__all__ = ["PoolSweep", "SweepSettings", "simulate_machine", "simulate_pool"]


@dataclass(frozen=True)
class SweepSettings:
    """Protocol parameters for a pool sweep.

    Attributes
    ----------
    checkpoint_costs:
        The ``C`` values swept on the x-axis (the paper uses
        50..1500 s).
    model_names:
        Candidate models fitted per machine (defaults to the paper's
        four).
    n_train:
        Training-prefix length (the paper's 25).
    replay:
        ``"full"`` replays training+experimental observations (the
        paper's steady-state protocol); ``"experimental"`` replays only
        the held-out suffix.
    base_config:
        Template :class:`SimulationConfig`; its ``checkpoint_cost`` is
        overridden per sweep point.
    em_seed:
        Seed for the hyperexponential EM restarts (per-machine streams
        are derived from it).
    """

    checkpoint_costs: tuple[float, ...] = (50.0, 100.0, 200.0, 250.0, 400.0, 500.0, 750.0, 1000.0, 1250.0, 1500.0)
    model_names: tuple[str, ...] = MODEL_NAMES
    n_train: int = TRAINING_SET_SIZE
    replay: str = "full"
    base_config: SimulationConfig = SimulationConfig(checkpoint_cost=0.0)
    em_seed: int = 424242

    def __post_init__(self) -> None:
        if not self.checkpoint_costs:
            raise ValueError("at least one checkpoint cost is required")
        if self.replay not in ("full", "experimental"):
            raise ValueError(f"unknown replay mode: {self.replay!r}")


def _fit_machine(
    trace: AvailabilityTrace, settings: SweepSettings
) -> list[tuple[str, AvailabilityDistribution]]:
    """Fit every candidate model to one machine's training prefix.

    All models share one deterministic per-machine EM stream (crc32, not
    ``hash()``: the latter is salted per interpreter) consumed in
    ``model_names`` order, so pool results are reproducible regardless
    of worker scheduling *and* of whether fitting happens in the parent
    or in a worker.
    """
    train, _test = trace.split(settings.n_train)
    machine_key = zlib.crc32(trace.machine_id.encode("utf-8"))
    rng = np.random.default_rng(np.random.SeedSequence([settings.em_seed, machine_key]))
    return [(name, fit_model(name, train, rng=rng)) for name in settings.model_names]


def _replay_durations(trace: AvailabilityTrace, settings: SweepSettings) -> np.ndarray:
    _train, test = trace.split(settings.n_train)
    return trace.durations if settings.replay == "full" else test


def _model_items(
    dist: AvailabilityDistribution,
    replay: np.ndarray,
    machine_id: str,
    model_name: str,
    settings: SweepSettings,
) -> list[BatchReplayItem]:
    """One fitted (machine, model) pair's replays across the cost sweep:
    one schedule per sweep point, all replaying the same trace."""
    items: list[BatchReplayItem] = []
    for cost in settings.checkpoint_costs:
        config = replace(settings.base_config, checkpoint_cost=float(cost))
        items.append(
            BatchReplayItem(
                schedule=model_schedule(dist, config),
                durations=replay,
                config=config,
                machine_id=machine_id,
                model_name=model_name,
            )
        )
    return items


def _machine_items(trace: AvailabilityTrace, settings: SweepSettings) -> list[BatchReplayItem]:
    """Fit every model to one machine and build its sweep's replays."""
    replay = _replay_durations(trace, settings)
    return [
        item
        for model_name, dist in _fit_machine(trace, settings)
        for item in _model_items(dist, replay, trace.machine_id, model_name, settings)
    ]


def simulate_machine(
    trace: AvailabilityTrace, settings: SweepSettings
) -> list[SimulationResult]:
    """Fit models to one machine's training prefix and run its sweep."""
    return replay_batch(_machine_items(trace, settings))


@dataclass(frozen=True)
class PoolSweep:
    """All per-(machine, model, cost) results of one pool sweep."""

    settings: SweepSettings
    results: tuple[SimulationResult, ...]

    def metric_matrix(self, model_name: str, metric: str) -> np.ndarray:
        """``(n_machines, n_costs)`` array of ``metric`` for one model.

        ``metric`` is any numeric attribute/property of
        :class:`SimulationResult` (e.g. ``"efficiency"``, ``"mb_total"``).
        Rows are machines in first-seen order; columns follow
        ``settings.checkpoint_costs``.
        """
        costs = {c: j for j, c in enumerate(self.settings.checkpoint_costs)}
        machines: dict[str, int] = {}
        rows: list[list[float]] = []
        for r in self.results:
            if r.model_name != model_name:
                continue
            if r.machine_id not in machines:
                machines[r.machine_id] = len(rows)
                rows.append([np.nan] * len(costs))
            rows[machines[r.machine_id]][costs[r.checkpoint_cost]] = float(
                getattr(r, metric)
            )
        out = np.asarray(rows, dtype=np.float64)
        if out.size and np.any(np.isnan(out)):
            raise ValueError(f"incomplete sweep for model {model_name!r}")
        return out

    def machines(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for r in self.results:
            seen.setdefault(r.machine_id, None)
        return tuple(seen)


def _simulate_machine_task(
    args: tuple[AvailabilityTrace, SweepSettings, bool, dict[str, Any] | None],
) -> tuple[list[SimulationResult], dict[str, Any] | None, dict[str, Any] | None]:
    """Worker entry point: one machine's sweep, plus (when the parent is
    collecting metrics and/or a trace) snapshots of what it recorded.

    Worker processes do not share the parent's registry or recorder, so
    the task records into private sinks and ships their ``as_dict()``
    back with the results.  ``recorder`` carries the parent recorder's
    ``max_events`` and ``sampling``, so the task's recorder samples and
    bounds like the parent's.
    """
    trace, settings, collect_metrics, recorder = args
    with ExitStack() as stack:
        reg = stack.enter_context(_use_metrics()) if collect_metrics else None
        rec = (
            stack.enter_context(_use_trace(TraceRecorder(**recorder)))
            if recorder is not None
            else None
        )
        results = simulate_machine(trace, settings)
    return (
        results,
        reg.as_dict() if reg is not None else None,
        rec.as_dict() if rec is not None else None,
    )


def simulate_pool(
    pool: MachinePool | Sequence[AvailabilityTrace],
    settings: SweepSettings | None = None,
    *,
    n_workers: int | None = None,
) -> PoolSweep:
    """Run the full sweep over a machine pool.

    ``n_workers=None`` or ``1`` runs serially; larger values fan machines
    out across at most that many processes, one :func:`simulate_machine`
    task per machine.  When a metrics registry or trace recorder is
    active (see :mod:`repro.obs`), each task's snapshots are merged back
    into it in machine order, so fan-out is invisible in the run report.
    """
    if settings is None:
        settings = SweepSettings()
    traces = list(pool)
    all_results: list[SimulationResult] = []
    parent_reg: MetricsRegistry | None = _metrics()
    parent_trace: TraceRecorder | None = _trace_active()
    if parent_reg is not None:
        parent_reg.inc("sim.pool.sweeps")
        parent_reg.inc("sim.pool.machines", len(traces))
    if n_workers and n_workers > 1 and len(traces) > 1:
        # no more processes than machines: under ``fork`` the executor
        # starts all ``max_workers`` processes at the first submit
        n_procs = min(n_workers, len(traces))
        if parent_reg is not None:
            parent_reg.set_gauge("sim.pool.workers", n_procs)
        collect = (
            parent_reg is not None,
            None
            if parent_trace is None
            else {"max_events": parent_trace.max_events, "sampling": parent_trace.sampling},
        )
        with ProcessPoolExecutor(max_workers=n_procs) as pool_exec:
            # one task per machine; ``map`` yields in machine order, so
            # results and snapshot merges do not depend on scheduling
            tasks = [(trace, settings, *collect) for trace in traces]
            for results, metrics_snapshot, trace_snapshot in pool_exec.map(
                _simulate_machine_task, tasks
            ):
                all_results.extend(results)
                if metrics_snapshot is not None and parent_reg is not None:
                    parent_reg.merge_dict(metrics_snapshot)
                if trace_snapshot is not None and parent_trace is not None:
                    parent_trace.merge_dict(trace_snapshot)
    else:
        if parent_reg is not None:
            parent_reg.set_gauge("sim.pool.workers", 1)
        # every (machine, model, cost) replay in one call, so its
        # lock-step fill solves the schedules of every fitted model of
        # the pool together
        all_results.extend(
            replay_batch([item for trace in traces for item in _machine_items(trace, settings)])
        )
    return PoolSweep(settings=settings, results=tuple(all_results))
