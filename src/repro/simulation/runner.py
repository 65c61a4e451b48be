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
work is CPU-bound interval optimisation, which releases no GIL.  The
fan-out is two-phase: each machine's models are fitted exactly once (one
fit task per machine), then every ``(machine, model)`` replay is
dispatched as its own dynamically scheduled task carrying only the
fitted distribution and the replay durations -- not the raw trace -- so
slow replays (heavy-tailed fits solve many more schedules) no longer
convoy behind a static chunk assignment.  Worker solver caches are
shipped back and folded into the parent's, so later sweeps in the same
process start warm; see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import zlib
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.solver_cache import active_cache as _active_cache
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


def _replay_model(
    dist: AvailabilityDistribution,
    replay: np.ndarray,
    machine_id: str,
    model_name: str,
    settings: SweepSettings,
) -> list[SimulationResult]:
    """Replay one fitted (machine, model) pair across the cost sweep
    with one :func:`~repro.simulation.batch_replay.replay_batch` call."""
    return replay_batch(_model_items(dist, replay, machine_id, model_name, settings))


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


def _fit_machine_star(
    args: tuple[AvailabilityTrace, SweepSettings],
) -> list[tuple[str, AvailabilityDistribution]]:
    """Worker entry point for the fit phase: one machine, all models."""
    trace, settings = args
    return _fit_machine(trace, settings)


def _replay_model_star(
    args: tuple[AvailabilityDistribution, np.ndarray, str, str, SweepSettings, bool, bool],
) -> tuple[
    list[SimulationResult],
    dict[str, Any] | None,
    dict[str, Any] | None,
    dict[str, Any] | None,
]:
    """Worker entry point for the replay phase: one fitted (machine,
    model) pair across the cost sweep, plus (when the parent is
    collecting metrics and/or a trace) snapshots of what the work
    recorded.

    Worker processes do not inherit the parent's registry, recorder or
    solver cache, so each call records into private metrics/trace sinks
    and ships their ``as_dict()`` back with the results; the worker's
    process-global solver cache is snapshot too, so the parent's cache
    ends a sweep holding every solve done anywhere in the fan-out.
    """
    dist, replay, machine_id, model_name, settings, collect_metrics, collect_trace = args
    metrics_snapshot: dict[str, Any] | None = None
    trace_snapshot: dict[str, Any] | None = None
    if not collect_metrics and not collect_trace:
        results = _replay_model(dist, replay, machine_id, model_name, settings)
    else:
        with _use_metrics() as reg:
            if collect_trace:
                with _use_trace() as rec:
                    results = _replay_model(dist, replay, machine_id, model_name, settings)
                trace_snapshot = rec.as_dict()
            else:
                results = _replay_model(dist, replay, machine_id, model_name, settings)
        if collect_metrics:
            metrics_snapshot = reg.as_dict()
    cache = _active_cache()
    cache_snapshot = cache.as_dict() if cache is not None else None
    return results, metrics_snapshot, trace_snapshot, cache_snapshot


def simulate_pool(
    pool: MachinePool | Sequence[AvailabilityTrace],
    settings: SweepSettings | None = None,
    *,
    n_workers: int | None = None,
) -> PoolSweep:
    """Run the full sweep over a machine pool.

    ``n_workers=None`` or ``1`` runs serially; larger values fan machines
    out across processes.  When a metrics registry is active (see
    :mod:`repro.obs`), per-worker registries are merged back into it so
    fan-out is invisible in the run report.
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
    parent_cache = _active_cache()
    if n_workers and n_workers > 1 and len(traces) > 1:
        if parent_reg is not None:
            parent_reg.set_gauge("sim.pool.workers", n_workers)
        collect = (parent_reg is not None, parent_trace is not None)
        with ProcessPoolExecutor(max_workers=n_workers) as pool_exec:
            # phase 1: one fit task per machine.  Each fit is submitted
            # individually (dynamic dispatch, no static chunks) so an
            # expensive EM fit on one machine never delays the replays
            # of machines that finished fitting early: phase 2 tasks for
            # a machine are enqueued the moment its fits complete.
            fit_futures: dict[Future[list[tuple[str, AvailabilityDistribution]]], int] = {
                pool_exec.submit(_fit_machine_star, (t, settings)): i
                for i, t in enumerate(traces)
            }
            replay_futures: dict[tuple[int, int], Future[Any]] = {}
            pending = set(fit_futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    mi = fit_futures[fut]
                    trace = traces[mi]
                    replay = _replay_durations(trace, settings)
                    for mj, (model_name, dist) in enumerate(fut.result()):
                        replay_futures[(mi, mj)] = pool_exec.submit(
                            _replay_model_star,
                            (dist, replay, trace.machine_id, model_name, settings, *collect),
                        )
            # collect in deterministic (machine, model) order so results
            # and snapshot merges are independent of worker scheduling
            for mi in range(len(traces)):
                for mj in range(len(settings.model_names)):
                    chunk, metrics_snapshot, trace_snapshot, cache_snapshot = (
                        replay_futures[(mi, mj)].result()
                    )
                    all_results.extend(chunk)
                    if metrics_snapshot is not None and parent_reg is not None:
                        parent_reg.merge_dict(metrics_snapshot)
                    if trace_snapshot is not None and parent_trace is not None:
                        parent_trace.merge_dict(trace_snapshot)
                    if cache_snapshot is not None and parent_cache is not None:
                        # traffic stats stay out: each worker snapshot is
                        # cumulative over its process lifetime, so adding
                        # them per task would multi-count, and the hit /
                        # miss counters already arrive via the metrics
                        # snapshot above
                        parent_cache.merge_dict(cache_snapshot, stats=False)
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
