"""Gang-scheduled parallel jobs with coordinated checkpointing.

The paper's conclusion sketches the parallel scenario: "when loosely
coupled resources are combined to form a cluster on which parallel
applications can execute, careful usage of the network is crucial".
This module builds that application:

* a **gang job** holds ``width`` machines simultaneously; computation
  progresses only while *all* ranks are up (a barrier-synchronous
  program);
* checkpoints are **coordinated**: every rank pushes its 500 MB at the
  same time over the shared link, so the coordinated checkpoint cost is
  the *slowest* rank's transfer -- self-inflicted contention;
* any eviction interrupts the whole gang: un-checkpointed work is lost,
  the evicted rank is re-queued, the survivors hold their machines, and
  on re-placement the gang performs a coordinated recovery before
  resuming;
* the work interval comes from the same Markov optimizer, driven by the
  :class:`~repro.distributions.product.ProductAvailability` of the
  ranks' fitted models, each conditioned at its machine's current
  uptime -- the natural generalisation of the paper's per-machine
  conditioning.

:func:`run_gang_experiment` wires a fleet, scheduler and link around one
gang job and reports committed work, network load and failure counts.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.condor.machine import CondorMachine
from repro.condor.scheduler import CondorScheduler
from repro.core.optimizer import optimize_interval
from repro.core.markov import CheckpointCosts
from repro.core.planner import CheckpointPlanner
from repro.distributions.base import FloatArray
from repro.distributions.fitting import fit_model
from repro.distributions.product import ProductAvailability
from repro.engine.core import Environment, Event, Interrupt, any_of
from repro.network.bandwidth import campus_link
from repro.network.link import SharedLink
from repro.obs.metrics import active as _metrics
from repro.traces.synthetic import SyntheticPoolConfig, _draw_ground_truth

__all__ = ["GangExperimentConfig", "GangResult", "GangJob", "run_gang_experiment"]


@dataclass
class _Rank:
    """One placed rank: its machine and the process holding it."""

    machine: CondorMachine
    placed_at: float


class GangJob:
    """Coordinator process for one gang-scheduled parallel job.

    ``planners`` maps machine id to the planner of its fitted model.
    The job reads it only as ``planners[machine_id]``, when it plans an
    interval with a rank on that machine, and never iterates it or
    tests membership: :func:`run_gang_experiment` passes a mapping that
    fits a machine's model on that first indexed read.
    """

    def __init__(
        self,
        env: Environment,
        scheduler: CondorScheduler,
        link: SharedLink,
        planners: Mapping[str, CheckpointPlanner],
        *,
        width: int,
        checkpoint_size_mb: float = 500.0,
        min_cost_estimate: float = 1.0,
    ) -> None:
        if width < 1:
            raise ValueError(f"gang width must be >= 1, got {width}")
        self.env = env
        self.scheduler = scheduler
        self.link = link
        self.planners = planners
        self.width = width
        self.checkpoint_size_mb = checkpoint_size_mb
        self.min_cost_estimate = min_cost_estimate

        self.committed_work = 0.0
        self.lost_work = 0.0
        self.mb_transferred = 0.0
        self.n_gang_failures = 0
        self.n_coordinated_checkpoints = 0
        self.n_placements = 0

        self._ranks: dict[str, _Rank] = {}
        self._membership_changed: Event = env.event()
        self._rank_down: Event = env.event()
        self.process = env.process(self._run(), name=f"gang[{width}]")
        for _ in range(width):
            self._submit_rank()

    # -- rank lifecycle ---------------------------------------------------
    def _submit_rank(self) -> None:
        self.scheduler.submit(self._rank_body, tag="gang-rank")

    def _rank_body(self, env: Environment, machine: CondorMachine):
        rank = _Rank(machine=machine, placed_at=env.now)
        self._ranks[machine.machine_id] = rank
        self.n_placements += 1
        self._signal_membership()
        try:
            yield env.event()  # hold the machine until evicted
            raise AssertionError("gang rank hold event must never fire")
        except Interrupt:
            self._ranks.pop(machine.machine_id, None)
            self._signal_rank_down()
            self._signal_membership()
            self._submit_rank()  # Condor restarts the evicted member
            return "evicted"

    def _signal_membership(self) -> None:
        ev, self._membership_changed = self._membership_changed, self.env.event()
        if not ev.triggered:
            ev.succeed("membership")

    def _signal_rank_down(self) -> None:
        ev, self._rank_down = self._rank_down, self.env.event()
        if not ev.triggered:
            ev.succeed("rank-down")
        self.n_gang_failures += 1

    # -- coordinated phases -----------------------------------------------
    def _coordinated_transfer(self):
        """All ranks transfer simultaneously; returns (ok, duration)."""
        started = self.env.now
        transfers = [
            self.link.start_transfer(self.checkpoint_size_mb) for _ in range(self.width)
        ]
        pending = [tr.done for tr in transfers]
        fail = self._rank_down
        while pending:
            # `yield any_of(...)` resumes with the *winning source event*
            winner = yield any_of(self.env, pending + [fail])
            if winner is fail:
                for tr in transfers:
                    self.link.abort(tr)
                self.mb_transferred += sum(tr.sent_mb for tr in transfers)
                return False, self.env.now - started
            pending = [ev for ev in pending if not ev.processed]
        self.mb_transferred += sum(tr.sent_mb for tr in transfers)
        return True, self.env.now - started

    def _gang_distribution(self) -> ProductAvailability:
        members = []
        for rank in self._ranks.values():
            planner = self.planners[rank.machine.machine_id]
            uptime = rank.machine.uptime()
            members.append(planner.distribution.conditional(uptime))
        return ProductAvailability(members)

    # -- main loop ----------------------------------------------------------
    def _run(self):
        measured_cost = self.min_cost_estimate
        need_recovery = True  # initial state must be restored on placement
        while True:
            # 1. barrier: wait until the full gang is placed
            while len(self._ranks) < self.width:
                yield self._membership_changed
            # 2. coordinated recovery -- only after (re)placement or a
            #    failure; successful intervals chain without one
            if need_recovery:
                ok, duration = yield from self._coordinated_transfer()
                if not ok:
                    continue
                measured_cost = max(duration, self.min_cost_estimate)
                need_recovery = False
            # 3. plan the interval from the gang's joint availability
            gang_dist = self._gang_distribution()
            opt = optimize_interval(
                gang_dist,
                CheckpointCosts.symmetric(measured_cost),
                age=0.0,  # members already conditioned at their uptimes
            )
            work_interval = opt.T_opt
            # 4. compute until the timer or an eviction
            work_started = self.env.now
            fail = self._rank_down
            winner = yield any_of(
                self.env, [self.env.timeout(work_interval), fail]
            )
            if winner is fail:
                self.lost_work += self.env.now - work_started
                need_recovery = True
                continue
            # 5. coordinated checkpoint commits the interval
            ok, duration = yield from self._coordinated_transfer()
            if not ok:
                self.lost_work += work_interval
                need_recovery = True
                continue
            measured_cost = max(duration, self.min_cost_estimate)
            self.committed_work += work_interval
            self.n_coordinated_checkpoints += 1


@dataclass(frozen=True)
class GangExperimentConfig:
    """Fleet + gang parameters for one experiment run."""

    width: int = 4
    model: str = "hyperexp2"
    horizon: float = 0.5 * 86400.0
    n_machines: int = 16
    checkpoint_size_mb: float = 500.0
    n_train: int = 25
    mean_owner_gap: float = 900.0
    #: multiplier on the campus link's bandwidth; gang checkpoints are
    #: self-contending, so the link is scaled with the width by default
    bandwidth_scale: float | None = None
    seed: int = 2005
    pool_config: SyntheticPoolConfig = field(
        default_factory=lambda: SyntheticPoolConfig(
            # gangs need longer-lived members to make progress at all
            scale_range=(5000.0, 40000.0)
        )
    )

    def __post_init__(self) -> None:
        if self.width < 1 or self.n_machines < self.width:
            raise ValueError("need at least `width` machines")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")


@dataclass(frozen=True)
class GangResult:
    """Outcome of one gang run."""

    config: GangExperimentConfig
    committed_work: float
    lost_work: float
    mb_transferred: float
    n_gang_failures: int
    n_coordinated_checkpoints: int
    n_placements: int
    horizon: float

    @property
    def efficiency(self) -> float:
        """Committed work per wall-clock second of the experiment."""
        return self.committed_work / self.horizon if self.horizon > 0 else 0.0

    @property
    def mb_per_hour(self) -> float:
        return self.mb_transferred / (self.horizon / 3600.0)


class _PlannersOnFirstRead(dict[str, CheckpointPlanner]):
    """Machine id -> planner; a machine's model is fitted when first read.

    Only indexing fits: ``get``, ``in`` and iteration see just the
    machines fitted so far, so ``GangJob`` reads ``planners[machine_id]``
    and nothing else.  It does so only when it plans an interval with a
    rank on that machine, so a machine no rank reaches is never fitted,
    nor is one whose rank was evicted before its gang was whole.
    ``histories`` holds each machine's index and training history; the
    fit draws from the machine's own ``SeedSequence([seed, 2, i])``
    stream, so each fit that runs is the one an eager loop over the
    fleet would make.
    """

    def __init__(self, model: str, seed: int) -> None:
        super().__init__()
        self.model = model
        self.seed = seed
        self.histories: dict[str, tuple[int, FloatArray]] = {}

    def __missing__(self, machine_id: str) -> CheckpointPlanner:
        i, history = self.histories[machine_id]
        fit_rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2, i]))
        planner = self[machine_id] = CheckpointPlanner(
            distribution=fit_model(self.model, history, rng=fit_rng),
            model_name=self.model,
        )
        return planner


def run_gang_experiment(config: GangExperimentConfig | None = None) -> GangResult:
    """Run one gang job over a synthetic fleet for the horizon.

    Every machine draws its ground truth and training history up front,
    but its model is fitted only when the gang first plans with a rank
    on it: a machine no rank reaches is never fitted.  A fit that raises
    propagates out of this call at that point of the simulation.
    """
    if config is None:
        config = GangExperimentConfig()
    env = Environment()
    # Dedicated per-purpose RNG streams: the fleet's ground truths and
    # owner behaviour must be identical across `model` choices for the
    # comparison to be paired, so nothing model-dependent (EM restarts)
    # may share their generators.
    link_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    bandwidth = campus_link(link_rng)
    scale = config.bandwidth_scale
    if scale is None:
        scale = float(config.width)  # keep per-rank bandwidth comparable
    bandwidth.mean_mbps *= scale
    link = SharedLink(env, bandwidth, name="gang-link")
    scheduler = CondorScheduler(env)
    planners = _PlannersOnFirstRead(config.model, config.seed)
    for i in range(config.n_machines):
        machine_id = f"node-{i:03d}"
        world_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1, i]))
        gt = _draw_ground_truth(config.pool_config, world_rng)
        history = np.asarray(gt.sample(config.n_train, world_rng), dtype=np.float64)
        planners.histories[machine_id] = (i, history)
        CondorMachine.from_distribution(
            env,
            machine_id,
            gt,
            world_rng,
            mean_owner_gap=config.mean_owner_gap,
            scheduler=scheduler,
        )
    gang = GangJob(
        env,
        scheduler,
        link,
        planners,
        width=config.width,
        checkpoint_size_mb=config.checkpoint_size_mb,
    )
    env.run(until=config.horizon)
    reg = _metrics()
    if reg is not None:
        reg.inc("gang.machines", config.n_machines)
        reg.inc("gang.machines_fitted", len(planners))
        reg.inc("gang.placements", gang.n_placements)
        reg.inc("gang.coordinated_checkpoints", gang.n_coordinated_checkpoints)
    return GangResult(
        config=config,
        committed_work=gang.committed_work,
        lost_work=gang.lost_work,
        mb_transferred=gang.mb_transferred,
        n_gang_failures=gang.n_gang_failures,
        n_coordinated_checkpoints=gang.n_coordinated_checkpoints,
        n_placements=gang.n_placements,
        horizon=config.horizon,
    )
