"""The storage study: network load under delta/compression/retention.

The paper's Tables 4/5 fix one (checkpoint cost, link) point -- ~110 s
per 500 MB on the campus network -- and compare models by megabytes
moved.  This study holds that point fixed and sweeps the *storage
policy* instead: flat full-image transfers (the paper's pipeline)
against incremental checkpoints with periodic fulls, keep-last-k
retention, dirty-page deltas and compression, across the candidate
availability models.  It answers the question the storage subsystem
exists for: how many of the paper's megabytes were the *schedule's*
fault, and how many the *encoding's*?

Protocol, mirroring the pool sweep: per machine, fit each model to the
training prefix, then replay the whole trace once per (model, policy);
aggregate means across machines.  Each (machine, model) builds one
schedule per policy, and the study replays them all with one
:func:`~repro.simulation.batch_replay.replay_batch` call, which solves
every schedule in lock-step (one batched solve per step across every
fitted model) before the table-driven storage walk replays them; every result is bitwise the one
:func:`~repro.simulation.trace_sim.simulate_trace` gives.  Because
every policy replays the same traces under the same fitted model, the
megabyte columns are paired -- differences are pure storage effects.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.distributions.fitting import fit_model
from repro.experiments.format import PaperTable
from repro.simulation.accounting import SimulationConfig, SimulationResult
from repro.simulation.batch_replay import BatchReplayItem, replay_batch
from repro.simulation.trace_sim import model_schedule
from repro.storage.policy import StoragePolicy
from repro.traces.model import TRAINING_SET_SIZE, MachinePool
from repro.traces.synthetic import SyntheticPoolConfig, generate_condor_pool

__all__ = [
    "DEFAULT_STORAGE_POLICIES",
    "StorageStudyResult",
    "run_storage_study",
]

#: named policies swept by default; ``None`` is the paper's flat-transfer
#: baseline (identical to ``StoragePolicy.full()`` byte-for-byte, but
#: exercising the original non-storage simulator path)
DEFAULT_STORAGE_POLICIES: tuple[tuple[str, StoragePolicy | None], ...] = (
    ("full (paper)", None),
    (
        "inc d=0.10 full@10",
        StoragePolicy(delta_model="fixed", delta_fraction=0.10, full_every_k=10),
    ),
    (
        "inc d=0.30 full@10",
        StoragePolicy(delta_model="fixed", delta_fraction=0.30, full_every_k=10),
    ),
    (
        "inc d=0.10 keep5",
        StoragePolicy(delta_fraction=0.10, full_every_k=50, keep_last_k=5),
    ),
    (
        "inc dirty tau=30m",
        StoragePolicy(delta_model="dirty-page", dirty_tau=1800.0, full_every_k=10),
    ),
    (
        "inc d=0.10 zstd 2x",
        StoragePolicy(
            delta_fraction=0.10,
            full_every_k=10,
            compression_ratio=2.0,
            compression_mb_per_s=200.0,
        ),
    ),
)

#: the campus-link point of Table 4 (~110 s per 500 MB)
CAMPUS_CHECKPOINT_COST = 110.0


@dataclass(frozen=True)
class _Aggregate:
    efficiency: float
    mb_total: float
    mb_per_hour: float
    n_full: float
    n_delta: float
    max_chain: int


@dataclass
class StorageStudyResult:
    """Per-(model, policy) aggregates plus the table constructor."""

    checkpoint_cost: float
    checkpoint_size_mb: float
    model_names: tuple[str, ...]
    policy_names: tuple[str, ...]
    results: dict[tuple[str, str], list[SimulationResult]] = field(default_factory=dict)

    def aggregate(self, model: str, policy: str) -> _Aggregate:
        rows = self.results[(model, policy)]
        return _Aggregate(
            efficiency=float(np.mean([r.efficiency for r in rows])),
            mb_total=float(np.mean([r.mb_total for r in rows])),
            mb_per_hour=float(np.mean([r.mb_per_hour for r in rows])),
            n_full=float(np.mean([r.n_full_checkpoints for r in rows])),
            n_delta=float(np.mean([r.n_delta_checkpoints for r in rows])),
            max_chain=int(max(r.max_restore_chain_len for r in rows)),
        )

    def table(self) -> PaperTable:
        table = PaperTable(
            title=(
                f"Storage study — network load by checkpoint storage policy "
                f"(C = {self.checkpoint_cost:.0f} s per "
                f"{self.checkpoint_size_mb:.0f} MB image)"
            ),
            header=[
                "Model",
                "Policy",
                "Efficiency",
                "MB total",
                "MB/Hour",
                "vs full",
                "Max chain",
            ],
            notes=[
                "same traces and fitted models in every row block: megabyte",
                "differences are pure storage-policy effects; 'vs full' is the",
                "network-load change relative to the paper's flat transfers",
            ],
        )
        for model in self.model_names:
            base = self.aggregate(model, self.policy_names[0])
            for policy in self.policy_names:
                agg = self.aggregate(model, policy)
                saved = (
                    (agg.mb_total - base.mb_total) / base.mb_total * 100.0
                    if base.mb_total > 0
                    else 0.0
                )
                table.add_row(
                    [
                        model,
                        policy,
                        f"{agg.efficiency:.3f}",
                        f"{agg.mb_total:.0f}",
                        f"{agg.mb_per_hour:.0f}",
                        f"{saved:+.1f}%",
                        f"{agg.max_chain}" if policy != self.policy_names[0] else "1",
                    ]
                )
        return table


def run_storage_study(
    pool: MachinePool | None = None,
    *,
    checkpoint_cost: float = CAMPUS_CHECKPOINT_COST,
    checkpoint_size_mb: float = 500.0,
    model_names: tuple[str, ...] = ("exponential", "weibull", "hyperexp2"),
    policies: tuple[tuple[str, StoragePolicy | None], ...] = DEFAULT_STORAGE_POLICIES,
    n_train: int = TRAINING_SET_SIZE,
    pool_config: SyntheticPoolConfig | None = None,
    seed: int | None = None,
    em_seed: int = 424242,
) -> StorageStudyResult:
    """Sweep storage policies at one (cost, link) point of Table 4/5."""
    if not policies:
        raise ValueError("at least one storage policy is required")
    if pool is None:
        rng = None if seed is None else np.random.default_rng(seed)
        pool = generate_condor_pool(pool_config, rng)
    study = StorageStudyResult(
        checkpoint_cost=float(checkpoint_cost),
        checkpoint_size_mb=float(checkpoint_size_mb),
        model_names=tuple(model_names),
        policy_names=tuple(name for name, _ in policies),
    )
    items: list[BatchReplayItem] = []
    for trace in pool:
        train, _test = trace.split(n_train)
        machine_key = zlib.crc32(trace.machine_id.encode("utf-8"))
        rng = np.random.default_rng(np.random.SeedSequence([em_seed, machine_key]))
        for model in study.model_names:
            dist = fit_model(model, train, rng=rng)
            for _name, policy in policies:
                config = SimulationConfig(
                    checkpoint_cost=float(checkpoint_cost),
                    checkpoint_size_mb=float(checkpoint_size_mb),
                    storage=policy,
                )
                items.append(
                    BatchReplayItem(
                        schedule=model_schedule(dist, config),
                        durations=trace.durations,
                        config=config,
                        machine_id=trace.machine_id,
                        model_name=model,
                    )
                )
    policy_names = itertools.cycle(study.policy_names)
    for item, policy_name, result in zip(items, policy_names, replay_batch(items)):
        study.results.setdefault((item.model_name, policy_name), []).append(result)
    return study
