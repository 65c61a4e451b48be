"""Accounting records for the trace-driven simulator.

Every second of machine availability consumed by the simulated job is
attributed to exactly one bucket -- committed (useful) work, lost work,
checkpoint overhead, or recovery overhead -- so results satisfy an exact
conservation law that the property-based tests assert::

    useful_work + lost_work + checkpoint_overhead + recovery_overhead
        == total_time
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.policy import StoragePolicy

__all__ = ["SimulationConfig", "SimulationResult"]

_PARTIAL_TRANSFER_POLICIES = ("proportional", "full", "none")


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one trace-replay run.

    Attributes
    ----------
    checkpoint_cost:
        ``C`` in seconds (the paper sweeps 50..1500).
    recovery_cost:
        ``R`` in seconds; ``None`` means ``R = C`` (the paper's
        convention, both being 500 MB transfers on the same link).
    latency:
        Vaidya's checkpoint latency ``L`` (0 under the paper's strictly
        sequential phases).  The replay bills it per checkpoint
        attempt: a cycle commits only if ``T + C + L`` fits in the
        availability interval, each completed cycle advances time by
        ``T + C + L`` (the ``L`` window counts as checkpoint overhead),
        and an eviction inside the latency window loses the interval's
        work -- the same accounting the Markov optimizer prices via its
        ``L + R + T`` retry horizon.
    checkpoint_size_mb:
        Megabytes per full checkpoint/recovery transfer (500 in the
        paper, matching the Condor machines' 512 MB memories).
    partial_transfer_policy:
        How interrupted transfers count toward network load:
        ``"proportional"`` (bytes actually sent before eviction --
        default, matching what a byte counter on the link would see),
        ``"full"`` (each attempt bills the whole checkpoint), or
        ``"none"`` (only completed transfers count).
    count_recovery_bandwidth:
        Whether recovery transfers contribute to network load (the
        paper's live experiment transfers 500 MB in both directions).
    recover_on_start:
        Whether each occupancy begins with a recovery transfer.  The
        live protocol always performs the initial transfer ("to emulate
        an initial recovery of the available memory"), so the default is
        ``True``.
    schedule_converge_rel_tol:
        Passed through to :class:`~repro.core.schedule.CheckpointSchedule`;
        bounds the number of golden-section solves per schedule.
    storage:
        Optional :class:`~repro.storage.StoragePolicy` routing every
        checkpoint through the storage subsystem: deltas between
        periodic fulls, compression, retention, and restore-chain
        recovery costs.  ``None`` reproduces the paper's flat
        ``checkpoint_size_mb`` transfers.  ``checkpoint_cost`` keeps
        its meaning as the transfer time of one *full, uncompressed*
        image, which fixes the implied link bandwidth.
    """

    checkpoint_cost: float
    recovery_cost: float | None = None
    latency: float = 0.0
    checkpoint_size_mb: float = 500.0
    partial_transfer_policy: str = "proportional"
    count_recovery_bandwidth: bool = True
    recover_on_start: bool = True
    schedule_converge_rel_tol: float | None = 1e-3
    storage: StoragePolicy | None = None

    def __post_init__(self) -> None:
        if self.checkpoint_cost < 0:
            raise ValueError(f"checkpoint cost must be >= 0, got {self.checkpoint_cost}")
        if self.recovery_cost is not None and self.recovery_cost < 0:
            raise ValueError(f"recovery cost must be >= 0, got {self.recovery_cost}")
        # reject unknown policies here, at construction, rather than
        # letting them fall through the simulator's string dispatch
        if (
            not isinstance(self.partial_transfer_policy, str)
            or self.partial_transfer_policy not in _PARTIAL_TRANSFER_POLICIES
        ):
            raise ValueError(
                f"unknown partial transfer policy: {self.partial_transfer_policy!r} "
                f"(use one of {_PARTIAL_TRANSFER_POLICIES})"
            )
        if self.checkpoint_size_mb < 0:
            raise ValueError(f"checkpoint size must be >= 0, got {self.checkpoint_size_mb}")
        if self.storage is not None and not isinstance(self.storage, StoragePolicy):
            raise TypeError(
                f"storage must be a StoragePolicy or None, got {type(self.storage).__name__}"
            )

    @property
    def effective_recovery_cost(self) -> float:
        """``R``, defaulting to ``C``."""
        return self.checkpoint_cost if self.recovery_cost is None else self.recovery_cost

    @property
    def storage_backed(self) -> bool:
        """Whether checkpoints flow through a store (a policy and a
        nonzero image), not as flat ``checkpoint_size_mb`` transfers."""
        return self.storage is not None and self.checkpoint_size_mb > 0


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of replaying one (machine, model, cost) combination."""

    machine_id: str
    model_name: str
    checkpoint_cost: float

    total_time: float
    useful_work: float
    lost_work: float
    checkpoint_overhead: float
    recovery_overhead: float

    n_intervals: int
    n_failures: int
    n_checkpoints_completed: int
    n_checkpoints_attempted: int
    n_recoveries_completed: int
    n_recoveries_attempted: int

    mb_checkpoint: float
    mb_recovery: float

    #: the Markov model's own prediction ``T/Gamma`` for the first interval
    predicted_efficiency: float

    # storage-subsystem counters (zero when ``config.storage`` is None)
    n_full_checkpoints: int = 0
    n_delta_checkpoints: int = 0
    max_restore_chain_len: int = 0
    mb_stored_final: float = 0.0
    mb_gc_freed: float = 0.0

    @property
    def efficiency(self) -> float:
        """Measured fraction of availability spent on committed work."""
        return self.useful_work / self.total_time if self.total_time > 0 else 0.0

    @property
    def mb_total(self) -> float:
        """Total network load in megabytes."""
        return self.mb_checkpoint + self.mb_recovery

    @property
    def mb_per_hour(self) -> float:
        """Average network load rate (the paper's Tables 4/5 column)."""
        return self.mb_total / (self.total_time / 3600.0) if self.total_time > 0 else 0.0

    def conservation_residual(self) -> float:
        """``total - (useful + lost + ckpt + recovery)``; ~0 by construction."""
        return self.total_time - (
            self.useful_work
            + self.lost_work
            + self.checkpoint_overhead
            + self.recovery_overhead
        )
