"""The declarative storage policy carried by :class:`SimulationConfig`.

A :class:`StoragePolicy` is a frozen, picklable value object -- it rides
inside ``SimulationConfig`` through ``dataclasses.replace`` sweeps and
across ``ProcessPoolExecutor`` workers -- that describes *how* the
checkpoint pipeline stores state:

* which snapshots are full images and which are deltas
  (``mode``/``full_every_k``),
* how delta sizes depend on work done (``delta_model``),
* what the server retains (``keep_last_k`` -- when the active restore
  chain reaches this many snapshots the next checkpoint is promoted to
  a full, so the chain length never exceeds ``keep_last_k``),
* whether snapshots are compressed before transfer
  (``compression_ratio``/``compression_mb_per_s``).

The behavioural pieces (delta model, compressor, store) are built on
demand via :meth:`make_delta_model` / :meth:`make_compressor`; the
policy itself stays pure data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.storage.compression import Compressor
from repro.storage.delta import (
    DeltaSizeModel,
    DirtyPageDelta,
    FixedFractionDelta,
    FullDelta,
)

__all__ = ["StoragePolicy"]

_MODES = ("full", "incremental")
_DELTA_MODELS = ("fixed", "dirty-page")


@dataclass(frozen=True)
class StoragePolicy:
    """How checkpoints are encoded, compressed and retained.

    Attributes
    ----------
    mode:
        ``"incremental"`` interleaves deltas between periodic fulls;
        ``"full"`` reproduces the paper's flat transfers (every
        snapshot is the whole image).
    delta_model:
        ``"fixed"`` (a constant ``delta_fraction`` of the image is
        dirty per interval) or ``"dirty-page"`` (Poisson page touches:
        dirty fraction ``1 - exp(-work/dirty_tau)``).
    delta_fraction:
        Dirty working-set fraction for the ``"fixed"`` model.
    dirty_tau:
        Time constant (seconds) for the ``"dirty-page"`` model.
    full_every_k:
        Every ``k``-th snapshot is a full image (periodic-full
        retention); ``1`` degenerates to ``mode="full"``.
    keep_last_k:
        Server-side retention cap: at most ``k`` snapshots are kept.
        Because the restore chain (base full + following deltas) is the
        only thing retained, the store promotes the next checkpoint to
        a full whenever the chain reaches ``k`` -- so ``keep_last_k``
        also bounds the restore-chain length.  ``None`` disables the
        cap (``full_every_k`` alone bounds the chain).
    compression_ratio:
        Achieved compression ratio (``wire = raw / ratio``); 1 = none.
    compression_mb_per_s:
        Compressor throughput on raw bytes; the implied CPU seconds
        inflate the effective checkpoint cost.  0 = free.
    """

    mode: str = "incremental"
    delta_model: str = "fixed"
    delta_fraction: float = 0.2
    dirty_tau: float = 3600.0
    full_every_k: int = 10
    keep_last_k: int | None = None
    compression_ratio: float = 1.0
    compression_mb_per_s: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown storage mode: {self.mode!r} (use {_MODES})")
        if self.delta_model not in _DELTA_MODELS:
            raise ValueError(
                f"unknown delta model: {self.delta_model!r} (use {_DELTA_MODELS})"
            )
        if not 0.0 <= self.delta_fraction <= 1.0:
            raise ValueError(
                f"delta fraction must be in [0, 1], got {self.delta_fraction}"
            )
        if self.dirty_tau <= 0:
            raise ValueError(f"dirty_tau must be > 0, got {self.dirty_tau}")
        if self.full_every_k < 1:
            raise ValueError(f"full_every_k must be >= 1, got {self.full_every_k}")
        if self.keep_last_k is not None and self.keep_last_k < 1:
            raise ValueError(f"keep_last_k must be >= 1, got {self.keep_last_k}")
        if self.compression_ratio < 1.0:
            raise ValueError(
                f"compression ratio must be >= 1, got {self.compression_ratio}"
            )
        if self.compression_mb_per_s < 0.0:
            raise ValueError(
                f"compression throughput must be >= 0, got {self.compression_mb_per_s}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def full(
        cls, *, compression_ratio: float = 1.0, compression_mb_per_s: float = 0.0
    ) -> "StoragePolicy":
        """The paper's flat full-image transfers (optionally compressed)."""
        return cls(
            mode="full",
            full_every_k=1,
            compression_ratio=compression_ratio,
            compression_mb_per_s=compression_mb_per_s,
        )

    def cycle_length(self) -> int:
        """Snapshots per full-to-full cycle (1 full + ``k-1`` deltas)."""
        if self.mode == "full":
            return 1
        k = self.full_every_k
        if self.keep_last_k is not None:
            k = min(k, self.keep_last_k)
        return max(k, 1)

    # -- the commit cadence ----------------------------------------------
    @cached_property
    def _cadence(self) -> tuple[int, int]:
        """``(period, step)`` of the commit cadence.

        A store that commits the checkpoints it plans writes a full
        image at every multiple of the period (``full_every_k`` commits;
        1 in ``"full"`` mode) and, within a period, at every multiple of
        the step (:meth:`cycle_length`: the ``keep_last_k`` promotion).
        So the kind of each commit, and the restore chain it leaves, are
        pure functions of the commit counter.
        """
        return (1 if self.mode == "full" else self.full_every_k), self.cycle_length()

    def commit_kind(self, n_committed: int) -> str:
        """The kind of the snapshot committed after ``n_committed`` others."""
        period, step = self._cadence
        return "full" if n_committed % period % step == 0 else "delta"

    def chain_length(self, n_committed: int) -> int:
        """Restore-chain length after ``n_committed`` commits."""
        if n_committed == 0:
            return 0
        period, step = self._cadence
        return (n_committed - 1) % period % step + 1

    def count_fulls(self, n_committed: int) -> int:
        """Full images among the first ``n_committed`` commits."""
        period, step = self._cadence
        periods, rest = divmod(n_committed, period)
        return periods * -(-period // step) + -(-rest // step)

    def max_chain_length(self, n_committed: int) -> int:
        """Longest restore chain over the first ``n_committed`` commits."""
        return min(n_committed, self._cadence[1])

    def make_delta_model(self) -> DeltaSizeModel:
        if self.mode == "full":
            return FullDelta()
        if self.delta_model == "fixed":
            return FixedFractionDelta(self.delta_fraction)
        return DirtyPageDelta(self.dirty_tau)

    def make_compressor(self) -> Compressor:
        return Compressor(self.compression_ratio, self.compression_mb_per_s)
