"""The server-side checkpoint store: snapshots, restore chains, GC.

One :class:`CheckpointStore` models the checkpoint manager's disk for
one job: an ordered list of committed snapshots, each a full image or a
delta against its predecessor.  Recovering the job means fetching the
*restore chain* -- the most recent full image plus every delta committed
after it -- so the recovery transfer is ``chain_mb`` bytes, not one flat
image.  This is the quantity that closes the loop into the Markov
model's ``R``.

Retention runs at commit time:

* committing a full image makes every older snapshot unreachable from
  any future restore, so GC drops them (``gc_freed_mb`` keeps the
  audit trail);
* ``keep_last_k`` caps the retained snapshots: when the active chain
  already holds ``k`` snapshots, :meth:`next_kind` promotes the next
  checkpoint to a full, which both re-bases the chain and lets GC
  reclaim the old one.  The chain length therefore never exceeds
  ``keep_last_k``.

Both rules follow the policy's commit cadence
(:meth:`~repro.storage.policy.StoragePolicy.commit_kind`), a function
of the commit counter alone.  The live (DES) test process drives the
store through :meth:`plan_checkpoint` / :meth:`commit`, keeping "what
would this checkpoint cost" separate from "it actually completed" so
evicted transfers never corrupt the stored state.  The trace replay
only sizes plans here and follows the cadence itself, emitting the
same commit events through :func:`record_commit`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import active as _metrics
from repro.obs.tracing import active as _trace_active
from repro.storage.policy import StoragePolicy

__all__ = ["CheckpointStore", "PlannedCheckpoint", "Snapshot", "record_commit"]


@dataclass(frozen=True)
class Snapshot:
    """One committed snapshot on the store."""

    index: int  # global commit counter, never reused
    kind: str  # "full" | "delta"
    wire_mb: float  # bytes as stored/transferred (post-compression)
    raw_mb: float  # bytes before compression


@dataclass(frozen=True)
class PlannedCheckpoint:
    """A checkpoint the store has sized but not yet committed."""

    kind: str
    raw_mb: float
    wire_mb: float
    cpu_seconds: float


class CheckpointStore:
    """Per-job snapshot store enforcing one :class:`StoragePolicy`."""

    def __init__(self, policy: StoragePolicy, full_mb: float) -> None:
        if full_mb < 0:
            raise ValueError(f"full image size must be >= 0, got {full_mb}")
        self.policy = policy
        self.full_mb = float(full_mb)
        self._compressor = policy.make_compressor()
        self._delta_model = policy.make_delta_model()
        self._snapshots: list[Snapshot] = []
        # the restore chain is _snapshots[_chain_start:]; _chain_mb is its
        # wire size, summed left to right as commits append to it
        self._chain_start = 0
        self._chain_mb = 0.0
        self.n_committed = 0
        self.n_full = 0
        self.n_delta = 0
        self.gc_freed_mb = 0.0
        self.max_chain_len = 0

    # -- inspection -----------------------------------------------------
    @property
    def snapshots(self) -> tuple[Snapshot, ...]:
        return tuple(self._snapshots)

    def chain(self) -> tuple[Snapshot, ...]:
        """The restore chain: last full image plus all later deltas."""
        return tuple(self._snapshots[self._chain_start :])

    def chain_length(self) -> int:
        return len(self._snapshots) - self._chain_start

    def stored_mb(self) -> float:
        """Current server-side footprint in (compressed) megabytes."""
        return sum((s.wire_mb for s in self._snapshots), 0.0)

    def restore_chain_mb(self, full_mb: float | None = None) -> float:
        """Megabytes a recovery must fetch right now.

        An empty store models the paper's bootstrap protocol -- the
        initial transfer "emulates an initial recovery of the available
        memory" -- so it prices a full (compressed) image.
        """
        if not self._snapshots:
            base = self.full_mb if full_mb is None else full_mb
            return self._compressor.compress(base).wire_mb
        return self._chain_mb

    # -- the checkpoint protocol ----------------------------------------
    def next_kind(self) -> str:
        """Whether the next snapshot must be a full image or may be a delta
        (the policy's cadence at this store's commit count)."""
        return self.policy.commit_kind(self.n_committed)

    def plan_checkpoint(
        self,
        work_since_last: float,
        *,
        full_mb: float | None = None,
        kind: str | None = None,
    ) -> PlannedCheckpoint:
        """Size the next checkpoint without committing it.

        ``full_mb`` optionally overrides the store's image size (the
        live path feeds the workload size model's current state size).
        ``kind`` sizes a snapshot of that kind instead of
        :meth:`next_kind`'s (the trace replay tabulates both kinds).
        """
        if work_since_last < 0:
            raise ValueError(f"work since last must be >= 0, got {work_since_last}")
        if kind is None:
            kind = self.next_kind()
        elif kind not in ("full", "delta"):
            raise ValueError(f"unknown snapshot kind: {kind!r}")
        full = self.full_mb if full_mb is None else float(full_mb)
        if kind == "full":
            raw = full
        else:
            raw = min(self._delta_model.delta_mb(full, work_since_last), full)
        tr = self._compressor.compress(raw)
        return PlannedCheckpoint(
            kind=kind, raw_mb=tr.raw_mb, wire_mb=tr.wire_mb, cpu_seconds=tr.cpu_seconds
        )

    def commit(self, plan: PlannedCheckpoint, *, ts: float | None = None) -> Snapshot:
        """Record a completed checkpoint transfer and run retention.

        ``ts`` is the simulation time the commit happened at, stamped
        onto the trace events this call emits.  ``None`` falls back to
        the active recorder's instrumentation clock (``tr.now``) for
        drivers that keep it fresh (the DES engine); batch/replay
        drivers pass the timestamp explicitly so committing never
        mutates recorder state.
        """
        snap = Snapshot(
            index=self.n_committed, kind=plan.kind, wire_mb=plan.wire_mb, raw_mb=plan.raw_mb
        )
        dropped, freed = 0, 0.0
        if plan.kind == "full":
            # every snapshot on disk is the old restore chain, which the
            # new full image makes unreachable
            dropped, freed = len(self._snapshots), self._chain_mb
            self._chain_start = len(self._snapshots)
            self._chain_mb = 0.0
            self.n_full += 1
        else:
            self.n_delta += 1
        self._snapshots.append(snap)
        self._chain_mb += plan.wire_mb
        self.n_committed += 1
        self._gc()
        record_commit(
            plan.kind, plan.wire_mb, plan.raw_mb, snap.index,
            ts=ts, dropped=dropped, freed_mb=freed,
        )
        self.max_chain_len = max(self.max_chain_len, self.chain_length())
        return snap

    def _gc(self) -> None:
        """Drop snapshots unreachable from any future restore."""
        n_drop = self._chain_start
        if n_drop > 0:
            self.gc_freed_mb += sum(s.wire_mb for s in self._snapshots[:n_drop])
            del self._snapshots[:n_drop]
            self._chain_start = 0


def record_commit(
    kind: str,
    wire_mb: float,
    raw_mb: float,
    index: int,
    *,
    ts: float | None,
    dropped: int,
    freed_mb: float,
) -> None:
    """Count and trace one committed snapshot and the GC it triggered.

    ``dropped`` snapshots (``freed_mb`` megabytes) were collected; 0
    means no GC ran.  The store has no clock of its own: events are
    stamped with the caller-supplied ``ts``, falling back to the
    recorder's instrumentation clock for drivers that keep it fresh.
    """
    reg = _metrics()
    tr = _trace_active()
    if reg is not None:
        reg.inc("storage.commits.full" if kind == "full" else "storage.commits.delta")
        reg.inc("storage.wire_mb", wire_mb)
    if tr is not None:
        tr.point(
            "storage", "commit",
            ts=ts,
            args={"kind": kind, "wire_mb": wire_mb, "raw_mb": raw_mb, "index": index},
        )
    if dropped:
        if reg is not None:
            reg.inc("storage.gc.runs")
            reg.inc("storage.gc.snapshots_dropped", dropped)
            reg.inc("storage.gc.freed_mb", freed_mb)
        if tr is not None:
            tr.point("storage", "gc", ts=ts, args={"dropped": dropped, "freed_mb": freed_mb})
