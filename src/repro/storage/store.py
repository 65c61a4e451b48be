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

The store is deliberately simulator-agnostic: the trace simulator and
the live (DES) test process both drive it through
:meth:`plan_checkpoint` / :meth:`commit`, keeping "what would this
checkpoint cost" separate from "it actually completed" so evicted
transfers never corrupt the stored state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import active as _metrics
from repro.obs.tracing import active as _trace_active
from repro.storage.policy import StoragePolicy

__all__ = ["CheckpointStore", "PlannedCheckpoint", "Snapshot"]


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
        return sum(s.wire_mb for s in self._snapshots)

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
        """Whether the next snapshot must be a full image or may be a delta."""
        if not self._snapshots or self.policy.mode == "full":
            return "full"
        if self.n_committed % self.policy.full_every_k == 0:
            return "full"
        k = self.policy.keep_last_k
        if k is not None and self.chain_length() >= k:
            return "full"  # a delta would push the retained chain past k
        return "delta"

    def plan_checkpoint(
        self, work_since_last: float, *, full_mb: float | None = None
    ) -> PlannedCheckpoint:
        """Size the next checkpoint without committing it.

        ``full_mb`` optionally overrides the store's image size (the
        live path feeds the workload size model's current state size).
        """
        if work_since_last < 0:
            raise ValueError(f"work since last must be >= 0, got {work_since_last}")
        full = self.full_mb if full_mb is None else float(full_mb)
        kind = self.next_kind()
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
        if plan.kind == "full":
            self._chain_start = len(self._snapshots)
            self._chain_mb = 0.0
        self._snapshots.append(snap)
        self._chain_mb += plan.wire_mb
        self.n_committed += 1
        reg = _metrics()
        if plan.kind == "full":
            self.n_full += 1
            if reg is not None:
                reg.inc("storage.commits.full")
        else:
            self.n_delta += 1
            if reg is not None:
                reg.inc("storage.commits.delta")
        if reg is not None:
            reg.inc("storage.wire_mb", plan.wire_mb)
        tr = _trace_active()
        if tr is not None:
            # the store has no clock of its own: events are stamped with
            # the caller-supplied ``ts``, falling back to the recorder's
            # instrumentation clock for drivers that keep it fresh
            tr.point(
                "storage", "commit",
                ts=ts,
                args={
                    "kind": plan.kind,
                    "wire_mb": plan.wire_mb,
                    "raw_mb": plan.raw_mb,
                    "index": snap.index,
                },
            )
        self._gc(ts=ts)
        self.max_chain_len = max(self.max_chain_len, self.chain_length())
        return snap

    def _gc(self, *, ts: float | None = None) -> None:
        """Drop snapshots unreachable from any future restore."""
        n_drop = self._chain_start
        if n_drop > 0:
            freed = sum(s.wire_mb for s in self._snapshots[:n_drop])
            self.gc_freed_mb += freed
            del self._snapshots[:n_drop]
            self._chain_start = 0
            reg = _metrics()
            if reg is not None:
                reg.inc("storage.gc.runs")
                reg.inc("storage.gc.snapshots_dropped", n_drop)
                reg.inc("storage.gc.freed_mb", freed)
            tr = _trace_active()
            if tr is not None:
                tr.point(
                    "storage", "gc",
                    ts=ts,
                    args={"dropped": n_drop, "freed_mb": freed},
                )
