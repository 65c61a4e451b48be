"""Tests for the server-side checkpoint store: chains, retention, GC."""

import numpy as np
import pytest

from repro.storage import CheckpointStore, StoragePolicy
from repro.storage.store import PlannedCheckpoint


def drive(store, n, work=600.0):
    """Commit ``n`` checkpoints, returning their kinds."""
    kinds = []
    for _ in range(n):
        plan = store.plan_checkpoint(work)
        kinds.append(plan.kind)
        store.commit(plan)
    return kinds


class TestCadence:
    def test_first_checkpoint_is_always_full(self):
        store = CheckpointStore(StoragePolicy(delta_fraction=0.1), 500.0)
        assert store.next_kind() == "full"

    def test_periodic_full_cadence(self):
        store = CheckpointStore(
            StoragePolicy(delta_fraction=0.2, full_every_k=3), 500.0
        )
        kinds = drive(store, 7)
        assert kinds == ["full", "delta", "delta", "full", "delta", "delta", "full"]
        assert store.n_full == 3 and store.n_delta == 4

    def test_full_mode_never_writes_deltas(self):
        store = CheckpointStore(StoragePolicy.full(), 500.0)
        assert drive(store, 5) == ["full"] * 5

    def test_delta_sizes_follow_model(self):
        store = CheckpointStore(
            StoragePolicy(delta_fraction=0.2, full_every_k=10), 500.0
        )
        drive(store, 1)
        plan = store.plan_checkpoint(600.0)
        assert plan.kind == "delta"
        assert plan.raw_mb == pytest.approx(100.0)
        assert plan.wire_mb == pytest.approx(100.0)  # no compression

    def test_delta_never_exceeds_full(self):
        store = CheckpointStore(
            StoragePolicy(delta_model="dirty-page", dirty_tau=1.0), 500.0
        )
        drive(store, 1)
        plan = store.plan_checkpoint(1e12)  # fully saturated
        assert plan.raw_mb <= 500.0


class TestRestoreChain:
    def test_bootstrap_prices_full_image(self):
        store = CheckpointStore(StoragePolicy(delta_fraction=0.1), 500.0)
        assert store.restore_chain_mb() == pytest.approx(500.0)

    def test_bootstrap_respects_compression(self):
        store = CheckpointStore(
            StoragePolicy(delta_fraction=0.1, compression_ratio=2.0), 500.0
        )
        assert store.restore_chain_mb() == pytest.approx(250.0)

    def test_chain_accumulates_deltas(self):
        store = CheckpointStore(
            StoragePolicy(delta_fraction=0.1, full_every_k=10), 500.0
        )
        drive(store, 4)  # full + 3 deltas of 50 MB
        assert store.chain_length() == 4
        assert store.restore_chain_mb() == pytest.approx(500.0 + 3 * 50.0)

    def test_new_full_resets_chain(self):
        store = CheckpointStore(
            StoragePolicy(delta_fraction=0.1, full_every_k=3), 500.0
        )
        drive(store, 4)  # full, d, d, full
        assert store.chain_length() == 1
        assert store.restore_chain_mb() == pytest.approx(500.0)


class TestRetention:
    def test_gc_drops_stale_snapshots(self):
        store = CheckpointStore(
            StoragePolicy(delta_fraction=0.1, full_every_k=3), 500.0
        )
        drive(store, 6)  # kinds: full d d full d d
        # only the live chain survives on disk
        assert store.stored_mb() == pytest.approx(500.0 + 2 * 50.0)
        # the second full retired the first cycle (full + 2 deltas)
        assert store.gc_freed_mb == pytest.approx(500.0 + 2 * 50.0)

    def test_keep_last_k_bounds_chain_length(self):
        store = CheckpointStore(
            StoragePolicy(delta_fraction=0.1, full_every_k=1000, keep_last_k=4), 500.0
        )
        kinds = drive(store, 20)
        assert store.max_chain_len <= 4
        # the forced fulls arrive exactly when the chain is at its cap
        assert kinds[0] == "full"
        assert kinds[4] == "full" and kinds[8] == "full"
        # snapshots on disk never exceed the retention cap either
        assert len(store.snapshots) <= 4

    def test_gc_audit_trail_conserves_bytes(self):
        store = CheckpointStore(
            StoragePolicy(delta_fraction=0.25, full_every_k=4), 500.0
        )
        drive(store, 13)
        committed = 500.0 * store.n_full + 125.0 * store.n_delta
        assert store.stored_mb() + store.gc_freed_mb == pytest.approx(committed)


class TestPlanCommitSeparation:
    def test_plan_does_not_mutate(self):
        store = CheckpointStore(StoragePolicy(delta_fraction=0.1), 500.0)
        before = (store.n_committed, store.chain_length())
        store.plan_checkpoint(600.0)
        store.plan_checkpoint(600.0)
        assert (store.n_committed, store.chain_length()) == before

    def test_full_mb_override(self):
        store = CheckpointStore(StoragePolicy(delta_fraction=0.1), 500.0)
        plan = store.plan_checkpoint(600.0, full_mb=800.0)
        assert plan.raw_mb == pytest.approx(800.0)  # first snapshot: full

    def test_negative_work_rejected(self):
        store = CheckpointStore(StoragePolicy(), 500.0)
        with pytest.raises(ValueError):
            store.plan_checkpoint(-1.0)

    def test_negative_image_rejected(self):
        with pytest.raises(ValueError):
            CheckpointStore(StoragePolicy(), -500.0)


class ScanStore(CheckpointStore):
    """The oracle: the store with its restore chain found by a backward
    scan for the last full image on every query, and GC rebuilding the
    snapshot list from that chain."""

    def chain(self):
        for j in range(len(self._snapshots) - 1, -1, -1):
            if self._snapshots[j].kind == "full":
                return tuple(self._snapshots[j:])
        return tuple(self._snapshots)

    def chain_length(self):
        return len(self.chain())

    def restore_chain_mb(self, full_mb=None):
        if not self._snapshots:
            return super().restore_chain_mb(full_mb)
        return sum(s.wire_mb for s in self.chain())

    def _gc(self, *, ts=None):
        chain = self.chain()
        n_drop = len(self._snapshots) - len(chain)
        if n_drop > 0:
            self.gc_freed_mb += sum(s.wire_mb for s in self._snapshots[:n_drop])
            self._snapshots = list(chain)


ORACLE_POLICIES = [
    StoragePolicy(delta_model="fixed", delta_fraction=0.10, full_every_k=10),
    StoragePolicy(delta_model="dirty-page", dirty_tau=1800.0, full_every_k=7),
    StoragePolicy(delta_fraction=0.10, full_every_k=50, keep_last_k=5),
    StoragePolicy(
        delta_fraction=0.10, full_every_k=10, compression_ratio=2.0, compression_mb_per_s=200.0
    ),
    StoragePolicy.full(),
]


class TestChainBookkeepingOracle:
    """Random commit sequences: the tracked chain start and running chain
    size agree exactly (``==``) with the backward-scan oracle."""

    @pytest.mark.parametrize("policy", ORACLE_POLICIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_commit_sequences_match_scan(self, policy, seed):
        rng = np.random.default_rng(seed)
        fast, oracle = CheckpointStore(policy, 500.0), ScanStore(policy, 500.0)
        for _ in range(400):
            roll = rng.random()
            if roll < 0.05:
                # an arbitrary plan, of either kind, even as the first
                # commit (a delta with no full image before it)
                kind = "full" if rng.random() < 0.5 else "delta"
                wire = float(rng.uniform(0.0, 500.0))
                plan = PlannedCheckpoint(kind=kind, raw_mb=wire, wire_mb=wire, cpu_seconds=0.0)
            else:
                work = float(rng.exponential(900.0))
                full_mb = float(rng.uniform(100.0, 900.0)) if rng.random() < 0.2 else None
                plan = fast.plan_checkpoint(work, full_mb=full_mb)
                assert plan == oracle.plan_checkpoint(work, full_mb=full_mb)
            if roll < 0.85:  # otherwise evicted: planned, never committed
                assert fast.commit(plan) == oracle.commit(plan)
            assert fast.chain() == oracle.chain()
            assert fast.chain_length() == oracle.chain_length()
            assert fast.snapshots == oracle.snapshots
            assert fast.restore_chain_mb() == oracle.restore_chain_mb()
            assert fast.stored_mb() == oracle.stored_mb()
            assert fast.gc_freed_mb == oracle.gc_freed_mb
            assert fast.max_chain_len == oracle.max_chain_len
            assert (fast.n_full, fast.n_delta) == (oracle.n_full, oracle.n_delta)
            assert fast.next_kind() == oracle.next_kind()
