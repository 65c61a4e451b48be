"""Tests for the process-global LRU solver cache."""

import json

import pytest

from repro.core import (
    CheckpointCosts,
    OptimalInterval,
    SolverCache,
    active_cache,
    optimize_interval,
    use_solver_cache,
)
from repro.core.optimizer import optimize_intervals_batch
from repro.core.solver_cache import DEFAULT_CAPACITY, SNAPSHOT_SCHEMA, SNAPSHOT_VERSION
from repro.distributions import Exponential, Weibull
from repro.distributions.empirical import EmpiricalDistribution
from repro.obs.metrics import use as use_metrics


def _interval(t=100.0):
    return OptimalInterval(
        T_opt=t,
        gamma=t * 1.1,
        overhead_ratio=1.1,
        expected_efficiency=1.0 / 1.1,
        age=0.0,
        converged=True,
    )


def _key(i):
    return SolverCache.key(("Exponential", (("rate", 0.001),)), 100.0, 100.0, 10.0, float(i))


class TestLRU:
    def test_put_get_roundtrip(self):
        cache = SolverCache(capacity=4)
        cache.put(_key(0), _interval())
        assert cache.get(_key(0)) == _interval()
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counts(self):
        cache = SolverCache(capacity=4)
        assert cache.get(_key(0)) is None
        assert cache.misses == 1

    def test_capacity_evicts_least_recent(self):
        cache = SolverCache(capacity=2)
        cache.put(_key(0), _interval(1.0))
        cache.put(_key(1), _interval(2.0))
        cache.put(_key(2), _interval(3.0))
        assert len(cache) == 2
        assert _key(0) not in cache
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = SolverCache(capacity=2)
        cache.put(_key(0), _interval(1.0))
        cache.put(_key(1), _interval(2.0))
        cache.get(_key(0))  # 0 is now most recent
        cache.put(_key(2), _interval(3.0))
        assert _key(0) in cache
        assert _key(1) not in cache

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            SolverCache(capacity=0)

    def test_default_capacity(self):
        assert SolverCache().capacity == DEFAULT_CAPACITY


class TestKey:
    def test_age_quantised_to_nanoseconds(self):
        assert _key(1.0) == SolverCache.key(
            ("Exponential", (("rate", 0.001),)),
            100.0, 100.0, 10.0, 1.0 + 1e-12,
        )

    def test_costs_distinguish_entries(self):
        a = SolverCache.key(("E", ()), 100.0, 1.0, 1.0, 0.0)
        b = SolverCache.key(("E", ()), 200.0, 1.0, 1.0, 0.0)
        assert a != b


class TestSnapshots:
    def test_as_dict_merge_dict_roundtrip(self):
        cache = SolverCache(capacity=8)
        for i in range(3):
            cache.put(_key(i), _interval(float(i + 1)))
        cache.get(_key(0))
        cache.get(_key(9))  # a miss
        snap = cache.as_dict()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        other = SolverCache(capacity=8)
        inserted = other.merge_dict(snap)
        assert inserted == 3
        assert other.get(_key(1)) == _interval(2.0)
        assert other.misses == cache.misses + 0  # stats merged, then our get hit

    def test_json_round_trip(self):
        cache = SolverCache()
        cache.put(_key(0), _interval())
        snap = json.loads(json.dumps(cache.as_dict()))
        other = SolverCache()
        assert other.merge_dict(snap) == 1
        assert other.get(_key(0)) == _interval()

    def test_existing_entries_win(self):
        a = SolverCache()
        a.put(_key(0), _interval(111.0))
        b = SolverCache()
        b.put(_key(0), _interval(222.0))
        assert a.merge_dict(b.as_dict()) == 0
        assert a.get(_key(0)) == _interval(111.0)

    def test_stats_false_merges_entries_only(self):
        a = SolverCache()
        b = SolverCache()
        b.put(_key(0), _interval())
        b.get(_key(0))
        assert a.merge_dict(b.as_dict(), stats=False) == 1
        assert a.hits == 0 and a.misses == 0
        assert _key(0) in a

    def test_merge_object(self):
        a, b = SolverCache(), SolverCache()
        b.put(_key(0), _interval())
        assert a.merge(b) == 1


class TestSnapshotVersioning:
    def test_snapshot_carries_schema_and_version(self):
        snap = SolverCache().as_dict()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["version"] == SNAPSHOT_VERSION

    def test_version_round_trips_through_json(self):
        cache = SolverCache()
        cache.put(_key(0), _interval())
        snap = json.loads(json.dumps(cache.as_dict()))
        assert snap["version"] == SNAPSHOT_VERSION
        other = SolverCache()
        assert other.merge_dict(snap) == 1

    def test_wrong_schema_rejected(self):
        snap = SolverCache().as_dict()
        snap["schema"] = "repro.obs.metrics/1"
        with pytest.raises(ValueError, match="not a solver-cache snapshot"):
            SolverCache().merge_dict(snap)

    def test_missing_schema_rejected(self):
        with pytest.raises(ValueError, match="not a solver-cache snapshot"):
            SolverCache().merge_dict({"entries": []})

    def test_future_version_rejected_with_clear_error(self):
        snap = SolverCache().as_dict()
        snap["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(ValueError, match="unsupported solver-cache snapshot version"):
            SolverCache().merge_dict(snap)

    def test_missing_version_rejected(self):
        cache = SolverCache()
        cache.put(_key(0), _interval())
        snap = cache.as_dict()
        del snap["version"]
        other = SolverCache()
        with pytest.raises(ValueError, match="unsupported solver-cache snapshot version"):
            other.merge_dict(snap)
        assert len(other) == 0

    def test_schema_1_snapshot_rejected_and_cache_unchanged(self, schema_1_snapshot):
        """A ``/1`` snapshot (9-field keys carrying the search domain and
        solver method) is refused outright."""
        snap = schema_1_snapshot
        cache = SolverCache()
        cache.put(_key(0), _interval())
        before = cache.as_dict()
        with pytest.raises(ValueError, match="not a solver-cache snapshot"):
            cache.merge_dict(snap)
        assert cache.as_dict() == before

    def test_key_has_five_fields(self):
        assert len(_key(0)) == 5

    def test_malformed_entry_names_its_index(self):
        snap = SolverCache().as_dict()
        snap["entries"] = [[list(_key(0)), {"bogus_field": 1.0}]]
        with pytest.raises(ValueError, match="malformed solver-cache snapshot entry 0"):
            SolverCache().merge_dict(snap)

    def test_malformed_entry_after_valid_ones_leaves_cache_unchanged(self):
        """Every entry is validated before the first insertion: a valid
        entry followed by a malformed one inserts nothing and counts
        nothing."""
        source = SolverCache()
        source.put(_key(1), _interval())
        snap = source.as_dict()
        snap["entries"].append({"bogus": 1})
        snap["hits"] = 5
        cache = SolverCache()
        cache.put(_key(0), _interval())
        before = (cache.as_dict(), len(cache), cache.hits, cache.misses, cache.evictions)
        with pytest.raises(ValueError, match="malformed solver-cache snapshot entry 1"):
            cache.merge_dict(snap)
        assert (cache.as_dict(), len(cache), cache.hits, cache.misses, cache.evictions) == before

    def test_malformed_counter_leaves_cache_unchanged(self):
        source = SolverCache()
        source.put(_key(1), _interval())
        snap = source.as_dict()
        snap["misses"] = "many"
        cache = SolverCache()
        with pytest.raises(ValueError, match="malformed solver-cache snapshot counters"):
            cache.merge_dict(snap)
        assert len(cache) == 0 and cache.misses == 0


class TestFingerprints:
    def test_equal_params_share_fingerprint(self):
        assert Weibull(0.43, 3409.0).fingerprint() == Weibull(0.43, 3409.0).fingerprint()

    def test_distinct_params_distinct_fingerprint(self):
        assert Exponential(1e-3).fingerprint() != Exponential(2e-3).fingerprint()

    def test_distinct_families_distinct_fingerprint(self):
        # same parameter values, different family names
        assert Weibull(1.0, 1000.0).fingerprint() != Exponential(1.0 / 1000.0).fingerprint()

    def test_empirical_hashes_data(self):
        a = EmpiricalDistribution([1.0, 2.0, 3.0])
        b = EmpiricalDistribution([1.0, 2.0, 4.0])
        c = EmpiricalDistribution([1.0, 2.0, 3.0])
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == c.fingerprint()


class TestOptimizerIntegration:
    DIST = Weibull(0.43, 3409.0)
    COSTS = CheckpointCosts.symmetric(110.0)

    def test_second_solve_hits(self):
        with use_solver_cache(SolverCache()) as cache:
            first = optimize_interval(self.DIST, self.COSTS, age=100.0)
            assert cache.misses == 1 and cache.hits == 0
            second = optimize_interval(self.DIST, self.COSTS, age=100.0)
            assert cache.hits == 1
            assert second == first

    def test_equal_instances_share_entries(self):
        with use_solver_cache(SolverCache()) as cache:
            first = optimize_interval(Weibull(0.43, 3409.0), self.COSTS)
            second = optimize_interval(Weibull(0.43, 3409.0), self.COSTS)
            assert cache.hits == 1
            assert second == first

    def test_metrics_recorded(self):
        with use_solver_cache(SolverCache()), use_metrics() as reg:
            optimize_interval(self.DIST, self.COSTS)
            optimize_interval(self.DIST, self.COSTS)
        counters = reg.as_dict()["counters"]
        assert counters["opt.cache.misses"] == 1.0
        assert counters["opt.cache.hits"] == 1.0

    def test_batch_reports_each_rows_lookup(self):
        # rows 2 and 3 repeat rows 0 and 1 (an equal model object; an
        # age in the same 1e-9 s bucket): no lookup of their own
        ages = [0.0, 50.0, 0.0, 50.0 + 1e-12, 900.0]
        dists = [self.DIST, self.DIST, Weibull(0.43, 3409.0), self.DIST, self.DIST]
        with use_solver_cache(SolverCache()) as cache, use_metrics() as reg:
            optimize_interval(self.DIST, self.COSTS, age=900.0)
            outcome = []
            results = optimize_intervals_batch(dists, self.COSTS, ages, cache_hits=outcome)
        assert outcome == [False, False, None, None, True]
        assert results[2] is results[0] and results[3] is results[1]
        assert (cache.hits, cache.misses) == (1, 3)
        counters = reg.as_dict()["counters"]
        assert (counters["opt.cache.hits"], counters["opt.cache.misses"]) == (1.0, 3.0)
        c = self.COSTS
        assert set(cache.keys()) == {
            SolverCache.key(self.DIST.fingerprint(), c.checkpoint, c.recovery, c.latency, a)
            for a in (0.0, 50.0, 900.0)
        }
        with use_solver_cache(None):
            outcome = []
            optimize_intervals_batch(self.DIST, self.COSTS, [1.0, 1.0], cache_hits=outcome)
        assert outcome == [None, None]

    def test_global_cache_enabled_by_default(self):
        assert active_cache() is not None
