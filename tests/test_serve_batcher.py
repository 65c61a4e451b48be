"""Tests for the micro-batcher: grouping, dedup, windows, errors."""

import asyncio

import pytest

from repro.core import CheckpointCosts, SolverCache, optimize_interval, use_solver_cache
from repro.core.optimizer import optimize_intervals_batch
from repro.distributions import Exponential, Hyperexponential, Weibull
from repro.obs.metrics import use as use_metrics
from repro.serve import batcher as batcher_module
from repro.serve.batcher import MicroBatcher, SolveQuery

WEIBULL = Weibull(0.43, 3409.0)
EXP = Exponential(1.0 / 5000.0)
COSTS = CheckpointCosts.symmetric(110.0)


def _query(dist=WEIBULL, age=0.0, costs=COSTS):
    return SolveQuery(distribution=dist, costs=costs, age=age)


class TestSolveQuery:
    def test_negative_age_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            _query(age=-1.0)

    def test_group_key_ignores_age(self):
        assert _query(age=1.0).group_key() == _query(age=2.0).group_key()

    def test_group_key_separates_models_and_costs(self):
        assert _query(dist=WEIBULL).group_key() != _query(dist=EXP).group_key()
        assert (
            _query(costs=COSTS).group_key()
            != _query(costs=CheckpointCosts.symmetric(55.0)).group_key()
        )


class TestConfig:
    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="batch window"):
            MicroBatcher(window_s=-1.0)

    def test_zero_max_batch_rejected(self):
        with pytest.raises(ValueError, match="max batch"):
            MicroBatcher(max_batch=0)


class TestBatching:
    def test_concurrent_queries_share_one_batch(self):
        async def run():
            batcher = MicroBatcher(window_s=0.001)
            ages = [0.0, 100.0, 0.0, 100.0, 250.0]
            results = await asyncio.gather(
                *(batcher.submit(_query(age=a)) for a in ages)
            )
            return batcher.stats, results, ages

        with use_solver_cache(SolverCache()):
            stats, results, ages = asyncio.run(run())
        assert stats.queries == 5
        assert stats.batches == 1
        assert stats.groups == 1
        assert stats.solves == 3  # distinct ages
        assert stats.collapsed == 2  # duplicates answered for free
        for age, result in zip(ages, results, strict=True):
            assert result.age == age
        # duplicate ages got the identical object-level answer
        assert results[0] == results[2]
        assert results[1] == results[3]

    def test_mixed_groups_in_one_batch(self):
        async def run():
            batcher = MicroBatcher(window_s=0.001)
            queries = [
                _query(dist=WEIBULL, age=0.0),
                _query(dist=EXP, age=0.0),
                _query(dist=WEIBULL, age=50.0),
            ]
            await asyncio.gather(*(batcher.submit(q) for q in queries))
            return batcher.stats

        with use_solver_cache(SolverCache()):
            stats = asyncio.run(run())
        assert stats.batches == 1
        assert stats.groups == 2
        assert stats.solves == 3

    def test_max_batch_flushes_immediately(self):
        async def run():
            batcher = MicroBatcher(window_s=60.0, max_batch=3)
            results = await asyncio.wait_for(
                asyncio.gather(
                    *(batcher.submit(_query(age=float(i))) for i in range(3))
                ),
                timeout=5.0,
            )
            return batcher.stats, results

        with use_solver_cache(SolverCache()):
            stats, results = asyncio.run(run())
        # a 60 s window would have timed out; max_batch forced the flush
        assert stats.batches == 1
        assert len(results) == 3

    def test_sequential_bursts_make_separate_batches(self):
        async def run():
            batcher = MicroBatcher(window_s=0.0)
            await batcher.submit(_query(age=0.0))
            await batcher.submit(_query(age=1.0))
            return batcher.stats

        with use_solver_cache(SolverCache()):
            stats = asyncio.run(run())
        assert stats.batches == 2

    def test_batched_results_bitwise_equal_scalar(self):
        ages = [0.0, 10.0, 100.0, 1000.0, 10.0]

        async def run():
            batcher = MicroBatcher(window_s=0.001)
            return await asyncio.gather(*(batcher.submit(_query(age=a)) for a in ages))

        with use_solver_cache(None):
            batched = asyncio.run(run())
            direct = [optimize_interval(WEIBULL, COSTS, age=a) for a in ages]
        for served, reference in zip(batched, direct, strict=True):
            assert served.T_opt == reference.T_opt  # bitwise
            assert served == reference

    def test_drain_flushes_pending(self):
        async def run():
            batcher = MicroBatcher(window_s=60.0)
            task = asyncio.ensure_future(batcher.submit(_query(age=0.0)))
            await asyncio.sleep(0)  # let submit() enqueue
            assert batcher.pending == 1
            batcher.drain()
            result = await asyncio.wait_for(task, timeout=5.0)
            return batcher.pending, result

        with use_solver_cache(SolverCache()):
            pending, result = asyncio.run(run())
        assert pending == 0
        assert result.converged


def _no_timer(*args, **kwargs):
    raise AssertionError("the default batcher armed a timer")


class TestFlushPolicy:
    """By default a burst flushes at the end of the event-loop turn that
    queued it, with no timer; a positive window is an explicit hold."""

    def test_lone_query_answered_after_one_loop_turn(self, monkeypatch):
        answers = []

        async def run():
            with monkeypatch.context() as patch:
                patch.setattr(asyncio.get_running_loop(), "call_later", _no_timer)
                batcher = MicroBatcher()
                batcher.enqueue(_query(age=0.0), lambda r, e: answers.append((r, e)))
                assert answers == []
                await asyncio.sleep(0)
                return batcher.stats

        with use_solver_cache(SolverCache()):
            stats = asyncio.run(run())
        assert len(answers) == 1
        result, exc = answers[0]
        assert exc is None and result.converged
        assert stats.batches == 1

    def test_queries_of_one_turn_share_one_flush(self, monkeypatch):
        answers = []

        async def run():
            with monkeypatch.context() as patch:
                patch.setattr(asyncio.get_running_loop(), "call_later", _no_timer)
                batcher = MicroBatcher()
                for age in (0.0, 100.0, 0.0, 250.0):
                    batcher.enqueue(_query(age=age), lambda r, e: answers.append(r))
                await asyncio.sleep(0)
                first = batcher.stats.batches
                batcher.enqueue(_query(age=7.0), lambda r, e: answers.append(r))
                await asyncio.sleep(0)
                return first, batcher.stats

        with use_solver_cache(SolverCache()):
            first, stats = asyncio.run(run())
        assert first == 1
        assert [r.age for r in answers] == [0.0, 100.0, 0.0, 250.0, 7.0]
        assert stats.batches == 2  # the later turn is the next batch
        assert stats.collapsed == 1

    def test_window_holds_the_burst_until_the_timer_fires(self):
        answers = []

        async def run():
            batcher = MicroBatcher(window_s=0.02)
            batcher.enqueue(_query(age=0.0), lambda r, e: answers.append(r))
            batcher.enqueue(_query(age=1.0), lambda r, e: answers.append(r))
            for _ in range(3):
                await asyncio.sleep(0)
            held = batcher.pending
            await asyncio.sleep(0.05)  # past the window's deadline
            return held, batcher.stats

        with use_solver_cache(SolverCache()):
            held, stats = asyncio.run(run())
        assert held == 2
        assert len(answers) == 2
        assert stats.batches == 1


class TestErrors:
    def test_bad_group_fails_its_waiters_only(self):
        # age beyond the Weibull support is fine; an unbounded Pareto
        # mean is not -- use a distribution/cost combo that raises
        bad = _query(dist=WEIBULL, age=float("inf"))

        async def run():
            batcher = MicroBatcher(window_s=0.001)
            results = await asyncio.gather(
                batcher.submit(bad),
                batcher.submit(_query(dist=EXP, age=0.0)),
                return_exceptions=True,
            )
            return batcher.stats, results

        with use_solver_cache(SolverCache()):
            stats, results = asyncio.run(run())
        assert isinstance(results[0], Exception)
        assert not isinstance(results[1], Exception)
        assert results[1].converged
        assert stats.errors == 1


class TestMetrics:
    def test_batch_counters(self):
        async def run():
            batcher = MicroBatcher(window_s=0.001)
            await asyncio.gather(
                *(batcher.submit(_query(age=a)) for a in (0.0, 0.0, 7.0))
            )

        with use_solver_cache(SolverCache()), use_metrics() as reg:
            asyncio.run(run())
        data = reg.as_dict()
        assert data["counters"]["serve.batch.count"] == 1.0
        assert data["counters"]["serve.batch.collapsed"] == 1.0
        assert data["histograms"]["serve.batch.size"]["count"] == 1


#: one model of each paper family, two cost sets, repeated ages
FAMILIES = {
    "exp": EXP,
    "weibull": WEIBULL,
    "hyper2": Hyperexponential([0.5, 0.5], [1.0 / 100.0, 1.0 / 9000.0]),
    "hyper3": Hyperexponential([0.3, 0.5, 0.2], [1.0 / 50.0, 1.0 / 2000.0, 1.0 / 20000.0]),
}
COST_SETS = (COSTS, CheckpointCosts(50.0, 60.0, 10.0))


def _mixed_queries():
    queries = [
        SolveQuery(dist, costs, age, tenant=name)
        for name, dist in FAMILIES.items()
        for costs in COST_SETS
        for age in (0.0, 350.0, 350.0, 4000.0)
    ]
    # a second tenant on the exp model and costs: same group, whose head
    # tenant takes the group's cache traffic
    queries.append(SolveQuery(EXP, COSTS, 777.0, tenant="exp-shadow"))
    return queries


def _flush(queries, monkeypatch):
    """Answer ``queries`` in one flush; returns (results, stats, the
    row count of each optimize_intervals_batch call)."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[2]))
        return optimize_intervals_batch(*args, **kwargs)

    monkeypatch.setattr(batcher_module, "optimize_intervals_batch", counting)

    async def run():
        batcher = MicroBatcher(window_s=60.0, max_batch=len(queries))
        results = await asyncio.gather(*(batcher.submit(q) for q in queries))
        return results, batcher.stats

    results, stats = asyncio.run(run())
    return results, stats, calls


class TestOneSolvePerFlush:
    def test_mixed_flush_makes_one_solve_call(self, monkeypatch):
        queries = _mixed_queries()
        with use_solver_cache(SolverCache()):
            _, stats, calls = _flush(queries, monkeypatch)
        assert calls == [len(queries)]
        assert stats.batches == 1
        assert stats.groups == len(FAMILIES) * len(COST_SETS)
        # per group: ages 0, 350, 350, 4000 (+ 777 on the shared exp group)
        assert stats.solves == 3 * stats.groups + 1
        assert stats.collapsed == stats.groups

    def test_mixed_flush_bitwise_equal_lone_solves(self, monkeypatch):
        queries = _mixed_queries()
        with use_solver_cache(None):
            served, _, _ = _flush(queries, monkeypatch)
            direct = [optimize_interval(q.distribution, q.costs, age=q.age) for q in queries]
        for result, reference in zip(served, direct, strict=True):
            assert result == reference  # every field, bitwise

    def test_tenant_cache_counts_follow_group_rule(self, monkeypatch):
        queries = _mixed_queries()
        warm = [q for q in queries if q.age == 0.0]

        def prewarmed():
            cache = SolverCache()
            with use_solver_cache(cache):
                for q in warm:
                    optimize_interval(q.distribution, q.costs, age=q.age)
            return cache

        # the per-group rule: each group's solve-call cache delta goes to
        # the tenant of the group's first query
        expected: dict[str, list[int]] = {}
        with use_solver_cache(prewarmed()) as cache:
            groups: dict[tuple, list[SolveQuery]] = {}
            for q in queries:
                groups.setdefault(q.group_key(), []).append(q)
            for members in groups.values():
                hits0, misses0 = cache.hits, cache.misses
                optimize_intervals_batch(
                    members[0].distribution, members[0].costs, [q.age for q in members]
                )
                counts = expected.setdefault(members[0].tenant, [0, 0])
                counts[0] += cache.hits - hits0
                counts[1] += cache.misses - misses0

        with use_solver_cache(prewarmed()), use_metrics() as reg:
            _flush(queries, monkeypatch)
        counters = reg.as_dict()["counters"]
        for tenant, (hits, misses) in expected.items():
            assert counters.get(f"serve.tenant.cache.hits{{tenant={tenant}}}", 0.0) == hits
            assert counters.get(f"serve.tenant.cache.misses{{tenant={tenant}}}", 0.0) == misses
        assert not any("exp-shadow" in name for name in counters)
        assert sum(h for h, _ in expected.values()) == len(warm)
