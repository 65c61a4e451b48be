"""Tests for the metrics registry and its process-global switch."""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs.metrics import (
    BUCKET_BOUNDS,
    DEFAULT_LABEL_LIMIT,
    OVERFLOW_COUNTER,
    SERIES_KEY_MEMO_LIMIT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active,
    decode_series,
    disable,
    enable,
    encode_series,
    use,
)


def _worker_snapshot(worker_id: int) -> dict:
    """Simulate one sweep worker: record labeled metrics, return the
    snapshot (exactly what the ProcessPoolExecutor path ships back)."""
    reg = MetricsRegistry()
    reg.inc("serve.tenant.requests", 3.0, labels={"tenant": f"w{worker_id}", "op": "solve"})
    reg.inc("sim.replays", 2.0)
    reg.observe("sim.replay_seconds", 0.1 * (worker_id + 1), labels={"tenant": f"w{worker_id}"})
    return reg.as_dict()


class TestInstruments:
    def test_counter_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only increase"):
            Counter().inc(-1.0)

    def test_gauge_last_value_wins(self):
        g = Gauge()
        g.set(4)
        g.set(7.0)
        assert g.value == 7.0

    def test_histogram_summary(self):
        h = Histogram()
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(6.0)
        assert h.min == 1.0
        assert h.max == 3.0
        assert h.mean == pytest.approx(2.0)

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram().mean == 0.0

    def test_histogram_combine(self):
        a, b = Histogram(), Histogram()
        a.observe(1.0)
        b.observe(5.0)
        b.observe(3.0)
        a.combine(b)
        assert a.count == 3
        assert a.min == 1.0
        assert a.max == 5.0

    def test_timer_observes_elapsed(self):
        reg = MetricsRegistry()
        with reg.timer("t"):
            pass
        h = reg.histogram("t")
        assert h.count == 1
        assert h.min >= 0.0


class TestHistogramBuckets:
    def test_bounds_are_sorted_half_decades(self):
        assert list(BUCKET_BOUNDS) == sorted(BUCKET_BOUNDS)
        assert BUCKET_BOUNDS[0] == pytest.approx(1e-6)
        assert BUCKET_BOUNDS[-1] == pytest.approx(1e6)

    def test_bucket_counts_sum_to_count(self):
        h = Histogram()
        for v in (0.0, 1e-9, 0.5, 1.0, 7.0, 300.0, 1e9):
            h.observe(v)
        assert sum(h.buckets) == h.count == 7

    def test_overflow_and_underflow_buckets(self):
        h = Histogram()
        h.observe(1e9)  # above the last boundary
        assert h.buckets[-1] == 1
        h.observe(-5.0)  # below the first boundary
        assert h.buckets[0] == 1

    def test_quantiles_single_value(self):
        h = Histogram()
        for _ in range(100):
            h.observe(42.0)
        # all mass in one bucket, clamped to [min, max] => exact
        assert h.quantile(0.5) == pytest.approx(42.0)
        assert h.quantile(0.99) == pytest.approx(42.0)

    def test_quantiles_are_monotone_and_bounded(self):
        h = Histogram()
        for i in range(1, 1001):
            h.observe(i / 10.0)  # 0.1 .. 100.0
        q50, q95, q99 = h.quantile(0.5), h.quantile(0.95), h.quantile(0.99)
        assert h.min <= q50 <= q95 <= q99 <= h.max
        # half-decade buckets: the estimate lands in the right bucket
        assert 10.0 <= q50 <= 100.0

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram().quantile(1.5)

    def test_empty_quantile_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_combine_merges_buckets(self):
        a, b = Histogram(), Histogram()
        a.observe(1.0)
        b.observe(1.0)
        b.observe(1000.0)
        a.combine(b)
        assert sum(a.buckets) == a.count == 3

    def test_merge_dict_accepts_v1_snapshot_without_buckets(self):
        reg = MetricsRegistry()
        reg.merge_dict(
            {"histograms": {"h": {"count": 4, "sum": 8.0, "min": 1.0, "max": 3.0}}}
        )
        h = reg.histogram("h")
        assert h.count == 4
        assert h.mean == pytest.approx(2.0)
        # no bucket info: the quantile degrades to the max, not a crash
        assert h.quantile(0.5) == 3.0

    def test_merge_dict_folds_bucket_vectors(self):
        a = MetricsRegistry()
        a.observe("h", 2.0)
        b = MetricsRegistry()
        b.observe("h", 2.0)
        b.merge_dict(a.as_dict())
        assert sum(b.histogram("h").buckets) == 2

    def test_as_dict_exposes_percentiles(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.observe("h", v)
        d = reg.as_dict()["histograms"]["h"]
        assert len(d["buckets"]) == len(BUCKET_BOUNDS) + 1
        assert d["p50"] is not None and d["p95"] is not None and d["p99"] is not None
        assert d["p50"] <= d["p95"] <= d["p99"]

    def test_as_dict_empty_percentiles_are_none(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        d = reg.as_dict()["histograms"]["h"]
        assert d["p50"] is None and d["p95"] is None and d["p99"] is None


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_conveniences(self):
        reg = MetricsRegistry()
        reg.inc("n", 2.0)
        reg.set_gauge("g", 9.0)
        reg.observe("h", 0.5)
        d = reg.as_dict()
        assert d["counters"] == {"n": 2.0}
        assert d["gauges"] == {"g": 9.0}
        assert d["histograms"]["h"]["count"] == 1

    def test_as_dict_empty_histogram_bounds_are_none(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        d = reg.as_dict()["histograms"]["h"]
        assert d["min"] is None and d["max"] is None

    def test_round_trip_and_merge(self):
        a = MetricsRegistry()
        a.inc("n", 3.0)
        a.observe("h", 1.0)
        a.set_gauge("g", 1.0)
        b = MetricsRegistry.from_dict(a.as_dict())
        b.merge_dict(a.as_dict())
        assert b.counter("n").value == pytest.approx(6.0)
        assert b.histogram("h").count == 2
        assert b.gauge("g").value == 1.0  # gauges: last value wins

    def test_merge_skips_empty_histograms(self):
        a = MetricsRegistry()
        a.histogram("h")  # declared but never observed
        b = MetricsRegistry()
        b.merge(a)
        assert b.histogram("h").count == 0
        assert b.histogram("h").min > b.histogram("h").max  # still the identity


class TestSeriesEncoding:
    def test_encode_sorts_keys(self):
        assert (
            encode_series("m", {"op": "solve", "tenant": "campus"})
            == "m{op=solve,tenant=campus}"
        )

    def test_encode_sanitises_structural_characters(self):
        key = encode_series("m", {"tenant": 'a{b}=c,d"e\\f'})
        assert key == "m{tenant=a_b__c_d_e_f}"
        # the sanitised key must survive a round trip
        name, labels = decode_series(key)
        assert name == "m" and labels == {"tenant": "a_b__c_d_e_f"}

    def test_encode_rejects_non_identifier_keys(self):
        with pytest.raises(ValueError, match="identifier"):
            encode_series("m", {"bad key": "x"})

    def test_decode_unlabeled_key(self):
        assert decode_series("sim.replays") == ("sim.replays", {})

    def test_decode_round_trip(self):
        key = encode_series("serve.tenant.requests", {"tenant": "campus", "op": "solve"})
        name, labels = decode_series(key)
        assert name == "serve.tenant.requests"
        assert labels == {"tenant": "campus", "op": "solve"}

    def test_decode_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            decode_series("m{unterminated")
        with pytest.raises(ValueError, match="malformed"):
            decode_series("m{novalue}")


class TestLabeledSeries:
    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        reg.inc("r", labels={"tenant": "a"})
        reg.inc("r", 2.0, labels={"tenant": "b"})
        reg.inc("r", 4.0)
        counters = reg.as_dict()["counters"]
        assert counters["r{tenant=a}"] == 1.0
        assert counters["r{tenant=b}"] == 2.0
        assert counters["r"] == 4.0

    def test_labeled_gauges_and_histograms(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 5.0, labels={"pool": "x"})
        reg.observe("h", 0.25, labels={"pool": "x"})
        d = reg.as_dict()
        assert d["gauges"]["g{pool=x}"] == 5.0
        assert d["histograms"]["h{pool=x}"]["count"] == 1

    def test_cardinality_cap_folds_to_base_series(self):
        reg = MetricsRegistry(label_limit=2)
        reg.inc("r", labels={"t": "a"})
        reg.inc("r", labels={"t": "b"})
        reg.inc("r", 5.0, labels={"t": "c"})  # over the cap: folds to base
        counters = reg.as_dict()["counters"]
        assert counters["r{t=a}"] == 1.0
        assert counters["r{t=b}"] == 1.0
        assert "r{t=c}" not in counters
        assert counters["r"] == 5.0
        assert counters[OVERFLOW_COUNTER] == 1.0

    def test_cap_readmits_known_series(self):
        reg = MetricsRegistry(label_limit=1)
        reg.inc("r", labels={"t": "a"})
        reg.inc("r", labels={"t": "a"})  # already admitted: no overflow
        counters = reg.as_dict()["counters"]
        assert counters["r{t=a}"] == 2.0
        assert OVERFLOW_COUNTER not in counters

    def test_cap_is_per_base_name(self):
        reg = MetricsRegistry(label_limit=1)
        reg.inc("r", labels={"t": "a"})
        reg.inc("s", labels={"t": "b"})  # different base name: own budget
        counters = reg.as_dict()["counters"]
        assert counters["r{t=a}"] == 1.0
        assert counters["s{t=b}"] == 1.0

    def test_default_limit_is_bounded(self):
        reg = MetricsRegistry()
        for i in range(DEFAULT_LABEL_LIMIT + 10):
            reg.inc("r", labels={"t": f"v{i}"})
        counters = reg.as_dict()["counters"]
        labeled = [k for k in counters if k.startswith("r{")]
        assert len(labeled) == DEFAULT_LABEL_LIMIT
        assert counters["r"] == 10.0
        assert counters[OVERFLOW_COUNTER] == 10.0

    def test_labels_survive_merge_dict(self):
        a = MetricsRegistry()
        a.inc("r", 2.0, labels={"tenant": "campus", "op": "solve"})
        a.observe("h", 1.0, labels={"tenant": "campus"})
        b = MetricsRegistry()
        b.inc("r", 1.0, labels={"tenant": "campus", "op": "solve"})
        b.merge_dict(a.as_dict())
        d = b.as_dict()
        assert d["counters"]["r{op=solve,tenant=campus}"] == 3.0
        assert d["histograms"]["h{tenant=campus}"]["count"] == 1

    def test_cap_applies_on_merge_path(self):
        donor = MetricsRegistry()  # default (large) limit
        for i in range(5):
            donor.inc("r", labels={"t": f"v{i}"})
        tight = MetricsRegistry(label_limit=2)
        tight.merge_dict(donor.as_dict())
        counters = tight.as_dict()["counters"]
        labeled = [k for k in counters if k.startswith("r{")]
        assert len(labeled) == 2
        assert counters["r"] == 3.0  # the clipped series folded into the base
        assert counters[OVERFLOW_COUNTER] == 3.0

    def test_labeled_timer(self):
        reg = MetricsRegistry()
        with reg.timer("t", labels={"tenant": "x"}):
            pass
        assert reg.as_dict()["histograms"]["t{tenant=x}"]["count"] == 1


def _labeled_traffic(reg: MetricsRegistry) -> dict:
    """A serve-shaped call sequence: a tenant set that overflows the
    cap, both label orders, sanitised and non-str label values."""
    for round_ in range(3):
        for i in range(12):
            tenant = f"pool-{i}" if i % 5 else f"po,ol={i}"
            reg.inc("serve.tenant.requests", labels={"tenant": tenant, "op": "solve"})
            reg.inc("serve.tenant.requests", labels={"op": "ping", "tenant": tenant})
            reg.observe("serve.tenant.request_seconds", 1e-3 * (i + 1), labels={"tenant": tenant})
            reg.inc("serve.tenant.cache.hits", float(round_ + 1), labels={"tenant": tenant})
        reg.set_gauge("g", float(round_), labels={"worker": round_})
        reg.set_gauge("g", 9.0, labels={"worker": True})
        reg.inc("u", labels={"v": [round_]})  # unhashable: encoded, never memoised
    return reg.as_dict()


class TestSeriesKeyMemo:
    def test_memoised_keys_keep_the_snapshot(self, monkeypatch):
        memoised = _labeled_traffic(MetricsRegistry(label_limit=8))
        monkeypatch.setattr(
            MetricsRegistry, "_series_key", lambda self, name, labels: encode_series(name, labels)
        )
        direct = _labeled_traffic(MetricsRegistry(label_limit=8))
        assert memoised == direct
        counters = direct["counters"]
        assert counters[OVERFLOW_COUNTER] > 0
        assert "serve.tenant.requests{op=solve,tenant=po_ol_0}" in counters
        assert direct["gauges"]["g{worker=True}"] == 9.0
        assert direct["gauges"]["g{worker=1}"] == 1.0

    def test_memo_is_bounded(self):
        reg = MetricsRegistry(label_limit=1)
        for i in range(SERIES_KEY_MEMO_LIMIT + 10):
            reg.inc("r", labels={"t": f"v{i}"})
        assert len(reg._series_keys) <= SERIES_KEY_MEMO_LIMIT
        assert reg.as_dict()["counters"][OVERFLOW_COUNTER] == SERIES_KEY_MEMO_LIMIT + 9


class TestWorkerSnapshotMerge:
    """The sweep path: workers record into private registries, the
    parent merges their ``as_dict`` snapshots.  Labels must survive."""

    def test_labels_survive_process_pool_merge(self):
        with ProcessPoolExecutor(max_workers=2) as pool:
            snapshots = list(pool.map(_worker_snapshot, range(3)))
        parent = MetricsRegistry()
        for snap in snapshots:
            parent.merge_dict(snap)
        d = parent.as_dict()
        for i in range(3):
            assert d["counters"][f"serve.tenant.requests{{op=solve,tenant=w{i}}}"] == 3.0
            assert d["histograms"][f"sim.replay_seconds{{tenant=w{i}}}"]["count"] == 1
        assert d["counters"]["sim.replays"] == 6.0

    def test_repeated_merge_accumulates(self):
        snap = _worker_snapshot(0)
        parent = MetricsRegistry()
        parent.merge_dict(snap)
        parent.merge_dict(snap)
        d = parent.as_dict()
        assert d["counters"]["serve.tenant.requests{op=solve,tenant=w0}"] == 6.0
        assert d["histograms"]["sim.replay_seconds{tenant=w0}"]["count"] == 2


class TestGlobalSwitch:
    def test_disabled_by_default(self):
        disable()
        assert active() is None

    def test_enable_disable(self):
        try:
            reg = enable()
            assert active() is reg
        finally:
            disable()
        assert active() is None

    def test_use_restores_previous(self):
        disable()
        outer = enable()
        try:
            with use() as inner:
                assert active() is inner
                assert inner is not outer
            assert active() is outer
        finally:
            disable()

    def test_use_accepts_explicit_registry(self):
        disable()
        mine = MetricsRegistry()
        with use(mine) as got:
            assert got is mine
            active().inc("x")
        assert mine.counter("x").value == 1.0
        assert active() is None
