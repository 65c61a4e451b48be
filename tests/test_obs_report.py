"""Tests for run reports and the --metrics / `repro report` CLI surface."""

import io
import json

import pytest

from repro.cli import main
from repro.core import active_cache
from repro.obs.metrics import MetricsRegistry, disable
from repro.obs.report import (
    SCHEMA,
    SCHEMA_V1,
    SCHEMA_V2,
    build_report,
    diff_reports,
    dumps_report,
    load_report,
    render_diff,
    render_report,
    write_report,
)


def _registry():
    reg = MetricsRegistry()
    reg.inc("numerics.hybrid.passes", 123.0)
    reg.set_gauge("sim.pool.workers", 2.0)
    reg.observe("sim.replay_seconds", 0.25)
    return reg


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), stdout=buf)
    return code, buf.getvalue()


class TestReportRoundTrip:
    def test_build_load_round_trip(self, tmp_path):
        report = build_report(
            _registry(), command="fig3", argv=["fig3"], duration_seconds=1.5
        )
        path = tmp_path / "report.json"
        write_report(str(path), report)
        loaded = load_report(str(path))
        assert loaded == report
        assert loaded["schema"] == SCHEMA
        assert loaded["metrics"]["counters"]["numerics.hybrid.passes"] == 123.0

    def test_dumps_is_canonical(self):
        report = build_report(_registry(), command="x")
        assert dumps_report(report) == dumps_report(json.loads(dumps_report(report)))

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/else", "metrics": {}}))
        with pytest.raises(ValueError, match="not a repro run report"):
            load_report(str(path))

    def test_load_rejects_missing_sections(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": SCHEMA, "metrics": {"counters": {}}}))
        with pytest.raises(ValueError, match="gauges"):
            load_report(str(path))

    def test_render_mentions_every_metric(self):
        text = render_report(build_report(_registry(), command="fig3"))
        assert "run report" in text
        assert "numerics.hybrid.passes" in text
        assert "sim.pool.workers" in text
        assert "sim.replay_seconds" in text

    def test_render_empty_registry(self):
        text = render_report(build_report(MetricsRegistry(), command="noop"))
        assert "(no metrics recorded)" in text


class TestSchemaVersions:
    """Schema /3 must load, and so must legacy /2 and /1 documents."""

    def test_current_schema_is_v3(self):
        assert SCHEMA == "repro.obs.report/3"
        report = build_report(_registry(), command="x")
        assert report["schema"] == SCHEMA
        hist = report["metrics"]["histograms"]["sim.replay_seconds"]
        assert "buckets" in hist and "p50" in hist and "p95" in hist and "p99" in hist

    def test_v3_report_carries_labeled_series(self):
        reg = _registry()
        reg.inc("serve.tenant.requests", labels={"tenant": "campus", "op": "solve"})
        report = build_report(reg, command="x")
        counters = report["metrics"]["counters"]
        assert counters["serve.tenant.requests{op=solve,tenant=campus}"] == 1.0

    def test_load_accepts_v1_report(self, tmp_path):
        v1 = {
            "schema": SCHEMA_V1,
            "command": "fig3",
            "argv": ["fig3"],
            "duration_seconds": 1.0,
            "metrics": {
                "counters": {"sim.replays": 4.0},
                "gauges": {},
                "histograms": {
                    "sim.replay_seconds": {
                        "count": 4,
                        "sum": 1.0,
                        "min": 0.1,
                        "max": 0.5,
                    }
                },
            },
        }
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(v1))
        loaded = load_report(str(path))
        assert loaded["schema"] == SCHEMA_V1
        # a /1 histogram has no percentiles; rendering must not crash
        assert "sim.replay_seconds" in render_report(loaded)

    def test_load_accepts_v2_report(self, tmp_path):
        report = build_report(_registry(), command="x")
        report["schema"] = SCHEMA_V2
        path = tmp_path / "v2.json"
        write_report(str(path), report)
        assert load_report(str(path))["schema"] == SCHEMA_V2

    def test_load_accepts_v3_report(self, tmp_path):
        path = tmp_path / "v3.json"
        write_report(str(path), build_report(_registry(), command="x"))
        assert load_report(str(path))["schema"] == SCHEMA

    def test_v2_to_v3_round_trip(self, tmp_path):
        """A /2 document loads, its metrics merge into a live registry,
        and the re-built report comes out as /3."""
        v2 = build_report(_registry(), command="x")
        v2["schema"] = SCHEMA_V2
        path = tmp_path / "v2.json"
        write_report(str(path), v2)
        loaded = load_report(str(path))
        reg = MetricsRegistry()
        reg.merge_dict(loaded["metrics"])
        rebuilt = build_report(reg, command="x")
        assert rebuilt["schema"] == SCHEMA
        assert rebuilt["metrics"]["counters"] == v2["metrics"]["counters"]

    def test_render_v2_shows_percentiles(self):
        text = render_report(build_report(_registry(), command="x"))
        assert "p50" in text and "p95" in text and "p99" in text


class TestDiffReports:
    def _two_reports(self):
        a = MetricsRegistry()
        a.inc("sim.replays", 10.0)
        a.set_gauge("sim.pool.workers", 1.0)
        a.observe("sim.replay_seconds", 0.2)
        b = MetricsRegistry()
        b.inc("sim.replays", 15.0)
        b.inc("link.transfers", 3.0)
        b.set_gauge("sim.pool.workers", 4.0)
        b.observe("sim.replay_seconds", 0.2)
        b.observe("sim.replay_seconds", 0.4)
        return (
            build_report(a, command="fig3"),
            build_report(b, command="fig3"),
        )

    def test_absolute_and_relative_deltas(self):
        ra, rb = self._two_reports()
        diff = diff_reports(ra, rb)
        entry = diff["counters"]["sim.replays"]
        assert entry["delta"] == pytest.approx(5.0)
        assert entry["relative"] == pytest.approx(0.5)
        assert diff["gauges"]["sim.pool.workers"]["delta"] == pytest.approx(3.0)

    def test_one_sided_metric_has_none_delta(self):
        ra, rb = self._two_reports()
        diff = diff_reports(ra, rb)
        entry = diff["counters"]["link.transfers"]
        assert entry["a"] is None
        assert entry["delta"] is None

    def test_histogram_deltas(self):
        ra, rb = self._two_reports()
        diff = diff_reports(ra, rb)
        h = diff["histograms"]["sim.replay_seconds"]
        assert h["count_delta"] == 1
        assert h["mean_delta"] == pytest.approx(0.1)
        assert "p95_delta" in h

    def test_schema_mismatch_raises(self):
        ra, rb = self._two_reports()
        ra["schema"] = SCHEMA_V1
        with pytest.raises(ValueError, match="schema mismatch"):
            diff_reports(ra, rb)

    def test_render_diff_output(self):
        ra, rb = self._two_reports()
        text = render_diff(diff_reports(ra, rb))
        assert "report diff" in text
        assert "sim.replays" in text
        assert "+50.00%" in text


class TestDiffCli:
    def test_diff_prints_deltas(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        reg_a.inc("sim.replays", 2.0)
        reg_b.inc("sim.replays", 4.0)
        write_report(str(a), build_report(reg_a, command="x"))
        write_report(str(b), build_report(reg_b, command="y"))
        code, text = run_cli("report", "--diff", str(a), str(b))
        assert code == 0
        assert "sim.replays" in text
        assert "+100.00%" in text

    def test_diff_json_mode(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        reg = MetricsRegistry()
        reg.inc("n", 1.0)
        write_report(str(a), build_report(reg, command="x"))
        write_report(str(b), build_report(reg, command="x"))
        code, text = run_cli("report", "--diff", str(a), str(b), "--json")
        assert code == 0
        parsed = json.loads(text)
        assert parsed["counters"]["n"]["delta"] == 0.0

    def test_diff_schema_mismatch_exits_nonzero(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        reg = MetricsRegistry()
        report = build_report(reg, command="x")
        write_report(str(b), report)
        v1 = dict(report)
        v1["schema"] = SCHEMA_V1
        a.write_text(json.dumps(v1))
        code, text = run_cli("report", "--diff", str(a), str(b))
        assert code == 2
        assert "schema mismatch" in text


class TestCliMetrics:
    def test_sweep_records_hot_layer_counters(self, tmp_path):
        cache = active_cache()
        if cache is not None:
            cache.clear()  # hot-layer counters require cache-cold solves
        out = tmp_path / "metrics.json"
        code, _ = run_cli(
            "fig3", "--machines", "4", "--observations", "35", "--metrics", str(out)
        )
        assert code == 0
        disable()  # belt and braces: the CLI must have uninstalled already
        report = load_report(str(out))
        counters = report["metrics"]["counters"]
        # optimizer, schedule and replay layers must all have fired
        assert counters["numerics.hybrid.passes"] > 0
        assert counters["numerics.hybrid.rows"] >= counters["numerics.hybrid.passes"]
        assert counters["opt.cache.misses"] > 0
        assert counters["schedule.solves"] > 0
        assert (
            counters.get("schedule.reuses.memoryless", 0)
            + counters.get("schedule.reuses.converged", 0)
            > 0
        )
        assert counters["sim.replays"] > 0
        assert counters["sim.checkpoints.completed"] > 0
        hists = report["metrics"]["histograms"]
        assert hists["sim.replay_seconds"]["count"] > 0

    def test_live_run_records_link_and_engine_counters(self, tmp_path):
        out = tmp_path / "metrics.json"
        code, _ = run_cli(
            "table4",
            "--horizon-days",
            "0.1",
            "--live-machines",
            "8",
            "--metrics",
            str(out),
        )
        assert code == 0
        report = load_report(str(out))
        counters = report["metrics"]["counters"]
        assert counters["engine.events"] > 0
        assert counters["link.transfers"] > 0
        assert counters["link.collisions"] > 0
        assert counters["live.placements"] > 0
        assert report["metrics"]["gauges"]["live.machines"] == 8.0

    def test_report_subcommand_round_trips(self, tmp_path):
        cache = active_cache()
        if cache is not None:
            cache.clear()  # the report must show cache-cold solver work
        out = tmp_path / "metrics.json"
        run_cli("fig3", "--machines", "3", "--observations", "35", "--metrics", str(out))
        code, text = run_cli("report", str(out))
        assert code == 0
        assert "run report" in text
        assert "numerics.hybrid.passes" in text
        code, text = run_cli("report", str(out), "--json")
        assert code == 0
        assert json.loads(text) == load_report(str(out))

    def test_report_subcommand_rejects_non_report(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="not a repro run report"):
            run_cli("report", str(path))

    def test_metrics_flag_announces_path(self, tmp_path):
        out = tmp_path / "m.json"
        _, text = run_cli(
            "table2", "--synthetic-points", "200", "--metrics", str(out)
        )
        assert f"[metrics written to {out}]" in text
        assert out.exists()
