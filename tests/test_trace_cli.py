"""Tests for ``--trace`` wiring and every ``repro trace`` subcommand."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.report import load_report
from repro.obs.tracing import (
    TRACE_SCHEMA,
    chrome_to_events,
    link_timeline,
    load_trace,
)
from repro.obs.tracing import active as trace_active
from repro.obs.tracing.cli import EXIT_BROKEN_PIPE

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), stdout=buf)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def fig3_trace(tmp_path_factory):
    """One small fig3 run with both --metrics and --trace enabled."""
    base = tmp_path_factory.mktemp("fig3")
    trace_path = base / "t.jsonl"
    metrics_path = base / "m.json"
    code, text = run_cli(
        "fig3", "--machines", "4", "--observations", "35",
        "--metrics", str(metrics_path), "--trace", str(trace_path),
    )
    assert code == 0
    assert trace_active() is None  # the CLI must uninstall the recorder
    assert f"[trace written to {trace_path}]" in text
    return trace_path, metrics_path


class TestTraceFlag:
    def test_trace_file_is_valid_schema1(self, fig3_trace):
        trace_path, _ = fig3_trace
        header, events = load_trace(str(trace_path))
        assert header["schema"] == TRACE_SCHEMA
        assert header["meta"]["command"] == "fig3"
        assert events
        cats = {ev["cat"] for ev in events}
        # the replay vertical must be fully instrumented
        assert {"replay", "link", "opt"} <= cats

    def test_timeline_total_matches_counter_exactly(self, fig3_trace):
        """The acceptance criterion: the reconstructed utilization series
        sums to the run's ``link.transferred_mb`` counter."""
        trace_path, metrics_path = fig3_trace
        _, events = load_trace(str(trace_path))
        timeline = link_timeline(events)
        counter = load_report(str(metrics_path))["metrics"]["counters"][
            "link.transferred_mb"
        ]
        assert math.isclose(timeline.total_mb, counter, rel_tol=1e-9)

    def test_trace_sample_flag_thins_category(self, tmp_path):
        path = tmp_path / "t.jsonl"
        code, _ = run_cli(
            "fig3", "--machines", "2", "--observations", "35",
            "--trace", str(path), "--trace-sample", "replay.work=1000",
        )
        assert code == 0
        header, events = load_trace(str(path))
        n_work = sum(1 for ev in events if ev["cat"] == "replay" and ev["name"] == "work")
        assert header["n_sampled_out"] > 0
        assert 0 < n_work < 20

    def test_trace_limit_flag_bounds_the_buffer(self, tmp_path):
        path = tmp_path / "t.jsonl"
        code, _ = run_cli(
            "fig3", "--machines", "2", "--observations", "35",
            "--trace", str(path), "--trace-limit", "100",
        )
        assert code == 0
        header, events = load_trace(str(path))
        assert len(events) == 100
        assert header["n_dropped"] > 0

    def test_bad_trace_sample_spec_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(
                "fig3", "--machines", "2", "--observations", "35",
                "--trace", str(tmp_path / "t.jsonl"), "--trace-sample", "nonsense",
            )


class TestTraceSubcommands:
    def test_summary(self, fig3_trace):
        trace_path, _ = fig3_trace
        code, text = run_cli("trace", "summary", str(trace_path))
        assert code == 0
        assert "trace summary" in text
        assert "link.transfer" in text
        assert "replay.work" in text
        assert "sim time" in text

    def test_timeline_prints_series_and_total(self, fig3_trace):
        trace_path, metrics_path = fig3_trace
        code, text = run_cli("trace", "timeline", str(trace_path))
        assert code == 0
        assert "link utilization" in text
        counter = load_report(str(metrics_path))["metrics"]["counters"][
            "link.transferred_mb"
        ]
        total_line = next(
            line for line in text.splitlines() if line.startswith("total transferred MB")
        )
        printed = float(total_line.split()[-1])
        assert math.isclose(printed, counter, rel_tol=1e-6)

    def test_timeline_bin_flags(self, fig3_trace):
        trace_path, _ = fig3_trace
        code, text = run_cli("trace", "timeline", str(trace_path), "--bins", "10")
        assert code == 0
        rows = [line for line in text.splitlines() if line.lstrip()[:1].isdigit()]
        assert len(rows) == 10
        code, _ = run_cli("trace", "timeline", str(trace_path), "--bin-seconds", "5000")
        assert code == 0

    def test_filter_subsets_and_round_trips(self, fig3_trace, tmp_path):
        trace_path, _ = fig3_trace
        out = tmp_path / "link.jsonl"
        code, text = run_cli(
            "trace", "filter", str(trace_path), "--cat", "link", "-o", str(out)
        )
        assert code == 0
        assert "events written" in text
        header, events = load_trace(str(out))
        assert header["meta"]["filtered_from"] == str(trace_path)
        assert events
        assert all(ev["cat"] == "link" for ev in events)

    def test_filter_time_and_track_windows(self, fig3_trace, tmp_path):
        trace_path, _ = fig3_trace
        _, all_events = load_trace(str(trace_path))
        track = next(ev["track"] for ev in all_events if "track" in ev)
        out = tmp_path / "w.jsonl"
        code, _ = run_cli(
            "trace", "filter", str(trace_path),
            "--track", track, "--since", "0", "--until", "10000", "-o", str(out),
        )
        assert code == 0
        _, events = load_trace(str(out))
        assert all(ev["track"] == track for ev in events)
        assert all(0.0 <= ev["ts"] <= 10000.0 for ev in events)

    def test_filter_to_stdout(self, fig3_trace):
        trace_path, _ = fig3_trace
        code, text = run_cli("trace", "filter", str(trace_path), "--name", "failure")
        assert code == 0
        lines = [line for line in text.splitlines() if line.strip()]
        assert json.loads(lines[0])["schema"] == TRACE_SCHEMA

    def test_export_chrome_round_trips(self, fig3_trace, tmp_path):
        trace_path, _ = fig3_trace
        out = tmp_path / "chrome.json"
        code, text = run_cli(
            "trace", "export", str(trace_path), "--chrome", "-o", str(out)
        )
        assert code == 0
        assert "chrome trace written" in text
        doc = json.loads(out.read_text())
        assert doc["otherData"]["schema"] == TRACE_SCHEMA
        _, native = load_trace(str(trace_path))
        back = chrome_to_events(doc)
        assert len(back) == len(native)
        # megabytes survive the round trip, so timelines agree
        tl_native = link_timeline(native, n_bins=7)
        tl_back = link_timeline(back, n_bins=7)
        assert tl_back.total_mb == pytest.approx(tl_native.total_mb, rel=1e-9)

    def test_export_without_format_fails(self, fig3_trace):
        trace_path, _ = fig3_trace
        code, _ = run_cli("trace", "export", str(trace_path))
        assert code == 2

    def test_diff(self, fig3_trace, tmp_path):
        trace_path, _ = fig3_trace
        subset = tmp_path / "subset.jsonl"
        run_cli("trace", "filter", str(trace_path), "--cat", "link", "-o", str(subset))
        code, text = run_cli("trace", "diff", str(subset), str(trace_path))
        assert code == 0
        assert "trace diff" in text
        assert "link.transfer" in text
        assert "wire MB" in text

    def test_rejects_non_trace_file(self, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text("{}")
        with pytest.raises(ValueError, match="not a repro trace"):
            run_cli("trace", "summary", str(junk))


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [["summary"], ["filter"], ["timeline"], ["export", "--chrome"]],
        ids=["summary", "filter", "timeline", "export"],
    )
    def test_reader_gone_exits_quietly(self, fig3_trace, argv):
        """``repro trace ... | head -1`` with ``head`` gone before the
        first write: no traceback, a documented exit status."""
        trace_path, _ = fig3_trace
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write now fails with EPIPE
        try:
            result = subprocess.run(
                [sys.executable, "-m", "repro", "trace", argv[0], str(trace_path), *argv[1:]],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120.0,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
        finally:
            os.close(write_end)
        assert result.stderr == ""
        assert result.returncode == EXIT_BROKEN_PIPE


class TestPoolWorkerMerge:
    def test_worker_traces_merge_into_parent(self, tmp_path):
        """Fan-out over processes must be invisible in the trace."""
        serial = tmp_path / "serial.jsonl"
        fanned = tmp_path / "fanned.jsonl"
        common = ["fig3", "--machines", "4", "--observations", "35"]
        code, _ = run_cli(*common, "--workers", "1", "--trace", str(serial))
        assert code == 0
        code, _ = run_cli(*common, "--workers", "2", "--trace", str(fanned))
        assert code == 0
        _, ev_serial = load_trace(str(serial))
        _, ev_fanned = load_trace(str(fanned))
        assert len(ev_serial) == len(ev_fanned)
        tl_serial = link_timeline(ev_serial, n_bins=5)
        tl_fanned = link_timeline(ev_fanned, n_bins=5)
        assert tl_fanned.total_mb == pytest.approx(tl_serial.total_mb, rel=1e-9)
