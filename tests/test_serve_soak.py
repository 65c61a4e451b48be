"""Tests for the soak run of the serve load generator: drift detection,
conservation, artifact."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve.bench import SOAK_SCHEMA, BenchConfig, detect_drift, run_soak

CHECKER = Path(__file__).resolve().parent.parent / "benchmarks" / "check_soak_regression.py"


class TestSoakConfig:
    def test_defaults_valid(self):
        BenchConfig()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"duration_s": 0.0},
            {"sample_every_s": 0.0},
            {"duration_s": 1.0, "sample_every_s": 2.0},
            {"rate_qps": 0.0},
            {"max_inflight": 0},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            BenchConfig(**overrides)

    def test_as_dict_round_trips(self):
        config = BenchConfig(duration_s=5.0, rate_qps=100.0)
        assert BenchConfig(**config.as_dict()) == config


class TestDetectDrift:
    def test_monotone_climb_drifts(self):
        verdict = detect_drift([10.0 + i for i in range(12)])
        assert verdict["drifting"] is True
        assert verdict["ratio"] > 1.3
        assert verdict["increase_fraction"] == 1.0

    def test_flat_signal_does_not_drift(self):
        verdict = detect_drift([50.0] * 12)
        assert verdict["drifting"] is False
        assert verdict["ratio"] == pytest.approx(1.0)

    def test_too_few_samples_is_non_verdict(self):
        verdict = detect_drift([1.0, 100.0, 10000.0])
        assert verdict["drifting"] is False
        assert verdict["ratio"] is None
        assert verdict["samples"] == 3

    def test_spiky_but_stable_does_not_drift(self):
        # one late spike raises the last-third mean but most steps are
        # not increases: the increase-fraction test must hold the line
        values = [10.0, 9.0, 10.0, 9.0, 10.0, 9.0, 10.0, 9.0, 10.0, 9.0, 40.0, 9.0]
        verdict = detect_drift(values)
        assert verdict["drifting"] is False
        assert verdict["increase_fraction"] < 0.6

    def test_none_and_nan_samples_ignored(self):
        values = [10.0, None, float("nan"), 10.0, 10.0, 10.0, 10.0, 10.0]
        verdict = detect_drift(values)
        assert verdict["samples"] == 6
        assert verdict["drifting"] is False

    def test_zero_baseline_climb_drifts(self):
        verdict = detect_drift([0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        assert verdict["drifting"] is True

    def test_min_last_mean_suppresses_small_integer_noise(self):
        # queue depth creeping 0 -> 2: a huge ratio, but still noise
        values = [0.2 * i for i in range(12)]
        assert detect_drift(values)["drifting"] is True
        assert detect_drift(values, min_last_mean=10.0)["drifting"] is False

    def test_min_last_mean_does_not_mask_real_backlog(self):
        values = [5.0 * i for i in range(12)]  # climbs to 55
        assert detect_drift(values, min_last_mean=10.0)["drifting"] is True


@pytest.fixture(scope="module")
def soak_artifact(tmp_path_factory):
    """One short real soak shared by the artifact tests (daemon + load
    + sampler; a few seconds of wall clock)."""
    out = tmp_path_factory.mktemp("soak") / "soak.jsonl"
    config = BenchConfig(duration_s=3.0, sample_every_s=0.5, rate_qps=200.0, seed=7)
    summary = run_soak(config, str(out))
    return config, out, summary


class TestSoakRun:
    def test_summary_invariants(self, soak_artifact):
        config, _out, summary = soak_artifact
        assert summary["sent"] == round(config.rate_qps * config.duration_s)
        assert summary["errors"] == 0
        assert summary["completed"] == summary["sent"]
        assert summary["prom_parse_failures"] == 0
        assert summary["samples"] >= 4

    def test_conservation_is_exact(self, soak_artifact):
        # the acceptance criterion: per-tenant solve counters sum
        # EXACTLY to the number of requests sent
        _config, _out, summary = soak_artifact
        conservation = summary["conservation"]
        assert conservation["exact"] is True
        assert sum(conservation["per_tenant"].values()) == conservation["sent"]
        # the demo pools all took traffic
        assert len(conservation["per_tenant"]) == 3

    def test_artifact_structure(self, soak_artifact):
        _config, out, summary = soak_artifact
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["kind"] == "header"
        assert records[0]["schema"] == SOAK_SCHEMA
        assert records[0]["config"]["duration_s"] == 3.0
        assert records[-1]["kind"] == "summary"
        body = records[1:-1]
        assert all(r["kind"] == "sample" for r in body)
        assert len(body) == summary["samples"]
        times = [r["t_s"] for r in body]
        assert times == sorted(times)
        for record in body:
            assert set(record) >= {
                "t_s",
                "rss_mb",
                "queue_depth",
                "requests",
                "errors",
                "interval_latency_ms_mean",
                "tenant_solve_requests",
            }

    def test_checker_passes_on_real_artifact(self, soak_artifact):
        _config, out, _summary = soak_artifact
        result = subprocess.run(
            [sys.executable, str(CHECKER), str(out), "--min-samples", "3"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "PASS" in result.stdout

    def test_cli_soak_flags_reach_the_run(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "cli.jsonl"
        sink = io.StringIO()
        argv = ["bench-serve", "--soak", "--soak-seconds", "1", "--sample-every", "0.5"]
        argv += ["--rate", "50", "--max-inflight", "64", "--out", str(out)]
        assert main(argv, stdout=sink) == 0
        assert "conservation exact" in sink.getvalue()
        header = json.loads(out.read_text().splitlines()[0])
        assert header["config"] == {
            "duration_s": 1.0,
            "sample_every_s": 0.5,
            "rate_qps": 50.0,
            "seed": 2005,
            "batch_window_s": 0.0,
            "max_batch": 256,
            "max_inflight": 64,
        }

    def test_run_soak_without_out_path_writes_nothing(self, tmp_path):
        config = BenchConfig(duration_s=1.0, sample_every_s=0.5, rate_qps=50.0)
        summary = run_soak(config, None)
        assert summary["errors"] == 0
        assert list(tmp_path.iterdir()) == []


class TestChecker:
    def _artifact(self, tmp_path, mutate=None):
        header = {"schema": SOAK_SCHEMA, "kind": "header", "config": {}}
        samples = [
            {"kind": "sample", "t_s": float(i), "rss_mb": 50.0, "queue_depth": 0}
            for i in range(6)
        ]
        summary = {
            "kind": "summary",
            "sent": 100,
            "completed": 100,
            "errors": 0,
            "wall_s": 6.0,
            "latency_ms": {"p50": 1.0, "p99": 2.0},
            "prom_parse_failures": 0,
            "conservation": {
                "sent": 100,
                "per_tenant_total": 100,
                "per_tenant": {"a": 100},
                "exact": True,
            },
            "drift": {
                "rss_mb": {"drifting": False},
                "queue_depth": {"drifting": False},
                "interval_latency_ms_mean": {"drifting": False},
            },
        }
        if mutate:
            mutate(summary)
        path = tmp_path / "soak.jsonl"
        with open(path, "w") as fh:
            for record in [header, *samples, summary]:
                fh.write(json.dumps(record) + "\n")
        return path

    def _run(self, path):
        return subprocess.run(
            [sys.executable, str(CHECKER), str(path)],
            capture_output=True,
            text=True,
        )

    def test_passes_clean_artifact(self, tmp_path):
        result = self._run(self._artifact(tmp_path))
        assert result.returncode == 0

    def test_fails_on_errors(self, tmp_path):
        def mutate(summary):
            summary["errors"] = 3

        result = self._run(self._artifact(tmp_path, mutate))
        assert result.returncode == 1
        assert "3 request(s) failed" in result.stderr

    def test_fails_on_conservation_violation(self, tmp_path):
        def mutate(summary):
            summary["conservation"] = {
                "sent": 100,
                "per_tenant_total": 99,
                "per_tenant": {"a": 99},
                "exact": False,
            }

        result = self._run(self._artifact(tmp_path, mutate))
        assert result.returncode == 1
        assert "conservation violated" in result.stderr

    def test_fails_on_prom_parse_failures(self, tmp_path):
        def mutate(summary):
            summary["prom_parse_failures"] = 2

        result = self._run(self._artifact(tmp_path, mutate))
        assert result.returncode == 1
        assert "Prometheus" in result.stderr

    def test_fails_on_rss_drift(self, tmp_path):
        def mutate(summary):
            summary["drift"]["rss_mb"] = {
                "drifting": True,
                "first_third_mean": 50.0,
                "last_third_mean": 90.0,
                "ratio": 1.8,
                "increase_fraction": 0.9,
            }

        result = self._run(self._artifact(tmp_path, mutate))
        assert result.returncode == 1
        assert "rss_mb drifts" in result.stderr

    def test_latency_drift_only_warns(self, tmp_path):
        def mutate(summary):
            summary["drift"]["interval_latency_ms_mean"] = {
                "drifting": True,
                "ratio": 1.5,
            }

        result = self._run(self._artifact(tmp_path, mutate))
        assert result.returncode == 0
        assert "WARN" in result.stdout

    def test_rejects_non_soak_file(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text(json.dumps({"kind": "header", "schema": "other/1"}) + "\n")
        result = self._run(path)
        assert result.returncode == 2
