"""The benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: ``sweep``, ``gang``, ``storage`` (batch studies, run by
``batch.py`` in a fresh worker process) and ``serve`` (a daemon under
open-loop load, ``serve_load.py``).  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a run
with the layer wrappers of ``layers.py`` installed.  Every metric is
printed by name with its unit, then a run record (provenance, raw
figures) as one JSON line, then the result as the last line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

See README.md for what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any

import numpy

from probe import probe_core, rescale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("sweep", "gang", "storage", "serve")

END_TO_END: dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "p99_ms": "ms",
}

PER_LAYER: dict[str, str] = {
    "fitting.calls": "count",
    "fitting.self_s": "s",
    "solve.calls": "count",
    "solve.self_s": "s",
    "solve.cache_hits": "count",
    "solve.cache_misses": "count",
    "solve.cache_evictions": "count",
    "solve.cache_hit_rate": "ratio",
    "schedule.intervals": "count",
    "schedule.self_s": "s",
    "replay.calls": "count",
    "replay.segments": "count",
    "replay.self_s": "s",
    "quadrature.calls": "count",
    "quadrature.self_s": "s",
    "distributions.numeric_warnings": "count",
    "storage.commits": "count",
    "storage.self_s": "s",
    "engine.self_s": "s",
    "link.transfers": "count",
    "link.self_s": "s",
    "stats.self_s": "s",
    "serve.parse.p99_ms": "ms",
    "serve.queue_wait.p99_ms": "ms",
    "serve.batch.mean_size": "count",
    "serve.solve.p99_ms": "ms",
    "serve.respond.p99_ms": "ms",
    "serve.solves_per_request": "ratio",
    "serve.cache_hit_rate": "ratio",
    "serve.rejected": "count",
    "serve.generator_lag_ms": "ms",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

#: fresh interpreters timed from spawn to the end of set-up (the median
#: is ``setup_s``); the last one goes on to run the workload
SETUP_REPEATS = 3

#: on ``serve``, ``wall_s`` is this percentile of the run's burst times:
#: other tenants of a shared host only ever add time, and the lower
#: quartile tracks the daemon's own speed more steadily than the median
WALL_QUANTILE = 25


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def provenance(args: argparse.Namespace) -> dict[str, Any]:
    """Host, versions and source identity of this run."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha: str | None = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # a plain checkout; the source digest still identifies it
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
def _spawn_worker(
    args: argparse.Namespace, setup_only: bool
) -> tuple[float, float, subprocess.Popen[str]]:
    """Start a worker; returns the (raw, normalised) seconds from spawn to
    READY, and the process.  The worker inherits this process's core,
    whose speed is probed right before and right after its set-up."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "batch.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    before = probe_core(-1)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    assert proc.stdout is not None
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{args.workload} worker failed during set-up")
    return ready, rescale(ready, [before, probe_core(-1)]), proc


def run_batch(args: argparse.Namespace) -> tuple[dict[str, float], dict[str, Any], int, int]:
    setups: list[tuple[float, float]] = []
    for _ in range(SETUP_REPEATS - 1):
        seconds, normalised, proc = _spawn_worker(args, setup_only=True)
        proc.communicate(timeout=60)
        setups.append((seconds, normalised))
    seconds, normalised, proc = _spawn_worker(args, setup_only=False)
    setups.append((seconds, normalised))
    try:
        out, _ = proc.communicate(timeout=args.seconds + 150)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} worker exited with {proc.returncode}")
    raw = json.loads(out.strip().splitlines()[-1])
    # the study times, rescaled by the host-speed probe (see batch.py)
    times = raw["normalised"]
    metrics: dict[str, float]
    if args.trace == 0:
        median = statistics.median(times)
        metrics = {
            "wall_s": median,
            "setup_s": statistics.median(norm for _, norm in setups),
            "peak_rss_mb": raw["peak_rss_mb"],
            "p50_ms": 1e3 * median,
            "p99_ms": 1e3 * _percentile(times, 99),
        }
    else:
        metrics = _batch_layers(raw)
    record = {
        "walls": raw["walls"],
        "normalised": times,
        "setups": [raw for raw, _ in setups],
        "normalised_setups": [norm for _, norm in setups],
        "problems": raw["problems"],
    }
    return metrics, record, raw["attempted"], raw["failed"]


def _percentile(values: list[float], q: float) -> float:
    return float(numpy.percentile(values, q))


def _batch_layers(raw: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics: counts from the first traced rep (a fixed input
    for a fixed seed, so they repeat exactly), times as medians over
    every traced rep."""
    traced = raw["traced"]
    first = traced[0]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for layer in first["self_s"]:
        metrics[f"{layer}.self_s"] = statistics.median(rep["self_s"][layer] for rep in traced)
    for layer in ("fitting", "solve", "replay", "quadrature"):
        metrics[f"{layer}.calls"] = first["calls"][layer]
    metrics.update(first["counts"])
    hits, misses, evictions = first["cache"]
    metrics["solve.cache_hits"] = hits
    metrics["solve.cache_misses"] = misses
    metrics["solve.cache_evictions"] = evictions
    metrics["solve.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["distributions.numeric_warnings"] = raw["numeric_warnings"]
    metrics["trace.unattributed_s"] = statistics.median(
        rep["wall_s"] - sum(rep["self_s"].values()) for rep in traced
    )
    metrics["trace.overhead_s"] = statistics.median(rep["wall_s"] for rep in traced) - statistics.median(
        rep["untraced_wall_s"] for rep in traced
    )
    return {k: metrics[k] for k in PER_LAYER}


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def run_serve(args: argparse.Namespace) -> tuple[dict[str, float], dict[str, Any], int, int]:
    sys.path.insert(0, HERE)
    import serve_load

    tmp_dir = os.path.join(ROOT, ".perfbench_tmp")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir)
    try:
        raw = serve_load.run(args.seed, args.seconds, args.trace == 1, tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    found = raw["metrics"]
    if args.trace == 0:
        found["wall_s"] = _percentile(found["normalised_bursts"], WALL_QUANTILE)
        metrics = {k: float(found[k]) for k in END_TO_END}
        # reported, not gated: see README.md, "capacity_qps"
        record = {
            "capacity_qps": found["capacity_qps"],
            "bursts": found["bursts"],
            "normalised_bursts": found["normalised_bursts"],
            "setups": found["setups"],
            "ladder": found["ladder"],
            "generator_limited": found["generator_limited"],
            "segment_p99_ms": found["segment_p99_ms"],
            "invalid_segments": found["invalid_segments"],
            "reference_samples": found["reference_samples"],
        }
    else:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        for layer, value in found.pop("layers.self_s").items():
            metrics[f"{layer}.self_s"] = value
        metrics["solve.calls"] = found.pop("layers.calls")["solve"]
        metrics.update({k: float(v) for k, v in found.items() if k in PER_LAYER})
        metrics = {k: metrics[k] for k in PER_LAYER}
        record = {}
    return metrics, record, raw["attempted"], raw["failed"]


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no repro sources under {ROOT}", file=sys.stderr)
        return 2

    prov = provenance(args)
    runner = run_serve if args.workload == "serve" else run_batch
    metrics, record, attempted, failed = runner(args)
    units = END_TO_END if args.trace == 0 else PER_LAYER
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{'error_rate':32s} {failed / attempted:14.6g} (failed {failed} of {attempted})")
    if "capacity_qps" in record:
        print(f"{'capacity_qps':32s} {record['capacity_qps']:14.6g} 1/s (not gated)")
    print(json.dumps({"record": {"provenance": prov, **record}}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
