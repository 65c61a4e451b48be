"""Batch replay benchmark: the vectorized kernel vs the scalar loop.

The policy-grid experiments replay availability pools far beyond what
the per-event scalar loop can sustain -- the target scale is a 100k
machine synthetic pool (~2M availability segments).  This bench times
:func:`repro.simulation.batch_replay.replay_flat_pool` (the
struct-of-arrays core) on the full pool against the per-cycle golden
reference kept as a test oracle (``tests/replay_oracle.py``), timed on
a subsample and extrapolated (replay cost is per-machine linear; timing
100k machines through the scalar loop would take most of a minute for
no extra information).  It writes ``BENCH_replay.json`` (committed,
uploaded as a CI artifact, and guarded by
``benchmarks/check_replay_regression.py``):

* ``wallclock_speedup``: extrapolated scalar seconds over batch
  seconds, single thread, same machine.  Must be >= 50x.
* ``max_rel_dev``: scalar-vs-batch deviation across every
  ``SimulationResult`` field on an equivalence subsample, under all
  three partial-transfer policies.  Must stay <= 1e-9 (counts exact).
"""

import dataclasses
import json
import time

import numpy as np

from repro.core import CheckpointCosts, CheckpointSchedule
from repro.distributions import Exponential, Weibull
from repro.simulation import SimulationConfig
from repro.simulation.batch_replay import replay_flat_pool
from tests.replay_oracle import replay_flat

REL_BUDGET = 1e-9
SPEEDUP_FLOOR = 50.0

N_MACHINES = 100_000
N_EQUIV = 300  # machines cross-checked field by field
N_SCALAR = 1_200  # machines timed through the scalar loop
SEED = 5

#: harvested desktops stay up for hours against a ~35 min checkpoint
#: interval, so each availability segment spans many work/checkpoint
#: cycles -- the regime the scalar loop's per-cycle Python cost bites in
MODEL = Exponential(1.0 / 20000.0)
DURATIONS = Weibull(0.55, 24000.0)
CONFIG = SimulationConfig(checkpoint_cost=120.0, latency=10.0)


def _make_pool():
    rng = np.random.default_rng(SEED)
    lengths = rng.integers(10, 30, size=N_MACHINES).astype(np.int64)
    a = DURATIONS.sample(int(lengths.sum()), rng)
    return a, lengths


def _make_schedule():
    costs = CheckpointCosts(
        checkpoint=CONFIG.checkpoint_cost,
        recovery=CONFIG.effective_recovery_cost,
        latency=CONFIG.latency,
    )
    return CheckpointSchedule(MODEL, costs)


def _max_rel_dev(batch_res, scalar_res):
    worst = 0.0
    for f in dataclasses.fields(type(scalar_res)):
        got, want = getattr(batch_res, f.name), getattr(scalar_res, f.name)
        if isinstance(want, str):
            assert got == want
            continue
        denom = max(abs(float(want)), 1.0)
        worst = max(worst, abs(float(got) - float(want)) / denom)
    return worst


def test_bench_replay(benchmark):
    a, lengths = _make_pool()
    off = np.zeros(N_MACHINES + 1, dtype=np.int64)
    np.cumsum(lengths, out=off[1:])
    schedule = _make_schedule()
    schedule.intervals(4)  # materialise outside both timed regions

    # -- scalar equivalence on the subsample, all three policies -------
    max_rel_dev = 0.0
    for policy in ("proportional", "full", "none"):
        cfg = dataclasses.replace(CONFIG, partial_transfer_policy=policy)
        sub = [a[off[m] : off[m + 1]] for m in range(N_EQUIV)]
        batch = replay_flat_pool(
            schedule, np.concatenate(sub), lengths[:N_EQUIV], cfg
        ).to_results()
        for m, res in enumerate(batch):
            scalar = replay_flat(
                schedule, sub[m], cfg, machine_id=res.machine_id
            )
            max_rel_dev = max(max_rel_dev, _max_rel_dev(res, scalar))

    # -- wall clock ----------------------------------------------------
    batch_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        replay_flat_pool(schedule, a, lengths, CONFIG)
        batch_seconds = min(batch_seconds, time.perf_counter() - start)

    scalar_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        for m in range(N_SCALAR):
            replay_flat(schedule, a[off[m] : off[m + 1]], CONFIG)
        scalar_seconds = min(scalar_seconds, time.perf_counter() - start)
    scalar_extrapolated = scalar_seconds * N_MACHINES / N_SCALAR
    speedup = scalar_extrapolated / batch_seconds

    artifact = {
        "schema": "repro.bench.replay/1",
        "workload": {
            "n_machines": N_MACHINES,
            "n_segments": int(lengths.sum()),
            "model": "exponential(1/20000)",
            "durations": "weibull(0.55, 24000.0)",
            "checkpoint_cost": CONFIG.checkpoint_cost,
            "latency": CONFIG.latency,
            "seed": SEED,
        },
        "batch_seconds": batch_seconds,
        "scalar_seconds_sampled": scalar_seconds,
        "scalar_machines_sampled": N_SCALAR,
        "scalar_seconds_extrapolated": scalar_extrapolated,
        "wallclock_speedup": speedup,
        "max_rel_dev": max_rel_dev,
        "equivalence_machines": N_EQUIV,
    }
    with open("BENCH_replay.json", "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")

    assert speedup >= SPEEDUP_FLOOR, artifact
    assert max_rel_dev <= REL_BUDGET, artifact

    benchmark.pedantic(
        lambda: replay_flat_pool(schedule, a, lengths, CONFIG),
        rounds=3,
        iterations=1,
    )
