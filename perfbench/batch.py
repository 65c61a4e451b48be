"""The batch workloads: one process runs a paper study again and again.

Run as a worker by ``run.py``::

    python perfbench/batch.py --workload sweep --seed 3 --seconds 20 --trace 0

It prints ``READY`` once imports and input generation are done (the
end of set-up), then runs studies until ``--seconds`` have passed and
prints one JSON line with every study's wall time, the correctness
tally, the peak RSS and, with ``--trace 1``, the per-layer numbers.
``--setup-only`` exits after ``READY``.

Inputs.  Each workload has one fixed base input whose rendered tables
are committed in ``reference.json``.  The study of rep ``r`` under seed
``s`` runs the base input in an order shuffled from ``(s, r)`` (the pool's
machines; for ``gang``, its eight runs), so every seed does the same
work and renders the committed tables.  Each rep gets a fresh solver
cache -- the only solve cache in ``repro`` -- so each study starts cold
the way a new process does.

Timing.  While a study runs, a timer signal runs the host-speed probe
of ``probe.py`` every 50 ms; the study's wall time, less the probes' own
time, is rescaled by the mean probe time.  Both the raw and the
normalised times are reported.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import sys
import time
import warnings
from typing import Any

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.condor.gang import GangExperimentConfig, run_gang_experiment  # noqa: E402
from repro.core.solver_cache import SolverCache, use_solver_cache  # noqa: E402
from repro.experiments.format import PaperTable  # noqa: E402
from repro.experiments.storage_study import run_storage_study  # noqa: E402
from repro.experiments.study import run_simulation_study  # noqa: E402
from repro.traces.model import MachinePool  # noqa: E402
from repro.traces.synthetic import SyntheticPoolConfig, generate_condor_pool  # noqa: E402

sys.path.insert(0, HERE)
from layers import LayerTracer  # noqa: E402
from probe import HostSpeed, pin, rescale  # noqa: E402

#: seed of every workload's base input (the committed reference)
BASE_SEED = 2005
#: fixed input sizes (see README.md for how they were chosen)
SWEEP_MACHINES = 4
STORAGE_MACHINES = 4
OBSERVATIONS = 125
GANG_MODELS = ("exponential", "weibull", "hyperexp2", "hyperexp3")
GANG_WIDTHS = (2, 6)
GANG_HORIZON_S = 3600.0
#: layers each workload must exercise; a traced run fails if one is silent
EXPECTED_LAYERS = {
    "sweep": ("fitting", "solve", "schedule", "replay", "stats"),
    "storage": ("fitting", "solve", "schedule", "replay", "storage"),
    "gang": ("fitting", "solve", "quadrature", "engine", "link"),
}
REFERENCE_PATH = os.path.join(HERE, "reference.json")


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def base_pool(n_machines: int) -> MachinePool:
    config = SyntheticPoolConfig(n_machines=n_machines, n_observations=OBSERVATIONS)
    return generate_condor_pool(config, np.random.default_rng(BASE_SEED))


def shuffled_pool(base: MachinePool, seed: int | None, rep: int) -> MachinePool:
    """The base pool in an order drawn from (seed, rep); ``seed=None``
    returns the base pool itself (the reference input)."""
    if seed is None:
        return base
    order = np.random.default_rng([seed, rep]).permutation(len(base.traces))
    return MachinePool(traces=tuple(base.traces[i] for i in order), name=base.name)


def gang_configs() -> list[GangExperimentConfig]:
    """The eight gang runs, in the order the table renders them."""
    return [
        GangExperimentConfig(
            width=width,
            model=model,
            horizon=GANG_HORIZON_S,
            n_machines=max(8, 3 * width),
            seed=BASE_SEED,
        )
        for model in GANG_MODELS
        for width in GANG_WIDTHS
    ]


class Workload:
    """One batch workload: input generation plus one study call."""

    def __init__(self, name: str, seed: int | None) -> None:
        self.name = name
        self.seed = seed
        if name == "sweep":
            self.base = base_pool(SWEEP_MACHINES)
        elif name == "storage":
            self.base = base_pool(STORAGE_MACHINES)
        elif name == "gang":
            self.base = None
        else:
            raise ValueError(f"unknown batch workload {name!r}")

    def inputs(self, rep: int) -> Any:
        if self.name == "gang":
            configs = gang_configs()
            if self.seed is None:
                return list(enumerate(configs))
            order = np.random.default_rng([self.seed, rep]).permutation(len(configs))
            return [(int(i), configs[i]) for i in order]
        return shuffled_pool(self.base, self.seed, rep)

    def run(self, inputs: Any) -> str:
        """The study call through to the rendered tables."""
        if self.name == "sweep":
            study = run_simulation_study(inputs, n_workers=1)
            return study.efficiency_table().render() + "\n\n" + study.bandwidth_table().render()
        if self.name == "storage":
            return run_storage_study(inputs).table().render()
        table = PaperTable(
            title="Extension — gang-scheduled job with coordinated checkpointing",
            header=["Distribution", "W", "Efficiency", "MB/Hour", "Gang failures", "Coordinated ckpts"],
        )
        rows: dict[int, list[str]] = {}
        for index, config in inputs:
            res = run_gang_experiment(config)
            rows[index] = [
                config.model,
                str(config.width),
                f"{res.efficiency:.3f}",
                f"{res.mb_per_hour:.0f}",
                f"{res.n_gang_failures}",
                f"{res.n_coordinated_checkpoints}",
            ]
        for index in sorted(rows):
            table.add_row(rows[index])
        return table.render()


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
_NUMBER = re.compile(r"[-+]?\d+(?:\.(\d+))?")
#: relative tolerance of the reference check, beside one unit of the
#: last rendered digit
REL_TOL = 1e-3


def table_cells(text: str) -> list[list[str]]:
    """The body cells of every table in ``text`` (rows below a rule)."""
    rows: list[list[str]] = []
    in_body = False
    for line in text.splitlines():
        if set(line) <= {"-", "+"} and line:
            in_body = True
            continue
        if not line or line.startswith("  "):
            in_body = False
            continue
        if in_body:
            rows.append([cell.strip() for cell in line.split(" | ")])
    return rows


def compare(text: str, reference: list[list[str]]) -> tuple[int, int, list[str]]:
    """Check every rendered value against the reference table.

    A numeric value passes when it is within one unit of its last
    rendered digit of the reference, or within ``REL_TOL`` of it;
    anything else in a cell (labels, significance markers) must match
    exactly.  Returns (values checked, values failed, first failures).
    """
    rows = table_cells(text)
    attempted = failed = 0
    problems: list[str] = []
    if len(rows) != len(reference):
        return 1, 1, [f"row count {len(rows)} != reference {len(reference)}"]
    for row, ref_row in zip(rows, reference, strict=True):
        if len(row) != len(ref_row):
            attempted += len(ref_row)
            failed += len(ref_row)
            problems.append(f"row {row!r} != reference {ref_row!r}")
            continue
        for cell, ref_cell in zip(row, ref_row, strict=True):
            got = [float(m.group(0)) for m in _NUMBER.finditer(cell)]
            want = list(_NUMBER.finditer(ref_cell))
            attempted += max(len(want), 1)
            if not want:
                if cell != ref_cell:
                    failed += 1
                    problems.append(f"{cell!r} != {ref_cell!r}")
                continue
            if len(got) != len(want):
                failed += len(want)
                problems.append(f"{cell!r} != {ref_cell!r}")
                continue
            for value, match in zip(got, want, strict=True):
                ref = float(match.group(0))
                decimals = len(match.group(1) or "")
                tol = max(10.0 ** -decimals, REL_TOL * abs(ref))
                if abs(value - ref) > tol * (1.0 + 1e-9):
                    failed += 1
                    problems.append(f"{cell!r} vs reference {ref_cell!r}")
    return attempted, failed, problems[:5]


def write_reference(name: str) -> None:
    """Render the base input's tables into ``reference.json``."""
    workload = Workload(name, None)
    text = workload.run(workload.inputs(0))
    data: dict[str, Any] = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as fh:
            data = json.load(fh)
    data[name] = table_cells(text)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_reference(name: str) -> list[list[str]]:
    with open(REFERENCE_PATH) as fh:
        return list(json.load(fh)[name])


# ----------------------------------------------------------------------
# the measured loop
# ----------------------------------------------------------------------
def numeric_warnings(caught: list[warnings.WarningMessage]) -> int:
    marker = os.sep + os.path.join("repro", "distributions") + os.sep
    return sum(1 for w in caught if marker in w.filename)


def timed_rep(
    workload: Workload, rep: int, *, probed: bool = True
) -> tuple[float, float, str, SolverCache, int]:
    """One cold study: returns (wall seconds, normalised seconds, rendered
    text, its solver cache, numeric warnings raised by the distributions
    layer).  With ``probed=False`` no probe runs and the normalised time
    is the wall time."""
    inputs = workload.inputs(rep)
    cache = SolverCache()
    speed = HostSpeed()
    with warnings.catch_warnings(record=True) as caught, use_solver_cache(cache):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        if probed:
            with speed:
                text = workload.run(inputs)
        else:
            text = workload.run(inputs)
        wall = time.perf_counter() - t0 - sum(speed.samples)
    normalised = rescale(wall, speed.samples) if probed else wall
    return wall, normalised, text, cache, numeric_warnings(caught)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXPECTED_LAYERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="render the base input and store it as the workload's reference",
    )
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference(args.workload)
        return 0

    pin(os.getpid(), -1)
    workload = Workload(args.workload, args.seed)
    reference = load_reference(args.workload)
    workload.inputs(0)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = LayerTracer()
    walls: list[float] = []
    normalised: list[float] = []
    traced: list[dict[str, Any]] = []
    attempted = failed = 0
    problems: list[str] = []
    warnings_rep0 = 0

    def check(text: str) -> None:
        nonlocal attempted, failed
        a, f, p = compare(text, reference)
        attempted += a
        failed += f
        problems.extend(p[: max(0, 5 - len(problems))])

    start = time.perf_counter()
    index = 0
    # at least three reps; with tracing, each untraced rep is followed by
    # a traced rep on the same input, so their difference is the overhead
    while index < 3 or time.perf_counter() - start < args.seconds:
        wall, norm, text, _cache, n_warn = timed_rep(workload, index, probed=args.trace == 0)
        walls.append(wall)
        normalised.append(norm)
        check(text)
        if index == 0:
            warnings_rep0 = n_warn
        if args.trace == 1:
            tracer.reset()
            tracer.install()
            try:
                traced_wall, _, text, cache, _ = timed_rep(workload, index, probed=False)
            finally:
                tracer.uninstall()
            check(text)
            traced.append(
                {
                    "wall_s": traced_wall,
                    "untraced_wall_s": wall,
                    "self_s": dict(tracer.self_s),
                    "calls": dict(tracer.calls),
                    "counts": dict(tracer.counts),
                    "cache": [cache.hits, cache.misses, cache.evictions],
                }
            )
        index += 1

    result: dict[str, Any] = {
        "walls": walls,
        "normalised": normalised,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numeric_warnings": warnings_rep0,
    }
    if args.trace == 1:
        silent = [layer for layer in EXPECTED_LAYERS[args.workload] if traced[0]["calls"][layer] == 0]
        if silent:
            raise SystemExit(f"layers expected on {args.workload} never fired: {silent}")
        result["traced"] = traced
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
