"""Fail CI when the solver bench regresses against the committed baseline.

Usage::

    python benchmarks/check_solver_regression.py BASELINE CURRENT [--max-regression 0.20]

Compares the freshly generated ``BENCH_solver.json`` (CURRENT) against
the committed one (BASELINE).  The gate is the *eval-count* headline --
``hybrid.passes_per_solve`` of the cached regime -- because it is
deterministic across machines, unlike wall-clock seconds: CURRENT may
exceed BASELINE by at most ``--max-regression`` (default 20%).  When
the baseline carries the cold (pool-sweep) section, its
``cold.passes_per_solve`` gets the same bound and CURRENT must still
show 0 cache hits there.  The correctness floor
(``t_opt_max_rel_dev <= 1e-9``) is re-checked too, so a solver change
that silently trades exactness for speed also fails.

Exit status: 0 on pass, 1 on regression, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA = "repro.bench.solver/1"
REL_BUDGET = 1e-9


def _load(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a solver bench artifact (schema={data.get('schema')!r})")
    return data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_solver.json")
    parser.add_argument("current", help="freshly generated BENCH_solver.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="allowed fractional increase in evals per solve (default 0.20)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = _load(args.baseline)
        current = _load(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    base_passes = float(baseline["hybrid"]["passes_per_solve"])
    curr_passes = float(current["hybrid"]["passes_per_solve"])
    limit = base_passes * (1.0 + args.max_regression)
    rel_dev = float(current["t_opt_max_rel_dev"])

    print(f"evals per solve: baseline {base_passes:.4f}, current {curr_passes:.4f} (limit {limit:.4f})")
    print(f"evals reduction vs golden: {float(current['evals_reduction_ratio']):.1f}x")
    print(f"wall-clock speedup vs golden: {float(current['wallclock_speedup']):.1f}x")
    print(f"T_opt max relative deviation: {rel_dev:.3e}")

    ok = True
    if "cold" in baseline:
        base_cold = float(baseline["cold"]["passes_per_solve"])
        cold = current.get("cold", {})
        curr_cold = float(cold.get("passes_per_solve", float("inf")))
        cold_limit = base_cold * (1.0 + args.max_regression)
        print(f"cold passes per solve: baseline {base_cold:.4f}, current {curr_cold:.4f} (limit {cold_limit:.4f})")
        if curr_cold > cold_limit:
            print(
                f"REGRESSION: cold passes per solve rose {curr_cold / base_cold - 1.0:+.1%} "
                f"(> {args.max_regression:.0%} allowed)",
                file=sys.stderr,
            )
            ok = False
        if float(cold.get("cache_hits", 0.0)) != 0.0:
            print("REGRESSION: the cold section is no longer cache-cold", file=sys.stderr)
            ok = False
    if curr_passes > limit:
        print(
            f"REGRESSION: evals per solve rose {curr_passes / base_passes - 1.0:+.1%} "
            f"(> {args.max_regression:.0%} allowed)",
            file=sys.stderr,
        )
        ok = False
    if rel_dev > REL_BUDGET:
        print(
            f"REGRESSION: T_opt deviation {rel_dev:.3e} exceeds the {REL_BUDGET:.0e} budget",
            file=sys.stderr,
        )
        ok = False
    if ok:
        print("solver bench within budget")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
