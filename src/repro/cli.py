"""Command-line interface: regenerate any table or figure of the paper.

Examples::

    repro-checkpoint table1 --machines 80 --workers 8
    repro-checkpoint fig4
    repro-checkpoint table4 --horizon-days 2
    repro-checkpoint validate
    repro-checkpoint all --machines 40 --workers 8 --out results.txt

(The module also runs as ``python -m repro ...``.)
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, Any, TextIO

import numpy as np

# the one eager repro import: `import repro` loads repro.traces.synthetic anyway
from repro.traces.synthetic import SyntheticPoolConfig

if TYPE_CHECKING:  # study and tool imports stay lazy at runtime
    from repro.experiments.study import SimulationStudy
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import TraceRecorder as _TraceRecorder

__all__ = ["TOOL_COMMANDS", "build_parser", "main"]

_SWEEP_COMMANDS = ("table1", "table3", "fig3", "fig4")
_LIVE_COMMANDS = ("table4", "table5")

#: tool subcommands with their own option surfaces, dispatched before
#: the experiment parser sees the arguments.  Keys appear in ``--help``
#: (tests enforce this); values are one-line summaries.
TOOL_COMMANDS: dict[str, str] = {
    "lint": "run the reprolint static-analysis pass (docs/ANALYSIS.md)",
    "report": "pretty-print or --diff --metrics run reports",
    "trace": "inspect --trace event logs: summary/filter/timeline/export",
    "serve": "run the async schedule-query daemon (docs/SERVING.md)",
    "bench-serve": "load-generate against the daemon; emits BENCH_serve.json",
}


def _tool_epilog() -> str:
    lines = ["tool subcommands (each has its own --help):"]
    lines += [f"  {name:<12} {summary}" for name, summary in TOOL_COMMANDS.items()]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-checkpoint",
        description=(
            "Reproduce the tables and figures of 'Minimizing the Network "
            "Overhead of Checkpointing in Cycle-harvesting Cluster "
            "Environments' (CLUSTER 2005)."
        ),
        epilog=_tool_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command",
        choices=(
            *_SWEEP_COMMANDS,
            "table2",
            *_LIVE_COMMANDS,
            "validate",
            "parallel",
            "gang",
            "fitstudy",
            "convergence",
            "sensitivity",
            "storage-study",
            "all",
        ),
        help=(
            "which artefact to regenerate ('parallel'/'gang' run the "
            "future-work extensions, 'fitstudy' the §3.1 goodness-of-fit "
            "table, 'convergence' the efficiency-convergence diagnostic, "
            "'storage-study' the incremental/compressed checkpoint storage "
            "sweep at the Table 4 campus point); the tool subcommands "
            "below (lint, report, trace, serve, bench-serve) have their "
            "own option surfaces"
        ),
    )
    parser.add_argument("--machines", type=int, default=120, help="pool size for the sweep experiments")
    parser.add_argument("--observations", type=int, default=125, help="observations per machine trace")
    parser.add_argument("--workers", type=int, default=1, help="parallel worker processes for the sweep")
    parser.add_argument("--seed", type=int, default=None, help="override the default experiment seed")
    parser.add_argument("--horizon-days", type=float, default=2.0, help="live-experiment horizon (Tables 4/5, validate)")
    parser.add_argument("--live-machines", type=int, default=48, help="fleet size for the live experiments")
    parser.add_argument("--synthetic-points", type=int, default=5000, help="trace length for Table 2")
    parser.add_argument("--out", type=str, default=None, help="also write the rendered output to this file")
    parser.add_argument(
        "--metrics",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "enable the observability layer and write a structured JSON "
            "run report (metric catalogue: docs/OBSERVABILITY.md) to PATH; "
            "inspect it later with 'repro report PATH'"
        ),
    )
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "enable event tracing and write a JSONL trace (schema "
            "repro.obs.trace/1) to PATH; inspect it later with "
            "'repro trace summary|timeline|export PATH'"
        ),
    )
    parser.add_argument(
        "--trace-limit",
        type=int,
        default=None,
        metavar="N",
        help="ring-buffer capacity for --trace (default 1,000,000 events)",
    )
    parser.add_argument(
        "--trace-sample",
        action="append",
        default=None,
        metavar="CAT=N",
        help=(
            "keep 1-in-N events of a trace category (repeatable, e.g. "
            "--trace-sample engine.step=500); overrides the default "
            "sampling table"
        ),
    )
    return parser


def _report_main(argv: list[str], stdout: TextIO | None = None) -> int:
    """``repro report FILE [--json]`` / ``repro report --diff A B``."""
    parser = argparse.ArgumentParser(
        prog="repro-checkpoint report",
        description=(
            "Pretty-print a JSON run report produced by --metrics, or "
            "diff two of them."
        ),
    )
    parser.add_argument(
        "path", nargs="?", default=None, help="report file written by --metrics"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="re-emit the report (or diff) as canonical JSON instead of text",
    )
    parser.add_argument(
        "--diff",
        nargs=2,
        metavar=("A", "B"),
        default=None,
        help="diff two run reports (per-metric absolute and relative deltas)",
    )
    args = parser.parse_args(argv)
    sink = stdout if stdout is not None else sys.stdout
    from repro.obs.report import (
        diff_reports,
        dumps_report,
        load_report,
        render_diff,
        render_report,
    )

    if args.diff is not None:
        report_a = load_report(args.diff[0])
        report_b = load_report(args.diff[1])
        try:
            diff = diff_reports(report_a, report_b)
        except ValueError as exc:
            print(f"error: {exc}", file=sink)
            return 2
        import json as _json

        print(
            _json.dumps(diff, indent=2, sort_keys=True) if args.json else render_diff(diff),
            file=sink,
        )
        return 0
    if args.path is None:
        parser.error("a report path (or --diff A B) is required")
    report = load_report(args.path)
    print(dumps_report(report) if args.json else render_report(report), file=sink)
    return 0


def _emit(text: str, out_path: str | None, sink: TextIO) -> None:
    print(text, file=sink)
    if out_path:
        with open(out_path, "a") as fh:
            fh.write(text + "\n")


def _dispatch_tool(command: str, argv: list[str], stdout: TextIO | None) -> int:
    """Run one :data:`TOOL_COMMANDS` entry (imports stay lazy: the serve
    and analysis stacks must not burden a plain table regeneration)."""
    if command == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(argv, stdout=stdout)
    if command == "report":
        return _report_main(argv, stdout=stdout)
    if command == "trace":
        from repro.obs.tracing.cli import main as trace_main

        return trace_main(argv, stdout=stdout)
    if command == "serve":
        from repro.serve.cli import serve_main

        return serve_main(argv, stdout=stdout)
    if command == "bench-serve":
        from repro.serve.cli import bench_main

        return bench_main(argv, stdout=stdout)
    raise ValueError(f"unregistered tool command: {command!r}")  # pragma: no cover


def main(argv: list[str] | None = None, *, stdout: TextIO | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in TOOL_COMMANDS:
        # tool front ends own their option surface; dispatch before the
        # experiment parser sees the arguments
        return _dispatch_tool(argv[0], argv[1:], stdout)
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        raise SystemExit("error: --workers must be >= 1")
    sink = stdout if stdout is not None else sys.stdout
    if args.out:
        open(args.out, "w").close()  # truncate
    registry: MetricsRegistry | None = None
    if args.metrics:
        from repro.obs.metrics import enable

        registry = enable()
    recorder: _TraceRecorder | None = None
    if args.trace:
        from repro.obs.tracing import TraceRecorder
        from repro.obs.tracing import enable as enable_trace
        from repro.obs.tracing.recorder import DEFAULT_SAMPLING

        sampling = dict(DEFAULT_SAMPLING)
        for spec in args.trace_sample or ():
            cat, sep, stride = spec.partition("=")
            if not sep or not stride.isdigit() or int(stride) < 1:
                raise SystemExit(
                    f"error: --trace-sample expects CAT=N with N >= 1, got {spec!r}"
                )
            sampling[cat] = int(stride)
        kwargs: dict[str, Any] = {"sampling": sampling}
        if args.trace_limit:
            kwargs["max_events"] = args.trace_limit
        recorder = enable_trace(TraceRecorder(**kwargs))
    started = time.time()

    def emit(text: str) -> None:
        _emit(text, args.out, sink)

    def wants(*names: str) -> bool:
        return args.command in names or args.command == "all"

    # each artefact imports its study module only when it is asked for,
    # so `repro --help` and the tool subcommands boot without them
    study: SimulationStudy | None = None
    if wants(*_SWEEP_COMMANDS):
        from repro.experiments.study import run_simulation_study

        pool_config = SyntheticPoolConfig(
            n_machines=args.machines, n_observations=args.observations
        )
        study = run_simulation_study(
            pool_config=pool_config, seed=args.seed, n_workers=args.workers
        )
    if wants("table1"):
        assert study is not None
        emit(study.efficiency_table().render())
        emit("")
    if wants("fig3"):
        assert study is not None
        emit(study.efficiency_figure().render())
        emit("")
    if wants("table3"):
        assert study is not None
        emit(study.bandwidth_table().render())
        emit("")
    if wants("fig4"):
        assert study is not None
        emit(study.bandwidth_figure().render())
        emit("")

    if wants("table2"):
        from repro.experiments.synthetic_study import run_synthetic_study

        synth = run_synthetic_study(
            n_points=args.synthetic_points,
            seed=args.seed if args.seed is not None else 2005,
        )
        emit(synth.table().render())
        emit("")

    live_results: dict[str, Any] = {}
    for command, location in (("table4", "campus"), ("table5", "wan")):
        if wants(command):
            from repro.experiments.live_study import run_live_study

            overrides: dict[str, Any] = dict(
                horizon=args.horizon_days * 86400.0, n_machines=args.live_machines
            )
            if args.seed is not None:
                overrides["seed"] = args.seed
            result = run_live_study(location, **overrides)
            live_results[location] = result
            emit(result.table().render())
            emit("")

    if wants("parallel"):
        from repro.experiments.parallel_study import run_parallel_study

        parallel = run_parallel_study(
            horizon=args.horizon_days * 86400.0,
            n_machines=args.live_machines,
            seed=args.seed if args.seed is not None else 2005,
        )
        emit(parallel.table().render())
        emit("")

    if wants("gang"):
        from repro.condor.gang import GangExperimentConfig, run_gang_experiment
        from repro.experiments.format import PaperTable

        table = PaperTable(
            title="Extension — gang-scheduled job with coordinated checkpointing",
            header=["Distribution", "W", "Efficiency", "MB/Hour", "Gang failures", "Coordinated ckpts"],
            notes=["identical fleet per seed: the failure column is paired across models"],
        )
        for model in ("exponential", "weibull", "hyperexp2", "hyperexp3"):
            for width in (2, 6):
                res = run_gang_experiment(
                    GangExperimentConfig(
                        width=width,
                        model=model,
                        horizon=args.horizon_days * 86400.0,
                        n_machines=max(args.live_machines // 2, 3 * width),
                        seed=args.seed if args.seed is not None else 2005,
                    )
                )
                table.add_row(
                    [
                        model,
                        str(width),
                        f"{res.efficiency:.3f}",
                        f"{res.mb_per_hour:.0f}",
                        f"{res.n_gang_failures}",
                        f"{res.n_coordinated_checkpoints}",
                    ]
                )
        emit(table.render())
        emit("")

    if wants("fitstudy"):
        from repro.experiments.fit_study import run_fit_study
        from repro.traces.synthetic import generate_condor_pool

        pool_cfg = SyntheticPoolConfig(
            n_machines=args.machines, n_observations=args.observations
        )
        fit_rng = None if args.seed is None else np.random.default_rng(args.seed)
        fit_pool = generate_condor_pool(pool_cfg, fit_rng)
        emit(run_fit_study(fit_pool).table().render())
        emit("")

    if wants("convergence"):
        from repro.experiments.convergence import run_convergence_study
        from repro.traces.synthetic import generate_condor_pool

        pool_cfg = SyntheticPoolConfig(
            n_machines=min(args.machines, 24), n_observations=args.observations
        )
        conv_rng = None if args.seed is None else np.random.default_rng(args.seed)
        conv_pool = generate_condor_pool(pool_cfg, conv_rng)
        emit(run_convergence_study(conv_pool).figure().render())
        emit("")

    if wants("storage-study"):
        from repro.experiments.storage_study import run_storage_study

        storage = run_storage_study(
            pool_config=SyntheticPoolConfig(
                n_machines=args.machines, n_observations=args.observations
            ),
            seed=args.seed,
        )
        emit(storage.table().render())
        emit("")

    if wants("sensitivity"):
        from repro.experiments.sensitivity import run_sensitivity_study

        sens = run_sensitivity_study(
            n_points=args.synthetic_points,
            seed=args.seed if args.seed is not None else 11,
        )
        emit(sens.table().render())
        emit("")

    if wants("validate"):
        from repro.experiments.live_study import run_live_study
        from repro.experiments.validation import validate_simulation

        base = live_results.get("campus")
        if base is None:
            validate_overrides: dict[str, Any] = dict(
                horizon=args.horizon_days * 86400.0, n_machines=args.live_machines
            )
            if args.seed is not None:
                validate_overrides["seed"] = args.seed
            base = run_live_study("campus", **validate_overrides)
        emit(validate_simulation(base.experiment).table().render())
        emit("")

    emit(f"[done in {time.time() - started:.1f}s]")
    if registry is not None:
        from repro.obs.metrics import disable
        from repro.obs.report import build_report, write_report

        write_report(
            args.metrics,
            build_report(
                registry,
                command=args.command,
                argv=list(argv),
                duration_seconds=time.time() - started,
            ),
        )
        disable()
        emit(f"[metrics written to {args.metrics}]")
    if recorder is not None:
        from repro.obs.tracing import disable as disable_trace
        from repro.obs.tracing import write_trace

        write_trace(
            args.trace,
            recorder,
            meta={
                "command": args.command,
                "argv": list(argv),
                "duration_seconds": time.time() - started,
            },
        )
        disable_trace()
        emit(f"[trace written to {args.trace}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
