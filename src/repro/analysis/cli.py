"""``repro lint`` — the command-line front end of reprolint.

Exit codes follow the usual linter convention: ``0`` clean, ``1`` when
findings were emitted, ``2`` on usage errors (unknown rule code,
malformed ``[tool.reprolint]`` table, no files matched).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TextIO

from repro.analysis.config import LintConfig, load_config
from repro.analysis.engine import lint_project
from repro.analysis.rules import PROJECT_REGISTRY, REGISTRY

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Domain-aware static analysis for the checkpoint-scheduling stack: "
            "per-file rules (RNG discipline, float equality, unit mixing, config "
            "validation, distribution contracts, exception hygiene, async-global "
            "mutation) plus project-wide passes (event-loop blocking chains, "
            "dropped coroutines, metrics/op/CLI contract drift).  "
            "See docs/ANALYSIS.md."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=[],
        help="files or directories to lint (default: [tool.reprolint] default_paths, else src)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (overrides pyproject select)",
    )
    parser.add_argument(
        "--disable",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to skip (overrides pyproject disable)",
    )
    parser.add_argument(
        "--rules",
        action="store_true",
        help="list the known rules and exit",
    )
    parser.add_argument(
        "--no-config",
        action="store_true",
        help="ignore [tool.reprolint] in pyproject.toml",
    )
    return parser


def _parse_codes(raw: str | None, known: frozenset[str], flag: str) -> frozenset[str]:
    if raw is None:
        return frozenset()
    codes = frozenset(code.strip() for code in raw.split(",") if code.strip())
    unknown = codes - known
    if unknown:
        raise ValueError(f"{flag} names unknown rule codes {sorted(unknown)}; known: {sorted(known)}")
    return codes


def _print_rules(sink: TextIO) -> None:
    print("per-file rules:", file=sink)
    for rule in REGISTRY:
        print(f"{rule.code}  {rule.summary}", file=sink)
        doc = (type(rule).__doc__ or "").strip().splitlines()[0]
        print(f"       {doc}", file=sink)
    print("project rules:", file=sink)
    for project_rule in PROJECT_REGISTRY:
        print(f"{project_rule.code}  {project_rule.summary}", file=sink)
        doc = (type(project_rule).__doc__ or "").strip().splitlines()[0]
        print(f"       {doc}", file=sink)


def main(argv: list[str] | None = None, *, stdout: TextIO | None = None) -> int:
    args = build_parser().parse_args(argv)
    sink = stdout if stdout is not None else sys.stdout
    if args.rules:
        _print_rules(sink)
        return 0
    known = frozenset(rule.code for rule in REGISTRY) | frozenset(
        rule.code for rule in PROJECT_REGISTRY
    )
    try:
        if args.no_config:
            config = LintConfig()
        else:
            config = load_config(Path(args.paths[0]) if args.paths else None, known)
        select = _parse_codes(args.select, known, "--select")
        disable = _parse_codes(args.disable, known, "--disable")
    except ValueError as exc:
        print(f"repro lint: error: {exc}", file=sink)
        return 2
    if select or disable:
        config = LintConfig(
            select=select if select else config.select,
            disable=config.disable | disable,
            exclude=config.exclude,
            default_paths=config.default_paths,
            overrides=config.overrides,
        )
    paths = args.paths or list(config.default_paths)
    run = lint_project(paths, config=config)
    if not run.files:
        print(f"repro lint: error: no Python files under {paths}", file=sink)
        return 2
    for finding in run.findings:
        print(finding.render(), file=sink)
    if run.findings:
        print(f"repro lint: {len(run.findings)} finding(s) in {len(run.files)} file(s)", file=sink)
        return 1
    print(f"repro lint: clean ({len(run.files)} file(s))", file=sink)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
