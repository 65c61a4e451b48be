"""reprolint: domain-aware static analysis for the checkpoint stack.

The paper's headline comparison (efficiency vs. network load) is only as
good as the numerics behind it: a seedless RNG in a trace replay, a
float ``==`` in a hazard guard, or seconds added to megabytes corrupts
Table 4 without any test failing loudly.  This package machine-checks
those domain invariants in two tiers.  Per-file rules run one AST at a
time:

========  ==============================================================
``RL001``  RNG discipline (no global/seedless NumPy randomness)
``RL002``  float equality in the numerical packages
``RL003``  unit mixing (``*_seconds`` arithmetic with ``*_mb`` etc.)
``RL004``  ``*Config`` dataclasses must validate numeric fields
``RL005``  distribution subclasses must implement a consistent surface
``RL006``  broad / silent exception handling in library code
``RL103``  module-global mutable state mutated from ``async def``
========  ==============================================================

Project rules see the whole tree at once (call graph, string surfaces,
docs) and catch what no single file shows:

========  ==============================================================
``RL101``  blocking I/O reachable from ``async def`` (event-loop stall)
``RL102``  un-awaited coroutines and dropped ``create_task`` handles
``RL201``  metric names in code vs the docs/OBSERVABILITY.md catalogue
``RL202``  serve op surface: protocol vs dispatch vs docs/SERVING.md
``RL203``  CLI tool subcommands must be documented in README/docs
========  ==============================================================

Run it as ``repro lint [paths ...]`` (or ``python -m repro.analysis``);
it prints one ``path:line:col: CODE message`` line per finding and
exits 0 when clean, 1 on findings, 2 on usage errors.  Findings can be
suppressed per line with ``# reprolint: ignore[RLxxx]`` and rules
configured via ``[tool.reprolint]`` in pyproject.toml.  See
``docs/ANALYSIS.md`` for the full catalogue and workflows.
"""

from __future__ import annotations

from repro.analysis.config import LintConfig, load_config
from repro.analysis.engine import LintRun, lint_file, lint_project
from repro.analysis.findings import Finding
from repro.analysis.project import FileIndex, ProjectContext, extract_file_index
from repro.analysis.rules import PROJECT_REGISTRY, REGISTRY, ProjectRule, Rule

__all__ = [
    "FileIndex",
    "Finding",
    "LintConfig",
    "LintRun",
    "PROJECT_REGISTRY",
    "ProjectContext",
    "ProjectRule",
    "REGISTRY",
    "Rule",
    "extract_file_index",
    "lint_file",
    "lint_project",
    "load_config",
]
