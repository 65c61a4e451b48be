"""Tests for the ``repro lint`` command-line front end."""

from __future__ import annotations

import io
from pathlib import Path

from repro.analysis.cli import main as lint_main
from repro.analysis.config import LintConfig, load_config
from repro.analysis.engine import lint_file
from repro.analysis.findings import Finding
from repro.cli import main as repro_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_lint(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    code = lint_main(list(argv), stdout=buf)
    return code, buf.getvalue()


class TestLintCli:
    def test_src_tree_is_clean(self):
        """The acceptance gate: ``repro lint src/`` exits 0 on this repo."""
        code, out = run_lint(str(REPO_ROOT / "src"))
        assert code == 0, out
        assert "clean" in out

    def test_findings_exit_nonzero_with_location(self, tmp_path):
        bad = tmp_path / "core" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("def f(x: float):\n    return x == 0.0\n")
        code, out = run_lint(str(tmp_path))
        assert code == 1
        assert f"{bad}:2:" in out and "RL002" in out
        assert "1 finding(s)" in out

    def test_select_and_disable_flags(self, tmp_path):
        bad = tmp_path / "core" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("def f(x: float):\n    return x == 0.0\n")
        code, _ = run_lint(str(tmp_path), "--disable", "RL002")
        assert code == 0
        code, _ = run_lint(str(tmp_path), "--select", "RL001")
        assert code == 0
        code, _ = run_lint(str(tmp_path), "--select", "RL002")
        assert code == 1

    def test_unknown_code_is_usage_error(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        code, out = run_lint(str(tmp_path), "--select", "RL999")
        assert code == 2
        assert "unknown rule codes" in out

    def test_no_files_is_usage_error(self, tmp_path):
        code, out = run_lint(str(tmp_path / "nothing"))
        assert code == 2
        assert "no Python files" in out

    def test_rules_listing(self):
        code, out = run_lint("--rules")
        assert code == 0
        for expected in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
            assert expected in out

    def test_dispatch_through_repro_cli(self):
        buf = io.StringIO()
        code = repro_main(["lint", str(REPO_ROOT / "src" / "repro" / "analysis")], stdout=buf)
        assert code == 0
        assert "clean" in buf.getvalue()


class TestTextOutput:
    def test_text_renders_one_line_per_finding(self, tmp_path):
        assert Finding(
            path="src/app/serve/server.py",
            line=42,
            col=8,
            code="RL101",
            message="async stop() blocks the event loop",
        ).render() == "src/app/serve/server.py:42:8: RL101 async stop() blocks the event loop"
        bad = tmp_path / "core" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("def f(x: float, y: float):\n    return x == 0.0, y != 1.0\n")
        code, out = run_lint(str(tmp_path))
        assert code == 1
        assert out.splitlines() == [
            *(finding.render() for finding in lint_file(bad)),
            "repro lint: 2 finding(s) in 1 file(s)",
        ]

    def test_empty_run_renders_empty(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        code, out = run_lint(str(tmp_path))
        assert code == 0
        assert out == "repro lint: clean (1 file(s))\n"

    def test_non_utf8_file_exits_one_with_parse_finding(self, tmp_path):
        latin = tmp_path / "latin.py"
        latin.write_bytes(b'x = "\xe9"\n')
        code, out = run_lint(str(latin))
        assert code == 1
        assert out.splitlines() == [
            f"{latin}:1:5: RL000 file does not parse: not UTF-8 (invalid continuation byte)",
            "repro lint: 1 finding(s) in 1 file(s)",
        ]


class TestPyprojectConfig:
    def test_repo_pyproject_loads(self):
        config = load_config(REPO_ROOT)
        assert isinstance(config, LintConfig)

    def test_disable_via_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.reprolint]\ndisable = [\"RL002\"]\n")
        package = tmp_path / "core"
        package.mkdir()
        (package / "mod.py").write_text("def f(x: float):\n    return x == 0.0\n")
        config = load_config(tmp_path)
        assert not config.rule_enabled("RL002")
        assert config.rule_enabled("RL001")
        code, _ = run_lint(str(package))  # picks up the tmp pyproject via the path
        assert code == 0

    def test_select_via_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.reprolint]\nselect = [\"RL001\"]\n")
        config = load_config(tmp_path)
        assert config.rule_enabled("RL001")
        assert not config.rule_enabled("RL002")

    def test_unknown_code_in_pyproject_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.reprolint]\ndisable = [\"RL42\"]\n")
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "a.py").write_text("x = 1\n")
        code, out = run_lint(str(package))
        assert code == 2
        assert "unknown rule codes" in out

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.reprolint]\nmystery = 1\n")
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "a.py").write_text("x = 1\n")
        code, out = run_lint(str(package))
        assert code == 2
        assert "unknown [tool.reprolint] keys" in out

    def test_no_config_flag_ignores_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.reprolint]\ndisable = [\"RL002\"]\n")
        package = tmp_path / "core"
        package.mkdir()
        (package / "mod.py").write_text("def f(x: float):\n    return x == 0.0\n")
        code, _ = run_lint(str(package))
        assert code == 0
        code, _ = run_lint(str(package), "--no-config")
        assert code == 1
