"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import TOOL_COMMANDS, build_parser, main


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), stdout=buf)
    return code, buf.getvalue()


class TestParser:
    def test_commands_accepted(self):
        parser = build_parser()
        for cmd in ("table1", "table2", "table3", "table4", "table5", "fig3", "fig4", "validate", "storage-study", "all"):
            assert parser.parse_args([cmd]).command == cmd

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])


class TestToolSubcommands:
    """Every tool subcommand must be registered and documented."""

    def test_every_tool_subcommand_in_help(self):
        help_text = build_parser().format_help()
        for name, summary in TOOL_COMMANDS.items():
            assert name in help_text, f"{name!r} missing from repro --help"
            assert summary in help_text, f"{name!r} summary missing from repro --help"

    def test_expected_tool_set(self):
        assert set(TOOL_COMMANDS) == {"lint", "report", "trace", "serve", "bench-serve"}

    @pytest.mark.parametrize("name", sorted(TOOL_COMMANDS))
    def test_each_tool_has_its_own_help(self, name, capsys):
        # each tool owns its argv: `repro <tool> --help` must print the
        # tool's usage (SystemExit 0 from its own argparse), not the
        # experiment parser's
        with pytest.raises(SystemExit) as err:
            main([name, "--help"], stdout=io.StringIO())
        assert err.value.code == 0
        usage = capsys.readouterr().out
        assert name in usage

    def test_serve_stdio_dispatch(self, capsys):
        stdin = io.StringIO(json.dumps({"op": "ping", "id": 1}) + "\n")
        import sys

        old = sys.stdin
        sys.stdin = stdin
        try:
            buf = io.StringIO()
            code = main(["serve", "--stdio"], stdout=buf)
        finally:
            sys.stdin = old
        assert code == 0
        response = json.loads(buf.getvalue().splitlines()[0])
        assert response == {
            "ok": True,
            "id": 1,
            "pong": True,
            "schema": "repro.serve/1",
        }

    def test_bench_serve_rejects_bad_connect(self):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["bench-serve", "--connect", "nonsense"], stdout=io.StringIO())

    def test_bench_serve_rejects_bad_config(self):
        with pytest.raises(SystemExit, match="error"):
            main(["bench-serve", "--requests", "0"], stdout=io.StringIO())

    def test_lint_still_dispatches(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        code = main(["lint", str(clean)], stdout=io.StringIO())
        assert code == 0


class TestCommands:
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(SystemExit, match="error: --workers"):
            main(["table1", "--workers", workers], stdout=io.StringIO())

    def test_table2_small(self):
        code, out = run_cli("table2", "--synthetic-points", "300")
        assert code == 0
        assert "Table 2" in out
        assert "Weibull(0.43, 3409)" in out

    def test_table1_small(self):
        code, out = run_cli("table1", "--machines", "4", "--observations", "35")
        assert code == 0
        assert "Table 1" in out
        assert "±" in out

    def test_fig4_small(self):
        code, out = run_cli("fig4", "--machines", "4", "--observations", "35")
        assert code == 0
        assert "Figure 4" in out

    def test_table4_small(self):
        code, out = run_cli(
            "table4", "--horizon-days", "0.1", "--live-machines", "8"
        )
        assert code == 0
        assert "Table 4" in out
        assert "Sample Size" in out

    def test_validate_small(self):
        code, out = run_cli(
            "validate", "--horizon-days", "0.1", "--live-machines", "8"
        )
        assert code == 0
        assert "validated against" in out

    def test_fitstudy_small(self):
        code, out = run_cli("fitstudy", "--machines", "4", "--observations", "40")
        assert code == 0
        assert "mean KS" in out

    def test_convergence_small(self):
        code, out = run_cli("convergence", "--machines", "3", "--observations", "45")
        assert code == 0
        assert "Convergence" in out

    def test_sensitivity_small(self):
        code, out = run_cli("sensitivity", "--synthetic-points", "200")
        assert code == 0
        assert "Sensitivity" in out

    def test_gang_small(self):
        code, out = run_cli("gang", "--horizon-days", "0.05", "--live-machines", "12")
        assert code == 0
        assert "gang-scheduled" in out

    def test_out_file(self, tmp_path):
        path = tmp_path / "result.txt"
        code, out = run_cli("table2", "--synthetic-points", "200", "--out", str(path))
        assert code == 0
        assert path.read_text().strip() != ""
        assert "Table 2" in path.read_text()
