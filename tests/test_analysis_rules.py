"""Per-rule fixtures for reprolint: one positive and one negative each.

Each fixture is a small snippet written to a temp file so the engine
path (parse -> scope -> rules -> suppressions) is exercised end to end.
The file name/directory matters: several rules are path-scoped.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import Finding, LintConfig, lint_file, lint_project
from repro.analysis.rules import REGISTRY
from repro.analysis.rules.units import unit_family


def lint_snippet(tmp_path: Path, source: str, *, relpath: str = "core/module.py") -> list[Finding]:
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return lint_file(target)


def codes(findings: list[Finding]) -> list[str]:
    return [f.code for f in findings]


class TestRegistry:
    def test_rule_codes_unique_and_documented(self):
        seen = [rule.code for rule in REGISTRY]
        assert seen == sorted(set(seen))
        for rule in REGISTRY:
            assert rule.code.startswith("RL") and len(rule.code) == 5
            assert rule.summary
            assert (type(rule).__doc__ or "").strip(), f"{rule.code} has no docstring"


class TestRL001RngDiscipline:
    def test_positive_np_random_seed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def setup() -> None:
                np.random.seed(42)
            """,
            relpath="traces/synthetic.py",
        )
        assert codes(findings) == ["RL001"]
        assert findings[0].line == 5
        assert "global RNG state" in findings[0].message

    def test_positive_global_draw_and_seedless_default_rng(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def draw():
                x = np.random.rand(3)
                rng = np.random.default_rng()
                return x, rng
            """,
            relpath="traces/synthetic.py",
        )
        assert codes(findings) == ["RL001", "RL001"]
        assert findings[0].line == 5 and "np.random.rand" in findings[0].message
        assert findings[1].line == 6 and "seedless" in findings[1].message

    def test_positive_seedless_imported_alias(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from numpy.random import default_rng as make_rng

            rng = make_rng()
            """,
            relpath="engine/core.py",
        )
        assert codes(findings) == ["RL001"]

    def test_negative_seeded_generator(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def draw(seed: int):
                rng = np.random.default_rng(seed)
                return rng.random(3)
            """,
            relpath="traces/synthetic.py",
        )
        assert findings == []

    def test_negative_seedless_allowed_in_cli_and_tests(self, tmp_path):
        snippet = """
        import numpy as np

        rng = np.random.default_rng()
        """
        assert lint_snippet(tmp_path, snippet, relpath="repro/cli.py") == []
        assert lint_snippet(tmp_path, snippet, relpath="tests/test_something.py") == []


class TestRL002FloatEquality:
    def test_positive_float_literal(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def guard(p02):
                if p02 == 0.0:
                    return 1
                return 2
            """,
            relpath="core/markov.py",
        )
        assert codes(findings) == ["RL002"]
        assert findings[0].line == 3

    def test_positive_annotated_float_name(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def check(rate: float, target: float) -> bool:
                return rate != target
            """,
            relpath="numerics/optimize.py",
        )
        assert codes(findings) == ["RL002"]

    def test_negative_int_comparison_and_isclose(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import math

            def check(n: int, x: float) -> bool:
                return n == 0 and math.isclose(x, 1.0)
            """,
            relpath="core/markov.py",
        )
        assert findings == []

    def test_negative_outside_scoped_packages(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def loose(x: float) -> bool:
                return x == 0.0
            """,
            relpath="experiments/study.py",
        )
        assert findings == []


class TestRL003UnitMixing:
    def test_positive_time_plus_size(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def total(transfer_seconds, checkpoint_size_mb):
                return transfer_seconds + checkpoint_size_mb
            """,
        )
        assert codes(findings) == ["RL003"]
        assert findings[0].line == 3
        assert "(time)" in findings[0].message and "(size)" in findings[0].message

    def test_positive_comparison_across_families(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def check(elapsed_s, link_rate):
                return elapsed_s > link_rate
            """,
        )
        assert codes(findings) == ["RL003"]

    def test_negative_division_is_a_conversion(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def transfer_time(size_mb, bandwidth_mb_per_s):
                return size_mb / bandwidth_mb_per_s
            """,
        )
        assert findings == []

    def test_negative_same_family_and_conversion_call(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def ok(start_seconds, end_seconds, size_mb):
                elapsed = end_seconds - start_seconds
                return elapsed + mb_to_seconds(size_mb)
            """,
        )
        assert findings == []

    def test_suffix_families(self):
        assert unit_family("throughput_mb_per_s") == "rate"
        assert unit_family("elapsed_s") == "time"
        assert unit_family("image_bytes") == "size"
        assert unit_family("horizon") is None


class TestRL004ConfigValidation:
    def test_positive_unvalidated_numeric_config(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class SweepConfig:
                horizon: float = 86400.0
                n_machines: int = 16
            """,
        )
        assert codes(findings) == ["RL004"]
        assert findings[0].line == 5  # the `class` line, not the decorator
        assert "horizon" in findings[0].message

    def test_negative_post_init(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class SweepConfig:
                horizon: float = 86400.0

                def __post_init__(self) -> None:
                    if self.horizon <= 0:
                        raise ValueError("horizon must be positive")
            """,
        )
        assert findings == []

    def test_negative_no_numeric_fields_or_not_config(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class NamesConfig:
                label: str = "campus"

            @dataclass(frozen=True)
            class SweepResult:
                horizon: float = 1.0
            """,
        )
        assert findings == []


class TestRL005DistributionContract:
    def test_positive_missing_primitives(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class HalfBaked(AvailabilityDistribution):
                def _pdf(self, x):
                    return x
            """,
            relpath="distributions/halfbaked.py",
        )
        assert codes(findings) == ["RL005"]
        assert findings[0].line == 2
        assert "_cdf" in findings[0].message

    def test_positive_sf_without_cdf(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class Drifty(AvailabilityDistribution):
                def _pdf(self, x): ...
                def mean(self): ...
                def variance(self): ...
                def n_params(self): ...
                def params(self): ...
                def sf(self, x): ...
            """,
            relpath="distributions/drifty.py",
        )
        assert len(findings) == 2  # missing _cdf, and sf without _cdf
        assert all(f.code == "RL005" for f in findings)
        assert any("overrides sf without _cdf" in f.message for f in findings)

    def test_negative_full_surface(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class Complete(AvailabilityDistribution):
                def _pdf(self, x): ...
                def _cdf(self, x): ...
                def mean(self): ...
                def variance(self): ...
                def n_params(self): ...
                def params(self): ...
                def sf(self, x): ...
                def hazard(self, x): ...
            """,
            relpath="distributions/complete.py",
        )
        assert findings == []

    def test_negative_abstract_layer_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import abc

            class StillAbstract(AvailabilityDistribution):
                @abc.abstractmethod
                def extra(self): ...
            """,
            relpath="distributions/layer.py",
        )
        assert findings == []


class TestRL006ExceptionHygiene:
    def test_positive_broad_swallow(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def risky():
                try:
                    return 1 / 0
                except Exception:
                    pass
            """,
        )
        assert codes(findings) == ["RL006"]
        assert findings[0].line == 5
        assert "silently swallows" in findings[0].message

    def test_positive_bare_except(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def risky():
                try:
                    return 1 / 0
                except:
                    return None
            """,
        )
        assert codes(findings) == ["RL006"]

    def test_negative_narrow_catch_and_reraise(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def careful():
                try:
                    return 1 / 0
                except ZeroDivisionError:
                    return 0.5

            def contextual():
                try:
                    return 1 / 0
                except Exception as exc:
                    raise RuntimeError("while dividing") from exc
            """,
        )
        assert findings == []

    def test_negative_cli_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def main():
                try:
                    return run()
                except Exception:
                    return 1
            """,
            relpath="repro/cli.py",
        )
        assert findings == []


class TestSuppression:
    SNIPPET = """
    def guard(x: float) -> bool:
        return x == 0.0{inline}
    """

    def test_inline_suppression(self, tmp_path):
        src = self.SNIPPET.format(inline="  # reprolint: ignore[RL002] - sentinel stored verbatim")
        assert lint_snippet(tmp_path, src, relpath="core/a.py") == []

    def test_standalone_suppression_covers_next_line(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def guard(x: float) -> bool:
                # reprolint: ignore[RL002] - sentinel stored verbatim
                return x == 0.0
            """,
            relpath="core/a.py",
        )
        assert findings == []

    def test_unbracketed_ignore_suppresses_everything(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def guard(x: float, elapsed_s=0, size_mb=0) -> bool:
                return x == 0.0 and elapsed_s > size_mb  # reprolint: ignore
            """,
            relpath="core/a.py",
        )
        assert findings == []

    def test_wrong_code_does_not_suppress(self, tmp_path):
        src = self.SNIPPET.format(inline="  # reprolint: ignore[RL001]")
        assert codes(lint_snippet(tmp_path, src, relpath="core/a.py")) == ["RL002"]

    def test_directive_inside_string_is_not_a_suppression(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            '''
            def guard(x: float) -> bool:
                label = "# reprolint: ignore[RL002]"
                return x == 0.0
            ''',
            relpath="core/a.py",
        )
        assert codes(findings) == ["RL002"]


class TestEngine:
    def test_parse_error_reported_as_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        findings = lint_file(bad)
        assert codes(findings) == ["RL000"]
        assert "does not parse" in findings[0].message

    def test_non_utf8_file_reported_as_parse_error(self, tmp_path):
        latin = tmp_path / "latin.py"
        latin.write_bytes(b"# padding past one read chunk\n" * 400 + b'x = "\xe9"\n')
        findings = lint_file(latin)
        assert codes(findings) == ["RL000"]
        assert (findings[0].line, findings[0].col) == (401, 5)
        assert "does not parse: not UTF-8" in findings[0].message

    def test_config_disable_and_select(self, tmp_path):
        target = tmp_path / "core" / "mod.py"
        target.parent.mkdir()
        target.write_text("def f(x: float):\n    return x == 0.0\n")
        assert codes(lint_file(target)) == ["RL002"]
        assert lint_file(target, config=LintConfig(disable=frozenset({"RL002"}))) == []
        assert lint_file(target, config=LintConfig(select=frozenset({"RL001"}))) == []
        assert codes(lint_file(target, config=LintConfig(select=frozenset({"RL002"})))) == ["RL002"]

    def test_config_exclude_paths(self, tmp_path):
        target = tmp_path / "core" / "generated.py"
        target.parent.mkdir()
        target.write_text("def f(x: float):\n    return x == 0.0\n")
        assert lint_file(target, config=LintConfig(exclude=("generated",))) == []

    def test_lint_project_walks_directories(self, tmp_path):
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "a.py").write_text("def f(x: float):\n    return x == 0.0\n")
        (tmp_path / "core" / "b.py").write_text("def g() -> int:\n    return 1\n")
        run = lint_project([tmp_path])
        assert run.files == [tmp_path / "core" / "a.py", tmp_path / "core" / "b.py"]
        assert codes(run.findings) == ["RL002"]

    def test_non_utf8_src_file_outside_linted_set_is_skipped(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("")
        package = tmp_path / "src" / "app"
        package.mkdir(parents=True)
        (package / "good.py").write_text("def g() -> int:\n    return 1\n")
        (package / "latin.py").write_bytes(b'x = "\xe9"\n')
        run = lint_project([package / "good.py"])
        assert run.files == [package / "good.py"]
        assert run.findings == []

    def test_findings_sorted_and_rendered(self, tmp_path):
        target = tmp_path / "core" / "mod.py"
        target.parent.mkdir()
        target.write_text(
            "def f(x: float, y: float):\n"
            "    a = x == 0.0\n"
            "    b = y != 1.0\n"
            "    return a, b\n"
        )
        findings = lint_file(target)
        assert [f.line for f in findings] == [2, 3]
        assert findings[0].render().startswith(f"{target}:2:")
        assert " RL002 " in findings[0].render()
