"""Tests for the reprolint static-analysis toolkit (repro.lintkit).

Each RPR rule gets a fixture-driven test proving it detects its target
violation and stays quiet on conforming code; the suite also pins the
suppression syntax, the JSON reporter schema, baseline round-tripping, the
CLI wiring, and — crucially — that ``src/repro`` itself is lint-clean with
an empty baseline.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.errors import LintError
from repro.lintkit import (
    Finding,
    Linter,
    Severity,
    all_rules,
    filter_findings,
    iter_python_files,
    lint_paths,
    load_baseline,
    per_rule_counts,
    render_json,
    render_text,
    save_baseline,
)
from repro.lintkit.constant_registry import (
    is_distinctive,
    load_registry,
    match_constant,
    significant_digits,
)
from repro.lintkit.rules.rpr001_units import has_unit_suffix, unit_suffix
from repro.lintkit.suppressions import ALL_RULES, parse_suppressions

SRC_REPRO = Path(repro.__file__).resolve().parent


def lint_snippet(tmp_path, code, select=None, filename="snippet.py"):
    path = tmp_path / filename
    path.write_text(code)
    return lint_paths([path], select=select)


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestRuleRegistry:
    def test_all_rules_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == [
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
            "RPR101", "RPR103",
            "RPR201", "RPR202", "RPR205",
            "RPR301",
        ]

    def test_unknown_select_rejected(self):
        with pytest.raises(LintError):
            Linter(select={"RPR999"})


class TestRPR001UnitSuffixes:
    def test_detects_time_scale_mix(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def f(t_ms, d_s):\n    return t_ms + d_s\n",
            select={"RPR001"},
        )
        assert rule_ids(findings) == ["RPR001"]
        assert "time scales" in findings[0].message

    def test_detects_cross_dimension_compare(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def f(t_s, n_bytes):\n    return t_s > n_bytes\n",
            select={"RPR001"},
        )
        assert rule_ids(findings) == ["RPR001"]
        assert "dimensions" in findings[0].message

    def test_detects_unitless_float_parameter(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def api(timeout: float) -> float:\n    return timeout\n",
            select={"RPR001"},
        )
        assert rule_ids(findings) == ["RPR001"]
        assert "timeout" in findings[0].message

    def test_allows_db_dbm_mix_and_same_unit(self, tmp_path):
        code = (
            "def rssi(tx_dbm, loss_db, margin_db):\n"
            "    return tx_dbm - loss_db + margin_db\n"
        )
        assert lint_snippet(tmp_path, code, select={"RPR001"}) == []

    def test_allows_membership_test_against_db_mapping(self, tmp_path):
        code = (
            "def f(distance_m, offsets_db):\n"
            "    return distance_m in offsets_db\n"
        )
        assert lint_snippet(tmp_path, code, select={"RPR001"}) == []

    def test_multiplication_is_exempt(self, tmp_path):
        code = "def f(rate_bps, t_s):\n    return rate_bps * t_s\n"
        assert lint_snippet(tmp_path, code, select={"RPR001"}) == []

    def test_suffix_helpers(self):
        assert unit_suffix("t_ms") == "ms"
        assert unit_suffix("s") is None
        assert unit_suffix("q_max") is None
        assert has_unit_suffix("energy_uj_per_bit")
        assert not has_unit_suffix("timeout")

    def test_private_functions_not_checked_for_params(self, tmp_path):
        code = "def _internal(timeout: float):\n    return timeout\n"
        assert lint_snippet(tmp_path, code, select={"RPR001"}) == []


class TestRPR002Determinism:
    def test_detects_stdlib_random(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "import random\n\ndef f():\n    return random.random()\n",
            select={"RPR002"},
        )
        assert rule_ids(findings) == ["RPR002"]

    def test_detects_numpy_global_state_via_alias(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "import numpy as np\n\ndef f():\n    np.random.seed(0)\n"
            "    return np.random.rand(3)\n",
            select={"RPR002"},
        )
        assert rule_ids(findings) == ["RPR002", "RPR002"]

    def test_detects_from_import_alias(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "from random import randint as ri\n\ndef f():\n    return ri(0, 9)\n",
            select={"RPR002"},
        )
        assert rule_ids(findings) == ["RPR002"]

    def test_detects_wall_clock(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "import time\nfrom datetime import datetime\n\n"
            "def f():\n    return time.time(), datetime.now()\n",
            select={"RPR002"},
        )
        assert rule_ids(findings) == ["RPR002", "RPR002"]

    def test_allows_explicit_generators(self, tmp_path):
        code = (
            "import numpy as np\n\n"
            "def f(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    seq = np.random.SeedSequence(seed)\n"
            "    return rng, seq\n"
        )
        assert lint_snippet(tmp_path, code, select={"RPR002"}) == []

    def test_sanctioned_rng_module_exempt(self):
        findings = lint_paths([SRC_REPRO / "sim" / "rng.py"], select={"RPR002"})
        assert findings == []


class TestRPR003PaperConstants:
    def test_detects_rehardcoded_turnaround(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "T = 0.224e-3\n",
            select={"RPR003"},
        )
        assert rule_ids(findings) == ["RPR003"]
        assert "TURNAROUND_TIME_S" in findings[0].message

    def test_detects_rehardcoded_ack_timeout(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def f():\n    return 8.192e-3\n",
            select={"RPR003"},
        )
        assert rule_ids(findings) == ["RPR003"]
        assert "ACK_WAIT_TIMEOUT_S" in findings[0].message

    def test_non_distinctive_values_ignored(self, tmp_path):
        # 12.0 equals GREY_ZONE_HIGH_DB but has too few significant digits
        # to attribute; 0.5 is just a number.
        code = "x = 12.0\ny = 0.5\nz = 114\n"
        assert lint_snippet(tmp_path, code, select={"RPR003"}) == []

    def test_registry_contents(self):
        registry = load_registry(SRC_REPRO)
        names = {c.name for c in registry}
        assert "TURNAROUND_TIME_S" in names
        assert "ACK_WAIT_TIMEOUT_S" in names
        assert "PER_FIT.alpha" in names  # constructor keyword constants
        assert "DEFAULT_PATH_LOSS_EXPONENT" in names

    def test_match_tolerance(self):
        registry = load_registry(SRC_REPRO)
        assert match_constant(0.000224, registry).name == "TURNAROUND_TIME_S"
        assert match_constant(0.000225, registry) is None

    def test_significant_digits(self):
        assert significant_digits(0.224e-3) == 3
        assert significant_digits(250_000) == 2
        assert significant_digits(1.380649e-23) == 7
        assert is_distinctive(8.192e-3)
        assert not is_distinctive(12.0)


class TestRPR004ExceptionDiscipline:
    def test_detects_bare_value_error(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def f(x):\n    if x < 0:\n        raise ValueError('bad')\n",
            select={"RPR004"},
        )
        assert rule_ids(findings) == ["RPR004"]
        assert "ValueError" in findings[0].message

    @pytest.mark.parametrize("exc", ["TypeError", "RuntimeError", "KeyError"])
    def test_detects_other_builtins(self, tmp_path, exc):
        findings = lint_snippet(
            tmp_path,
            f"def f():\n    raise {exc}('bad')\n",
            select={"RPR004"},
        )
        assert rule_ids(findings) == ["RPR004"]

    def test_allows_repro_errors_and_reraise(self, tmp_path):
        code = (
            "from repro.errors import ChannelError, errors\n"
            "def f():\n"
            "    try:\n"
            "        raise ChannelError('x')\n"
            "    except ChannelError:\n"
            "        raise\n"
            "def g():\n    raise errors.SimulationError('y')\n"
            "def h():\n    raise NotImplementedError\n"
        )
        assert lint_snippet(tmp_path, code, select={"RPR004"}) == []

    def test_unresolvable_raise_ignored(self, tmp_path):
        code = "def f(exc):\n    raise exc\n"
        assert lint_snippet(tmp_path, code, select={"RPR004"}) == []


class TestRPR005PublicApi:
    def test_detects_missing_dunder_all(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            '"""Doc."""\n\ndef api():\n    """Doc."""\n',
            select={"RPR005"},
        )
        assert any("does not define __all__" in f.message for f in findings)

    def test_detects_phantom_export_and_unlisted_public(self, tmp_path):
        code = (
            '"""Doc."""\n\n'
            '__all__ = ["ghost"]\n\n'
            "def api():\n"
            '    """Doc."""\n'
        )
        findings = lint_snippet(tmp_path, code, select={"RPR005"})
        messages = " | ".join(f.message for f in findings)
        assert "ghost" in messages
        assert "missing from __all__" in messages

    def test_detects_missing_docstrings(self, tmp_path):
        code = '__all__ = ["api"]\n\ndef api():\n    pass\n'
        findings = lint_snippet(tmp_path, code, select={"RPR005"})
        messages = " | ".join(f.message for f in findings)
        assert "module is missing a docstring" in messages
        assert "'api' is missing a docstring" in messages

    def test_clean_module_passes(self, tmp_path):
        code = (
            '"""Doc."""\n\n'
            '__all__ = ["api", "LIMIT"]\n\n'
            "LIMIT = 3\n\n"
            "def api():\n"
            '    """Doc."""\n'
        )
        assert lint_snippet(tmp_path, code, select={"RPR005"}) == []


class TestSuppressions:
    def test_line_suppression(self, tmp_path):
        code = "def f():\n    raise ValueError('x')  # reprolint: disable=RPR004\n"
        assert lint_snippet(tmp_path, code, select={"RPR004"}) == []

    def test_line_suppression_wrong_rule_still_reports(self, tmp_path):
        code = "def f():\n    raise ValueError('x')  # reprolint: disable=RPR001\n"
        assert rule_ids(lint_snippet(tmp_path, code, select={"RPR004"})) == [
            "RPR004"
        ]

    def test_bare_disable_suppresses_all_on_line(self, tmp_path):
        code = "def f():\n    raise TypeError('x')  # reprolint: disable\n"
        assert lint_snippet(tmp_path, code, select={"RPR004"}) == []

    def test_file_wide_suppression(self, tmp_path):
        code = (
            "# reprolint: disable-file=RPR005\n"
            "def f():\n    pass\n"
        )
        assert lint_snippet(tmp_path, code, select={"RPR005"}) == []

    def test_multiple_codes_on_one_line(self, tmp_path):
        code = (
            "def f(t_ms, d_s):\n"
            "    raise ValueError(t_ms + d_s)"
            "  # reprolint: disable=RPR001,RPR004\n"
        )
        assert lint_snippet(tmp_path, code, select={"RPR001", "RPR004"}) == []

    def test_unknown_rule_id_suppresses_nothing(self, tmp_path):
        code = (
            "def f():\n"
            "    raise ValueError('x')  # reprolint: disable=RPR404\n"
        )
        assert rule_ids(lint_snippet(tmp_path, code, select={"RPR004"})) == [
            "RPR004"
        ]

    @pytest.mark.parametrize(
        "comment",
        [
            "# reprolint: enable=RPR004",  # unknown directive kind
            "# reprolint disable=RPR004",  # missing colon
            "# lint: disable=RPR004",  # wrong tool name
        ],
    )
    def test_malformed_directive_is_ignored(self, tmp_path, comment):
        code = f"def f():\n    raise ValueError('x')  {comment}\n"
        assert rule_ids(lint_snippet(tmp_path, code, select={"RPR004"})) == [
            "RPR004"
        ]

    def test_trailing_equals_acts_as_bare_disable(self, tmp_path):
        code = "def f():\n    raise ValueError('x')  # reprolint: disable=\n"
        assert lint_snippet(tmp_path, code, select={"RPR004"}) == []


class TestIterPythonFiles:
    def test_duplicate_inputs_deduplicated(self, tmp_path):
        path = tmp_path / "a.py"
        path.write_text("x = 1\n")
        files = list(iter_python_files([path, path, tmp_path]))
        assert files == [path]

    def test_symlink_to_same_file_deduplicated(self, tmp_path):
        real = tmp_path / "real.py"
        real.write_text("x = 1\n")
        link = tmp_path / "alias.py"
        link.symlink_to(real)
        files = list(iter_python_files([tmp_path]))
        assert len(files) == 1

    def test_symlinked_directory_not_double_counted(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "mod.py").write_text("x = 1\n")
        mirror = tmp_path / "mirror"
        mirror.symlink_to(package, target_is_directory=True)
        files = list(iter_python_files([package, mirror]))
        assert len(files) == 1


class TestReporters:
    def _findings(self, tmp_path):
        return lint_snippet(
            tmp_path, "def f():\n    raise ValueError('x')\n", select={"RPR004"}
        )

    def test_text_report(self, tmp_path):
        findings = self._findings(tmp_path)
        text = render_text(findings)
        assert "RPR004 error" in text
        assert "found 1 problem(s)" in text
        assert render_text([]) == "no problems found"

    def test_json_report_schema(self, tmp_path):
        findings = self._findings(tmp_path)
        document = json.loads(render_json(findings))
        assert document["version"] == 1
        assert document["count"] == 1
        assert document["summary"] == {"warning": 0, "error": 1}
        row = document["findings"][0]
        assert set(row) == {
            "path", "line", "col", "rule", "severity", "message", "suggestion"
        }
        assert row["rule"] == "RPR004"
        assert row["severity"] == "error"
        assert row["line"] == 2

    def test_per_rule_counts_sorted_by_rule_id(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def f():\n    raise ValueError('a')\n"
            "def g(t_ms, d_s):\n    raise TypeError(t_ms + d_s)\n",
            select={"RPR001", "RPR004"},
        )
        assert per_rule_counts(findings) == {"RPR001": 1, "RPR004": 2}
        assert per_rule_counts([]) == {}

    def test_text_statistics_block(self, tmp_path):
        findings = self._findings(tmp_path)
        text = render_text(findings, statistics=True)
        assert "per-rule statistics:" in text
        assert "  RPR004  1" in text
        empty = render_text([], statistics=True)
        assert "per-rule statistics:" in empty
        assert "(no findings)" in empty
        assert "per-rule statistics:" not in render_text(findings)

    def test_json_statistics_key(self, tmp_path):
        findings = self._findings(tmp_path)
        document = json.loads(render_json(findings, statistics=True))
        assert document["statistics"] == {"RPR004": 1}
        assert "statistics" not in json.loads(render_json(findings))


class TestBaseline:
    def test_round_trip_filters_grandfathered(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "def f():\n    raise ValueError('x')\n", select={"RPR004"}
        )
        baseline_path = tmp_path / "baseline.json"
        save_baseline(findings, baseline_path)
        baseline = load_baseline(baseline_path)
        new, grandfathered = filter_findings(findings, baseline)
        assert new == []
        assert len(grandfathered) == 1

    def test_second_occurrence_not_grandfathered(self, tmp_path):
        one = lint_snippet(
            tmp_path, "def f():\n    raise ValueError('x')\n", select={"RPR004"}
        )
        baseline_path = tmp_path / "baseline.json"
        save_baseline(one, baseline_path)
        two = lint_snippet(
            tmp_path,
            "def f():\n    raise ValueError('x')\n"
            "def g():\n    raise ValueError('x')\n",
            select={"RPR004"},
        )
        new, grandfathered = filter_findings(two, load_baseline(baseline_path))
        assert len(grandfathered) == 1
        assert len(new) == 1

    def test_malformed_baseline_raises_lint_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(LintError):
            load_baseline(bad)


class TestEngine:
    def test_syntax_error_becomes_rpr000(self, tmp_path):
        findings = lint_snippet(tmp_path, "def f(:\n")
        assert rule_ids(findings) == ["RPR000"]
        assert findings[0].severity is Severity.ERROR

    def test_missing_path_raises(self):
        with pytest.raises(LintError):
            lint_paths([Path("/no/such/dir-xyz")])

    def test_findings_sorted_by_location(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def f():\n    raise ValueError('a')\n"
            "def g():\n    raise TypeError('b')\n",
            select={"RPR004"},
        )
        assert [f.line for f in findings] == [2, 4]

    def test_finding_value_semantics(self):
        finding = Finding("a.py", 1, 0, "RPR004", Severity.ERROR, "m")
        assert finding.key() == ("a.py", "RPR004", "m")
        assert "a.py:1:0: RPR004 error: m" == finding.format()


class TestCli:
    def test_lint_clean_file_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        path.write_text('"""Doc."""\n\n__all__ = []\n')
        assert cli_main(["lint", str(path)]) == 0
        assert "no problems found" in capsys.readouterr().out

    def test_lint_bad_file_exit_one_and_json(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("def f():\n    raise ValueError('x')\n")
        code = cli_main(
            ["lint", "--format", "json", "--select", "RPR004", str(path)]
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["count"] == 1

    def test_write_and_use_baseline(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("def f():\n    raise ValueError('x')\n")
        baseline = tmp_path / "base.json"
        assert cli_main(
            ["lint", "--select", "RPR004", "--baseline", str(baseline),
             "--write-baseline", str(path)]
        ) == 0
        capsys.readouterr()
        assert cli_main(
            ["lint", "--select", "RPR004", "--baseline", str(baseline),
             str(path)]
        ) == 0
        assert "grandfathered" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
            "RPR101", "RPR103",
            "RPR201", "RPR202", "RPR205",
            "RPR301",
        ):
            assert rule_id in out

    def test_explain_prints_rationale_and_examples(self, capsys):
        assert cli_main(["lint", "--explain", "RPR202"]) == 0
        out = capsys.readouterr().out
        assert "RPR202" in out
        assert "why it matters:" in out
        assert "bad:" in out
        assert "good:" in out

    def test_explain_is_case_insensitive(self, capsys):
        assert cli_main(["lint", "--explain", "rpr201"]) == 0
        assert "RPR201" in capsys.readouterr().out

    def test_explain_unknown_rule_exits_two(self, capsys):
        assert cli_main(["lint", "--explain", "RPR999"]) == 2
        err = capsys.readouterr().err
        assert "RPR999" in err
        assert "RPR201" in err  # known ids are listed

    def test_update_baseline_reports_delta(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("def f():\n    raise ValueError('x')\n")
        baseline = tmp_path / "base.json"
        assert cli_main(
            ["lint", "--select", "RPR004", "--baseline", str(baseline),
             "--update-baseline", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "+1 added, -0 removed" in out
        # Fixing the violation and regenerating empties the baseline again.
        path.write_text("def f():\n    return 1\n")
        assert cli_main(
            ["lint", "--select", "RPR004", "--baseline", str(baseline),
             "--update-baseline", str(path)]
        ) == 0
        assert "+0 added, -1 removed" in capsys.readouterr().out
        assert load_baseline(baseline) == {}

    def test_statistics_flag_text_and_json(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("def f():\n    raise ValueError('x')\n")
        assert cli_main(
            ["lint", "--select", "RPR004", "--statistics", str(path)]
        ) == 1
        out = capsys.readouterr().out
        assert "per-rule statistics:" in out
        assert "RPR004  1" in out
        assert cli_main(
            ["lint", "--format", "json", "--select", "RPR004",
             "--statistics", str(path)]
        ) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["statistics"] == {"RPR004": 1}


class TestSelfCheck:
    def test_src_repro_is_lint_clean_with_empty_baseline(self):
        """The acceptance gate: the package passes its own linter."""
        findings = lint_paths([SRC_REPRO])
        assert findings == [], render_text(findings)

    def test_committed_baseline_is_empty(self):
        baseline_path = SRC_REPRO.parents[1] / "reprolint-baseline.json"
        if baseline_path.is_file():
            assert load_baseline(baseline_path) == {}

    def test_suppressions_name_registered_rules(self):
        """A deleted rule must not leave stale ``disable=`` comments behind."""
        registered = {rule.rule_id for rule in all_rules()}
        stale = []
        for path in iter_python_files([SRC_REPRO]):
            suppressions = parse_suppressions(path.read_text(encoding="utf-8"))
            named = set(suppressions.file_wide).union(
                *suppressions.by_line.values()
            )
            stale.extend(
                f"{path}: {rule_id}"
                for rule_id in sorted(named - registered - {ALL_RULES})
            )
        assert stale == []
