"""Tests for RPR301 (hot-loop allocation), its hot-path discovery, the
SARIF reporter and the ``--explain`` cards.

Hot-path discovery is probed on multi-file fixtures (marker comments,
``bench_*`` seeds, call-graph closure); RPR301 gets true-positive fixtures
proving it fires and true-negative fixtures proving its precision guards
hold. The real hot modules (``core/optimization/kernels.py`` and
``fleet/``) must lint clean, and the SARIF renderer must emit a document
that validates against a SARIF 2.1.0 schema subset.
"""

import ast
import json
from pathlib import Path

import pytest

import repro
from repro.lintkit import Linter, all_rules, lint_paths, render_sarif
from repro.lintkit.rules.rpr301_hot_alloc import hot_functions, hot_modules
from repro.lintkit.semantic.symbols import ProjectIndex

SRC_REPRO = Path(repro.__file__).resolve().parent

RPR3XX = {"RPR301"}


def build_index(tmp_path, files):
    """Parse ``{filename: code}`` into one ProjectIndex (flat stems)."""
    entries = []
    for name, code in sorted(files.items()):
        path = tmp_path / name
        path.write_text(code)
        entries.append((str(path), "", ast.parse(code, filename=str(path))))
    return ProjectIndex.build(entries)


def lint_project(tmp_path, files, select):
    """Write ``{filename: code}`` and lint the directory as one batch."""
    for name, code in files.items():
        (tmp_path / name).write_text(code)
    return lint_paths([tmp_path], select=select)


def rule_ids(findings):
    return [f.rule_id for f in findings]


# ----------------------------------------------------------------------
# hot-path discovery
# ----------------------------------------------------------------------
class TestHotPathDiscovery:
    def test_hot_marker_is_a_comment_not_a_string(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "hot.py": (
                    "# reprolint: hot-path\n"
                    "import numpy as np\n"
                    "def entry():\n"
                    "    return helper()\n"
                    "def helper():\n"
                    "    return 1\n"
                ),
                "cold.py": (
                    'DOC = "# reprolint: hot-path"\n'
                    "def chilly():\n"
                    "    return DOC\n"
                ),
                "bench_thing.py": (
                    "def timed():\n"
                    "    return 0\n"
                ),
            },
        )
        assert hot_modules(index) == {"hot"}
        hot = hot_functions(index)
        assert "hot.entry" in hot
        assert "hot.helper" in hot  # call-graph closure
        assert "bench_thing.timed" in hot  # bench seed
        assert "cold.chilly" not in hot


# ----------------------------------------------------------------------
# RPR301 — allocation in hot loops
# ----------------------------------------------------------------------
class TestRPR301HotLoopAllocation:
    def test_tp_invariant_alloc_in_marked_module(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "hot.py": (
                    "# reprolint: hot-path\n"
                    "import numpy as np\n"
                    "def run(xs, n_steps):\n"
                    "    out = np.zeros(len(xs))\n"
                    "    for _ in range(n_steps):\n"
                    "        scratch = np.zeros(100)\n"
                    "        out += scratch\n"
                    "    return out\n"
                )
            },
            select={"RPR301"},
        )
        assert rule_ids(findings) == ["RPR301"]
        assert "np.zeros" in findings[0].message

    def test_tp_append_then_asarray_in_bench_module(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "bench_loop.py": (
                    "import numpy as np\n"
                    "def build(values):\n"
                    "    rows = []\n"
                    "    for value in values:\n"
                    "        rows.append(value * 2.0)\n"
                    "    return np.asarray(rows)\n"
                )
            },
            select={"RPR301"},
        )
        assert rule_ids(findings) == ["RPR301"]
        assert "append" in findings[0].message

    def test_tn_loop_variant_allocation(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "hot.py": (
                    "# reprolint: hot-path\n"
                    "import numpy as np\n"
                    "def run(n_blocks, width):\n"
                    "    total = 0.0\n"
                    "    for start in range(n_blocks):\n"
                    "        stop = start + width\n"
                    "        block = np.zeros(stop - start)\n"
                    "        total += block.sum()\n"
                    "    return total\n"
                )
            },
            select={"RPR301"},
        )
        assert findings == []

    def test_tn_unmarked_module_is_not_hot(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "cold.py": (
                    "import numpy as np\n"
                    "def run(n_steps):\n"
                    "    out = 0.0\n"
                    "    for _ in range(n_steps):\n"
                    "        out += np.zeros(100).sum()\n"
                    "    return out\n"
                )
            },
            select={"RPR301"},
        )
        assert findings == []

    def test_tn_defensive_copy_passed_to_callee(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "hot.py": (
                    "# reprolint: hot-path\n"
                    "import numpy as np\n"
                    "def consume(fresh):\n"
                    "    fresh[0] = 1.0\n"
                    "def run(state, rounds):\n"
                    "    for _ in range(rounds):\n"
                    "        fresh = state.copy()\n"
                    "        consume(fresh)\n"
                )
            },
            select={"RPR301"},
        )
        assert findings == []


# ----------------------------------------------------------------------
# satellite: RPR103 false negatives fixed (ufuncs, axis reductions)
# ----------------------------------------------------------------------
class TestRPR103UfuncGapClosed:
    def test_ufunc_result_is_visible_to_scalar_loop_rule(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import numpy as np\n"
                    "def f(xs: np.ndarray):\n"
                    "    ys = np.exp(xs)\n"
                    "    total = 0.0\n"
                    "    for y in ys:\n"  # pre-fix: ys was invisible
                    "        total += y\n"
                    "    return total\n"
                )
            },
            select={"RPR103"},
        )
        assert rule_ids(findings) == ["RPR103"]
        assert "'ys'" in findings[0].message

    def test_axis_reduction_result_is_visible(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import numpy as np\n"
                    "def f(xs: np.ndarray):\n"
                    "    col = np.sum(xs, axis=0)\n"
                    "    out = 0.0\n"
                    "    for value in col:\n"
                    "        out += value\n"
                    "    return out\n"
                )
            },
            select={"RPR103"},
        )
        assert rule_ids(findings) == ["RPR103"]

    def test_scalar_reduction_is_still_invisible(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import numpy as np\n"
                    "def f(xs: np.ndarray, items):\n"
                    "    total = np.sum(xs)\n"  # scalar, not an array
                    "    for item in items:\n"
                    "        total += item\n"
                    "    return total\n"
                )
            },
            select={"RPR103"},
        )
        assert findings == []


# ----------------------------------------------------------------------
# the real tree stays clean
# ----------------------------------------------------------------------
class TestRealTree:
    def test_kernels_and_fleet_lint_clean_under_rpr3xx(self):
        findings = lint_paths(
            [
                SRC_REPRO / "core" / "optimization" / "kernels.py",
                SRC_REPRO / "fleet",
            ],
            select=RPR3XX,
        )
        assert findings == []

    def test_hot_modules_are_marked(self):
        linter = Linter()
        files = [
            SRC_REPRO / "core" / "optimization" / "kernels.py",
            SRC_REPRO / "fleet" / "engine.py",
            SRC_REPRO / "fleet" / "drift.py",
            SRC_REPRO / "serve" / "oracle.py",
        ]
        loaded = [linter._load(path) for path in files]
        index = ProjectIndex.build(
            [(r.display, r.package_relpath, r.tree) for r in loaded]
        )
        assert hot_modules(index) == {
            "repro.core.optimization.kernels",
            "repro.fleet.engine",
            "repro.fleet.drift",
            "repro.serve.oracle",
        }

# ----------------------------------------------------------------------
# SARIF output + explain cards
# ----------------------------------------------------------------------

#: Hand-embedded subset of the SARIF 2.1.0 schema (the CI box has no
#: network): the structural constraints code-scanning upload actually
#: relies on — version pin, tool.driver.name, rule descriptors, result
#: shape with 1-based region coordinates.
SARIF_21_SCHEMA_SUBSET = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                                "defaultConfiguration": {
                                                    "type": "object",
                                                    "properties": {
                                                        "level": {
                                                            "enum": [
                                                                "none",
                                                                "note",
                                                                "warning",
                                                                "error",
                                                            ]
                                                        }
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "level": {
                                    "enum": [
                                        "none",
                                        "note",
                                        "warning",
                                        "error",
                                    ]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "uri": {
                                                                "type": "string"
                                                            }
                                                        },
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestSarifOutput:
    def _findings(self, tmp_path):
        return lint_project(
            tmp_path,
            {
                "hot.py": (
                    "# reprolint: hot-path\n"
                    "import numpy as np\n"
                    "def run(n_steps):\n"
                    "    for _ in range(n_steps):\n"
                    "        scratch = np.zeros(10)\n"
                    "    return scratch\n"
                )
            },
            select={"RPR301"},
        )

    def test_sarif_validates_against_21_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        findings = self._findings(tmp_path)
        assert findings  # the fixture must actually produce a result
        document = json.loads(render_sarif(findings, rules=all_rules()))
        jsonschema.validate(document, SARIF_21_SCHEMA_SUBSET)

    def test_sarif_rule_metadata_comes_from_explain_cards(self, tmp_path):
        findings = self._findings(tmp_path)
        document = json.loads(render_sarif(findings, rules=all_rules()))
        driver = document["runs"][0]["tool"]["driver"]
        by_id = {rule["id"]: rule for rule in driver["rules"]}
        card = by_id["RPR301"]
        assert "allocation" in card["fullDescription"]["text"].lower()
        assert "Bad:" in card["help"]["text"]
        assert card["defaultConfiguration"]["level"] == "error"
        result = document["runs"][0]["results"][0]
        assert result["ruleId"] == "RPR301"
        assert result["ruleIndex"] == [r.rule_id for r in all_rules()].index(
            "RPR301"
        )
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1

    def test_empty_findings_still_valid_sarif(self):
        jsonschema = pytest.importorskip("jsonschema")
        document = json.loads(render_sarif([], rules=all_rules()))
        jsonschema.validate(document, SARIF_21_SCHEMA_SUBSET)
        assert document["runs"][0]["results"] == []


class TestExplainCards:
    def test_every_rpr3xx_rule_has_a_full_card(self):
        for rule in all_rules():
            if rule.rule_id not in RPR3XX:
                continue
            assert rule.rationale, rule.rule_id
            assert rule.example_bad, rule.rule_id
            assert rule.example_good, rule.rule_id

    def test_explain_exit_codes(self, capsys):
        from repro.cli import _explain_rule

        assert _explain_rule("RPR205") == 0
        assert _explain_rule("rpr301") == 0  # case-insensitive
        assert _explain_rule("RPR999") == 2
        capsys.readouterr()
