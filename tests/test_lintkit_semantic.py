"""Tests for reprolint's semantic tier (repro.lintkit.semantic + RPR101/103).

Phase-1 infrastructure (ProjectIndex, CallGraph) is exercised directly on
multi-file fixtures; each flow-sensitive rule then gets
failing fixtures proving it detects its target violation plus conforming
code proving the precision guards hold. Fixture files outside the
``repro`` package resolve each other by sibling stem (``from a import f``),
mirroring how the engine names them.
"""

import ast

from repro.lintkit import lint_paths
from repro.lintkit.semantic.callgraph import CallGraph
from repro.lintkit.semantic.symbols import ProjectIndex, module_name_for


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


class TestModuleNaming:
    def test_package_files_get_dotted_names(self):
        assert module_name_for("sim/rng.py", "x") == "repro.sim.rng"
        assert module_name_for("sim/__init__.py", "x") == "repro.sim"

    def test_loose_files_resolve_by_stem(self):
        assert module_name_for("", "/tmp/fixtures/alpha.py") == "alpha"


class TestProjectIndex:
    def test_cross_module_import_resolution(self, tmp_path):
        index = build_index(
            tmp_path,
            {
                "alpha.py": "def helper(x):\n    return x\n",
                "beta.py": "from alpha import helper as h\n",
            },
        )
        assert index.resolve_name("beta", "h") == ("function", "alpha.helper")
        assert index.resolve_name("beta", "missing") is None

    def test_frozen_dataclass_detection(self, tmp_path):
        code = (
            "from dataclasses import dataclass\n\n"
            "@dataclass(frozen=True)\n"
            "class Cold:\n"
            "    x: float = 0.0\n\n"
            "@dataclass\n"
            "class Warm:\n"
            "    x: float = 0.0\n\n"
            "class Plain:\n"
            "    pass\n"
        )
        index = build_index(tmp_path, {"mod.py": code})
        assert index.classes["mod.Cold"].is_frozen
        assert not index.classes["mod.Warm"].is_frozen
        assert not index.classes["mod.Plain"].is_frozen

    def test_dataclass_constructor_params_from_fields(self, tmp_path):
        code = (
            "from dataclasses import dataclass\n\n"
            "@dataclass\n"
            "class Spec:\n"
            "    seed: int = 0\n"
            "    name: str = ''\n"
        )
        index = build_index(tmp_path, {"mod.py": code})
        params = index.constructor_params("mod.Spec")
        assert [p.name for p in params] == ["seed", "name"]


class TestCallGraph:
    FILES = {
        "chain.py": (
            "def leaf(x):\n    return x + 1\n\n"
            "def mid(x):\n    return leaf(x)\n\n"
            "def top(x):\n    return mid(x)\n"
        ),
    }

    def test_edges_and_transitive_callers(self, tmp_path):
        graph = CallGraph.build(build_index(tmp_path, self.FILES))
        assert graph.edges["chain.top"] == {"chain.mid"}
        assert graph.callers_of({"chain.leaf"}) == {
            "chain.leaf", "chain.mid", "chain.top",
        }

    def test_shortest_path_to_target(self, tmp_path):
        graph = CallGraph.build(build_index(tmp_path, self.FILES))
        assert graph.path_to("chain.top", {"chain.leaf"}) == [
            "chain.top", "chain.mid", "chain.leaf",
        ]
        assert graph.path_to("chain.leaf", {"chain.top"}) is None


class TestRPR101UnitFlow:
    def test_inferred_unit_conflict_through_assignment(self, tmp_path):
        files = {
            "flow.py": (
                "def f(delay_ms):\n"
                "    d = delay_ms\n"
                "    total_s = 1.0\n"
                "    return total_s + d\n"
            ),
        }
        findings = lint_project(tmp_path, files, {"RPR101"})
        assert [f.rule_id for f in findings] == ["RPR101"]
        assert "ms" in findings[0].message

    def test_cross_module_call_argument_conflict(self, tmp_path):
        files = {
            "api.py": "def wait(timeout_s):\n    return timeout_s\n",
            "use.py": (
                "from api import wait\n\n"
                "def g(t_ms):\n"
                "    return wait(t_ms)\n"
            ),
        }
        findings = lint_project(tmp_path, files, {"RPR101"})
        assert [f.rule_id for f in findings] == ["RPR101"]
        assert findings[0].path.endswith("use.py")
        assert "timeout_s" in findings[0].message

    def test_return_unit_must_match_name_suffix(self, tmp_path):
        files = {
            "ret.py": (
                "def level_dbm(ratio):\n"
                "    value_db = ratio * 2.0\n"
                "    return value_db\n"
            ),
        }
        findings = lint_project(tmp_path, files, {"RPR101"})
        assert [f.rule_id for f in findings] == ["RPR101"]
        assert "return of 'level_dbm'" in findings[0].message

    def test_db_dbm_arithmetic_and_matching_return_are_clean(self, tmp_path):
        files = {
            "ok.py": (
                "def rssi_dbm(tx_dbm, loss_db):\n"
                "    total_dbm = tx_dbm - loss_db\n"
                "    return total_dbm\n"
            ),
        }
        assert lint_project(tmp_path, files, {"RPR101"}) == []


class TestRPR103ScalarLoops:
    def test_iterating_annotated_array_parameter(self, tmp_path):
        files = {
            "loops.py": (
                "import numpy as np\n\n"
                "def total(xs: np.ndarray) -> float:\n"
                "    acc = 0.0\n"
                "    for x in xs:\n"
                "        acc += x\n"
                "    return acc\n"
            ),
        }
        findings = lint_project(tmp_path, files, {"RPR103"})
        assert [f.rule_id for f in findings] == ["RPR103"]
        assert "iterates numpy array 'xs'" in findings[0].message

    def test_range_len_index_loop(self, tmp_path):
        files = {
            "loops.py": (
                "import numpy as np\n\n"
                "def indexed(xs: np.ndarray) -> float:\n"
                "    acc = 0.0\n"
                "    for i in range(len(xs)):\n"
                "        acc += float(xs[i])\n"
                "    return acc\n"
            ),
        }
        findings = lint_project(tmp_path, files, {"RPR103"})
        assert [f.rule_id for f in findings] == ["RPR103"]
        assert "range(len(xs))" in findings[0].message

    def test_per_element_write_into_preallocated_array(self, tmp_path):
        files = {
            "loops.py": (
                "import numpy as np\n\n"
                "def fill(n: int):\n"
                "    out = np.zeros(n)\n"
                "    for i in range(n):\n"
                "        out[i] = i * 2.0\n"
                "    return out\n"
            ),
        }
        findings = lint_project(tmp_path, files, {"RPR103"})
        assert [f.rule_id for f in findings] == ["RPR103"]
        assert "per-element write out[i]" in findings[0].message

    def test_zip_over_array_operand(self, tmp_path):
        files = {
            "loops.py": (
                "import numpy as np\n\n"
                "def pair(xs: np.ndarray, ys):\n"
                "    acc = 0.0\n"
                "    for x, y in zip(xs, ys):\n"
                "        acc += x * y\n"
                "    return acc\n"
            ),
        }
        findings = lint_project(tmp_path, files, {"RPR103"})
        assert [f.rule_id for f in findings] == ["RPR103"]
        assert "via zip(...)" in findings[0].message

    def test_comprehension_and_tolist_scan_are_clean(self, tmp_path):
        files = {
            "loops.py": (
                "import numpy as np\n\n"
                "def ok(xs: np.ndarray) -> float:\n"
                "    values = [x * x for x in xs]\n"
                "    for v in xs.tolist():\n"
                "        values.append(v)\n"
                "    return float(sum(values))\n"
            ),
        }
        assert lint_project(tmp_path, files, {"RPR103"}) == []


class TestTwoPhaseResolution:
    FILES = {
        "helpers.py": "def wait(timeout_s):\n    return timeout_s\n",
        "main.py": (
            "from helpers import wait\n\n"
            "def run(delay_ms):\n"
            "    return wait(delay_ms)\n"
        ),
    }

    def test_batch_lint_resolves_across_files(self, tmp_path):
        findings = lint_project(tmp_path, self.FILES, {"RPR101"})
        assert [f.rule_id for f in findings] == ["RPR101"]
        assert findings[0].path.endswith("main.py")

    def test_single_file_lint_cannot_see_the_sibling(self, tmp_path):
        for name, code in self.FILES.items():
            (tmp_path / name).write_text(code)
        findings = lint_paths([tmp_path / "main.py"], select={"RPR101"})
        assert findings == []
