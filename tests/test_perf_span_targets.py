"""The benchmark's span targets resolve against the package in ``src/``.

``perf/spans.py`` wraps program callables by ``module:attr.path`` name,
so a renamed or deleted callable would otherwise only fail a traced
benchmark run. This reads its layer tables and resolves every target the
way its installer would, without patching anything.
"""

import importlib
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = runpy.run_path(str(ROOT / "perf" / "spans.py"))
TARGETS = sorted(
    {layer.target for layer in SPANS["SERVER_LAYERS"] + SPANS["FLEET_LAYERS"]}
)


def test_layer_tables_are_not_empty():
    assert len(SPANS["SERVER_LAYERS"]) > 0 and len(SPANS["FLEET_LAYERS"]) > 0


@pytest.mark.parametrize("target", TARGETS)
def test_span_target_resolves(target):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    assert ROOT / "src" in Path(module.__file__).resolve().parents
    *owners, attr = path.split(".")
    owner = module
    for name in owners:
        owner = getattr(owner, name)
    # The installer patches a class attribute through vars(), so a method
    # must be defined on the named class itself, not inherited.
    found = vars(owner).get(attr) if isinstance(owner, type) else getattr(
        owner, attr, None
    )
    assert found is not None, f"{target} does not resolve"
    assert callable(getattr(owner, attr))
