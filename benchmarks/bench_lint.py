"""Benchmark: reprolint serial wall time over ``src/repro``.

The lint gate runs on every CI push, so its latency is part of the
development loop the same way the kernels' latency is part of the serve
loop. This bench times a full in-process lint of ``src/repro`` (every
registered rule, one shared :class:`ProjectIndex`) and records the median,
min and max over the rounds — plus the host's CPU count — to
``BENCH_lint.json``.

Env knob: ``BENCH_LINT_QUICK=1`` lints only ``src/repro/lintkit`` once for
a fast smoke.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.lintkit import Linter

__all__ = [
    "test_lint_serial_wall_time",
]

QUICK = os.environ.get("BENCH_LINT_QUICK") == "1"
REPO_ROOT = Path(__file__).resolve().parents[1]
LINT_TARGET = (
    REPO_ROOT / "src" / "repro" / "lintkit"
    if QUICK
    else REPO_ROOT / "src" / "repro"
)
RESULT_PATH = REPO_ROOT / "BENCH_lint.json"
ROUNDS = 1 if QUICK else 5


def test_lint_serial_wall_time(benchmark, report):
    """Time ``ROUNDS`` full lints; the tree must stay lint-clean."""
    times_s = []
    findings = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        findings = Linter().lint_paths([LINT_TARGET])
        times_s.append(time.perf_counter() - started)
    assert findings == []

    benchmark.pedantic(
        lambda: Linter().lint_paths([LINT_TARGET]), rounds=1, iterations=1
    )

    result = {
        "target": str(LINT_TARGET.relative_to(REPO_ROOT)),
        "quick": QUICK,
        "cpu_count": os.cpu_count() or 1,
        "rules": len(Linter().rules),
        "rounds": ROUNDS,
        "serial_median_s": statistics.median(times_s),
        "serial_min_s": min(times_s),
        "serial_max_s": max(times_s),
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    report.header("reprolint serial wall time")
    report.emit(
        f"target       : {result['target']}",
        f"rules        : {result['rules']}",
        f"rounds       : {ROUNDS}",
        f"median       : {result['serial_median_s'] * 1e3:8.0f} ms",
        f"min / max    : {result['serial_min_s'] * 1e3:8.0f} / "
        f"{result['serial_max_s'] * 1e3:.0f} ms",
        f"results      : {RESULT_PATH.name}",
    )
    report.shape_check("lint target is clean", findings == [])


if __name__ == "__main__":
    pytest.main([__file__, "--benchmark-only", "-q"])
