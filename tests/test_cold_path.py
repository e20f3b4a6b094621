"""The cold path of every process: what importing and compiling cost.

Serve, fleet, routing and telemetry processes never fit a model, so
importing the package must not load scipy (~0.45 s and ~44 MB); only a
fit imports it, at call time. A policy compile solves its SNR axis in
cache-sized blocks, so its transient memory is one block's planes, not
the whole axis's. Both are checked in a fresh interpreter, where the
suite's own imports and allocations cannot hide them.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro
from repro.core.fitting import fit_exponential_family

#: Peak-RSS rise a default-grid ``compile(keep_planes=True)`` may cost:
#: ~42 MB in blocks, ~148 MB if one block spanned the whole axis.
COMPILE_RSS_CEILING_MB = 64.0


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter on this package; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(Path(repro.__file__).parents[1]),
                      env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout


def test_importing_every_subpackage_and_the_cli_leaves_scipy_out():
    out = run_fresh(
        "import importlib, pkgutil, sys, repro\n"
        "for module in pkgutil.iter_modules(repro.__path__):\n"
        "    if module.ispkg:\n"
        "        importlib.import_module('repro.' + module.name)\n"
        "import repro.cli\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.split('.')[0] == 'scipy'))\n"
    )
    assert out.strip() == "[]"


def test_fit_still_uses_scipy_on_clean_data():
    payload = np.repeat([20.0, 65.0, 110.0], 8)
    snr_db = np.tile(np.linspace(2.0, 16.0, 8), 3)
    values = 0.0128 * payload * np.exp(-0.15 * snr_db)
    fit = fit_exponential_family(payload, snr_db, values)
    assert fit.method == "scipy-curve_fit"
    assert fit.beta < 0


def test_default_compile_peak_rss_stays_within_ceiling():
    out = run_fresh(
        "import resource, sys\n"
        "from repro.core.optimization import PolicyTable\n"
        "scale = 1 if sys.platform == 'darwin' else 1024\n"
        "def peak():\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale\n"
        "base = peak()\n"
        "table = PolicyTable.compile(keep_planes=True)\n"
        "assert table.objective_plane.shape == (201, 4560)\n"
        "print((peak() - base) / 2**20)\n"
    )
    assert float(out) <= COMPILE_RSS_CEILING_MB
