"""Rule registry: importing this package registers RPR001–RPR005,
RPR101, RPR103, RPR201, RPR202, RPR205 and RPR301.

Each rule lives in its own module named after its id; new rules register
themselves via the :func:`repro.lintkit.rules.base.register` decorator and
become visible to the engine, the CLI ``--select`` filter, and the docs.
The RPR1xx block is the *semantic* tier: those rules consult the phase-1
project index (:mod:`repro.lintkit.semantic`) instead of a single file.
The RPR2xx block is the *concurrency* tier: it additionally consults the
per-class lock summaries (:mod:`repro.lintkit.semantic.concurrency`) to
check lock discipline, atomicity, and blocking-call deadlines. RPR301
checks hot-path loops for loop-invariant array allocation.
"""

from __future__ import annotations

from .base import FileContext, Rule, all_rules, register
from . import (  # noqa: F401  (imported for their registration side effect)
    rpr001_units,
    rpr002_determinism,
    rpr003_constants,
    rpr004_exceptions,
    rpr005_api,
    rpr101_unit_flow,
    rpr103_scalar_loops,
    rpr201_lock_discipline,
    rpr202_atomicity,
    rpr205_deadlines,
    rpr301_hot_alloc,
)

__all__ = [
    "FileContext",
    "Rule",
    "all_rules",
    "register",
]
