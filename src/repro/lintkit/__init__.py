"""reprolint — repo-specific static analysis for the ``repro`` package.

A self-contained AST-based invariant checker (stdlib only) enforcing the
conventions the paper reproduction depends on. The RPR0xx tier checks one
file at a time; the RPR1xx tier is *semantic* — a phase-1 project index
(symbol table, imports, call graph) lets its rules follow units and
numpy arrays across function and module boundaries; the RPR2xx tier checks
*lock discipline* — per-class lock summaries inferred from
``with self._lock:`` bodies, composed with the call graph; RPR301 checks
loops on the hot path, seeded from ``# reprolint: hot-path`` markers and
the benchmark call graph:

========  =====================================================
RPR001    unit-suffix discipline (``_ms`` vs ``_s`` arithmetic)
RPR002    determinism (no global RNG / wall clock outside sim/rng.py)
RPR003    paper-constant duplication (re-hardcoded 0.224e-3, ...)
RPR004    exception discipline (ReproError subclasses only)
RPR005    public-API hygiene (__all__ + docstrings)
RPR101    unit-inference dataflow across assignments/returns/call sites
RPR103    scalar Python loops over numpy arrays (vectorize or list-build)
RPR201    lock discipline: guarded attributes accessed without the lock
RPR202    atomicity: split check-then-act, unlocked read-modify-write
RPR205    blocking-call deadlines: untimed wait/get/put/recv
RPR301    hot-loop allocation: loop-invariant array allocs on hot paths
========  =====================================================

Run it as ``wsnlink lint [--format json] [--select RPRxxx] paths...`` or
programmatically via :func:`lint_paths`; ``wsnlink lint --explain RPRxxx``
prints one rule's rationale with a bad/good example pair. Findings can be
silenced inline with ``# reprolint: disable=RPRxxx`` (on a ``with``
header, the directive covers the whole block) or grandfathered in a
committed baseline file (``reprolint-baseline.json``); the repo keeps
that baseline empty. See ``docs/LINTS.md`` for the full rule catalogue.
"""

from __future__ import annotations

from .baseline import filter_findings, load_baseline, save_baseline
from .engine import PARSE_ERROR_RULE_ID, Linter, iter_python_files, lint_paths
from .findings import Finding, Severity
from .report import per_rule_counts, render_json, render_sarif, render_text
from .rules import FileContext, Rule, all_rules, register
from .semantic import ProjectIndex

__all__ = [
    "Finding",
    "Severity",
    "FileContext",
    "Rule",
    "Linter",
    "ProjectIndex",
    "PARSE_ERROR_RULE_ID",
    "all_rules",
    "register",
    "lint_paths",
    "iter_python_files",
    "render_text",
    "render_json",
    "render_sarif",
    "per_rule_counts",
    "load_baseline",
    "save_baseline",
    "filter_findings",
]
