"""Project-level semantic analyses backing reprolint's flow-sensitive rules.

Phase 1 of the linter builds a :class:`~repro.lintkit.semantic.symbols.ProjectIndex`
over every file in the lint batch: dotted module names, function/class
signatures, and import tables (absolute, relative, and ``__init__``
re-exports). Phase 2 rules then consult the derived analyses, each computed
lazily and cached on the index:

* :mod:`~repro.lintkit.semantic.callgraph` — project-internal call graph with
  method resolution through annotated receivers;
* :mod:`~repro.lintkit.semantic.units` — the unit-suffix lattice plus a
  forward dataflow that propagates unit tags through assignments, returns,
  and call sites (RPR101);
* :mod:`~repro.lintkit.semantic.arrays` — local inference of which names are
  numpy arrays, for the scalar-loop performance lint (RPR103);
* :mod:`~repro.lintkit.semantic.concurrency` — per-class lock summaries:
  which attributes are locks, which attributes those locks guard, and the
  lock scope of every access and call site (RPR201, RPR202, RPR205).

Everything here is stdlib-only (``ast``), like the rest of ``lintkit``.
"""

from __future__ import annotations

from .concurrency import ConcurrencyIndex
from .symbols import FunctionInfo, ModuleInfo, ProjectIndex
from .units import (
    ALLOWED_MIXES,
    UNIT_DIMENSIONS,
    conflict_description,
    has_unit_suffix,
    unit_suffix,
)

__all__ = [
    "ProjectIndex",
    "ModuleInfo",
    "FunctionInfo",
    "ConcurrencyIndex",
    "UNIT_DIMENSIONS",
    "ALLOWED_MIXES",
    "unit_suffix",
    "has_unit_suffix",
    "conflict_description",
]
