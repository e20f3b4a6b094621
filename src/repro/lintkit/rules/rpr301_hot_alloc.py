"""RPR301 — loop-invariant array allocation inside hot-path loops.

The columnar kernels and the fleet engine are benchmarked end to end
(``BENCH_grid_eval.json``, ``BENCH_fleet.json``); an allocation that
sneaks into one of their loops — ``np.zeros`` per iteration, a hidden
``astype`` copy, or the list-append-then-``asarray`` build — silently
turns an O(1)-allocation step into O(iterations) garbage pressure.

A function is *hot* when its module carries a ``# reprolint: hot-path``
marker comment, when it lives in a ``bench_*`` module in the lint batch,
or when the project call graph reaches it from either
(:func:`hot_functions`). Inside hot functions the rule flags, in
statement loops only:

* array-allocating calls (``np.zeros``, ``np.array``, ``concatenate``,
  ``.astype``/``.copy``/``.flatten``, …) whose arguments mention no name
  bound inside the loop — i.e. the allocation is loop-invariant and can
  be hoisted (a per-block ``np.empty(stop - start)`` is loop-variant and
  stays exempt);
* ``buf.append(...)`` in a loop when the function later materializes
  ``np.asarray(buf)`` — hot loops should write into preallocated output.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Iterator, Optional, Set

from ..findings import Finding, Severity
from ..semantic.arrays import numpy_call_tail
from ..semantic.symbols import ProjectIndex, dotted_name, module_name_for
from .base import FileContext, Rule, register

__all__ = [
    "HotLoopAllocationRule",
    "hot_functions",
    "hot_modules",
]

#: Loose pre-filter over whole-file text; the authoritative check matches
#: comment *tokens* whose text starts with the directive.
_HOT_MARKER = re.compile(r"#\s*reprolint:\s*hot-path\b")
_HOT_MARKER_COMMENT = re.compile(r"^#\s*reprolint:\s*hot-path\b")

#: numpy callables that allocate a new buffer (subset of the constructor
#: set: lookups like ``np.unique`` / ``np.argsort`` are algorithmic work,
#: not hoistable allocations).
_ALLOC_TAILS = frozenset(
    {
        "array", "asarray", "ascontiguousarray", "zeros", "ones", "empty",
        "full", "zeros_like", "ones_like", "empty_like", "full_like",
        "arange", "linspace", "logspace", "geomspace", "concatenate",
        "stack", "vstack", "hstack", "column_stack", "tile", "repeat",
        "meshgrid", "fromiter",
    }
)

#: ndarray methods that copy the receiver into a fresh buffer.
_ALLOC_METHODS = frozenset({"astype", "copy", "flatten"})


def hot_modules(index: ProjectIndex) -> Set[str]:
    """Modules marked ``# reprolint: hot-path`` (source re-read lazily).

    Only genuine comment tokens count — the marker spelled inside a
    string literal (docs, rule examples) does not make a module hot.
    """
    hot: Set[str] = set()
    for module in index.modules.values():
        try:
            text = Path(module.path).read_text(encoding="utf-8")
        except OSError:
            continue
        if not _HOT_MARKER.search(text):
            continue
        try:
            tokens = tokenize.generate_tokens(io.StringIO(text).readline)
            if any(
                token.type == tokenize.COMMENT
                and _HOT_MARKER_COMMENT.match(token.string)
                for token in tokens
            ):
                hot.add(module.name)
        except (tokenize.TokenError, SyntaxError):
            continue
    return hot


def hot_functions(index: ProjectIndex) -> Set[str]:
    """Functions of hot-marked or ``bench_*`` modules, plus call-graph closure."""
    marked = hot_modules(index)
    seeds = {
        func.qualname
        for func in index.functions.values()
        if func.module in marked
        or func.module.rsplit(".", 1)[-1].startswith("bench_")
    }
    graph = index.call_graph()
    closure = set(seeds)
    frontier = list(seeds)
    while frontier:
        current = frontier.pop()
        for callee in graph.edges.get(current, ()):
            if callee not in closure:
                closure.add(callee)
                frontier.append(callee)
    return closure


@register
class HotLoopAllocationRule(Rule):
    """Flag hoistable array allocations in loops on the hot path."""

    rule_id = "RPR301"
    name = "hot-loop-allocation"
    severity = Severity.ERROR
    description = (
        "loops in hot-path functions (# reprolint: hot-path modules, "
        "benchmark call graph) must not re-run loop-invariant array "
        "allocations or build arrays via per-iteration append"
    )
    rationale = (
        "The recommend/drift loops run per tick across the whole fleet; "
        "an allocation whose size does not depend on the loop variable "
        "costs a malloc + memset every iteration for a buffer that could "
        "be created once outside. The BENCH files pin throughput, and "
        "allocation churn is the usual way it regresses without any "
        "numeric change."
    )
    example_bad = (
        "# reprolint: hot-path\n"
        "for step in range(n_steps):\n"
        "    scratch = np.zeros(n_links)  # same size every iteration\n"
        "    scratch += snr_db\n"
    )
    example_good = (
        "# reprolint: hot-path\n"
        "scratch = np.zeros(n_links)\n"
        "for step in range(n_steps):\n"
        "    scratch[:] = 0.0\n"
        "    scratch += snr_db\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.project is None:
            return
        module_name = module_name_for(ctx.package_relpath, ctx.path)
        if ctx.project.modules.get(module_name) is None:
            return
        hot = ctx.project.cached("hot_functions", hot_functions)
        seen = set()
        for func in sorted(
            ctx.project.functions.values(), key=lambda f: f.qualname
        ):
            if func.module != module_name:
                continue
            if func.qualname not in hot:
                continue
            asarray_built = self._asarray_built_lists(func.node)
            for node in ast.walk(func.node):
                if not isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                    continue
                for finding in self._check_loop(ctx, node, asarray_built):
                    key = (finding.line, finding.col, finding.message)
                    if key not in seen:
                        seen.add(key)
                        yield finding

    @staticmethod
    def _asarray_built_lists(func_node: ast.AST) -> Set[str]:
        """Names passed to ``np.asarray``/``np.array`` in this function."""
        built: Set[str] = set()
        for node in ast.walk(func_node):
            if (
                isinstance(node, ast.Call)
                and numpy_call_tail(node) in ("asarray", "array")
                and node.args
            ):
                name = dotted_name(node.args[0])
                if name is not None:
                    built.add(name)
        return built

    # ------------------------------------------------------------------
    def _check_loop(
        self, ctx: FileContext, loop: ast.stmt, asarray_built: Set[str]
    ) -> Iterator[Finding]:
        bound = self._loop_bound_names(loop)
        for node in self._walk_loop_body(loop):
            if not isinstance(node, ast.Call):
                continue
            label = self._allocation_label(node)
            if (
                label is not None
                and self._is_loop_invariant(node, bound)
                and not self._is_defensive_copy(node, loop)
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"loop-invariant allocation {label} inside a hot-path "
                    f"loop",
                    suggestion="hoist the allocation above the loop and "
                    "refill in place (scratch[:] = ...), or reuse via out=",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and dotted_name(node.func.value) in asarray_built
            ):
                list_name = dotted_name(node.func.value)
                yield ctx.finding(
                    self,
                    node,
                    f"hot-path loop appends to {list_name!r} which is later "
                    f"materialized with np.asarray",
                    suggestion="preallocate the output array before the "
                    "loop and write slices/elements into it",
                )

    @staticmethod
    def _walk_loop_body(loop: ast.stmt) -> Iterator[ast.AST]:
        """Walk the loop body (per-iteration code), not the iterable."""
        for stmt in getattr(loop, "body", []):
            yield from ast.walk(stmt)

    @staticmethod
    def _loop_bound_names(loop: ast.stmt) -> Set[str]:
        """Names (re)bound each iteration: targets plus body assignments."""
        names: Set[str] = set()

        def _collect(target: ast.expr) -> None:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    _collect(element)
            elif isinstance(target, ast.Starred):
                _collect(target.value)

        if isinstance(loop, (ast.For, ast.AsyncFor)):
            _collect(loop.target)
        for stmt in getattr(loop, "body", []):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        _collect(target)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    _collect(node.target)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    _collect(node.target)
                elif isinstance(node, ast.withitem) and node.optional_vars:
                    _collect(node.optional_vars)
        return names

    @staticmethod
    def _allocation_label(call: ast.Call) -> Optional[str]:
        """Describe ``call`` when it allocates an array buffer."""
        tail = numpy_call_tail(call)
        if tail in _ALLOC_TAILS:
            return f"np.{tail}(...)"
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _ALLOC_METHODS
            and numpy_call_tail(call) is None
        ):
            receiver = dotted_name(call.func.value) or "..."
            return f"{receiver}.{call.func.attr}(...)"
        return None

    @classmethod
    def _is_defensive_copy(cls, call: ast.Call, loop: ast.stmt) -> bool:
        """Whether ``call`` is a ``.copy()`` handed to a mutating callee.

        ``fresh = state.copy(); engine.step(fresh)`` per iteration is the
        point of the loop (the callee consumes/mutates the buffer), not a
        hoistable allocation — exempt a copy whose result is passed as a
        call argument inside the same loop body.
        """
        if not (
            isinstance(call.func, ast.Attribute) and call.func.attr == "copy"
        ):
            return False
        target: Optional[str] = None
        for node in cls._walk_loop_body(loop):
            if (
                isinstance(node, ast.Assign)
                and node.value is call
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                target = node.targets[0].id
                break
        else:
            # An inline ``f(state.copy())`` escapes directly.
            for node in cls._walk_loop_body(loop):
                if isinstance(node, ast.Call) and any(
                    arg is call for arg in node.args
                ):
                    return True
            return False
        for node in cls._walk_loop_body(loop):
            if isinstance(node, ast.Call) and any(
                isinstance(arg, ast.Name) and arg.id == target
                for arg in node.args
            ):
                return True
        return False

    @staticmethod
    def _is_loop_invariant(call: ast.Call, bound: Set[str]) -> bool:
        """No argument (or method receiver) mentions a loop-bound name."""
        for node in ast.walk(call):
            if isinstance(node, ast.Name) and node.id in bound:
                return False
        return True
