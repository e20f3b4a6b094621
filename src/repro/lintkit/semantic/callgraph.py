"""Project-internal call graph over the phase-1 symbol table.

Edges connect function qualnames to the project functions/constructors they
may call. Method calls resolve through :meth:`ProjectIndex.local_class_types`
(``self``, annotated parameters and fields, constructor-assigned locals).
Calls that leave the project (numpy, stdlib) are not recorded.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .symbols import FunctionInfo, ProjectIndex

__all__ = [
    "CallSite",
    "CallGraph",
]


@dataclass(frozen=True)
class CallSite:
    """One resolved call site inside a project function."""

    caller: str
    node: ast.Call
    kind: str  # "function" | "class"
    callee: str  # function qualname, or class qualname for constructors


@dataclass
class CallGraph:
    """Caller→callee edges plus per-call-site resolution results."""

    edges: Dict[str, Set[str]] = field(default_factory=dict)
    sites: Dict[str, List[CallSite]] = field(default_factory=dict)

    @classmethod
    def build(cls, index: ProjectIndex) -> "CallGraph":
        """Resolve every call site of every indexed function."""
        graph = cls()
        for func in index.functions.values():
            graph._scan_function(index, func)
        return graph

    def _scan_function(self, index: ProjectIndex, func: FunctionInfo) -> None:
        module = index.modules.get(func.module)
        if module is None:
            return
        types = index.local_class_types(func)
        edges = self.edges.setdefault(func.qualname, set())
        sites = self.sites.setdefault(func.qualname, [])
        for node in ProjectIndex._walk_body(func.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = index.resolve_call(module.name, node, types)
            if resolved is None:
                continue
            kind, qualname = resolved
            sites.append(
                CallSite(
                    caller=func.qualname, node=node, kind=kind, callee=qualname
                )
            )
            if kind == "function":
                edges.add(qualname)
            else:
                for ctor_name in ("__init__", "__post_init__"):
                    ctor = index.functions.get(f"{qualname}.{ctor_name}")
                    if ctor is not None:
                        edges.add(ctor.qualname)

    def callers_of(self, targets: Set[str]) -> Set[str]:
        """All functions from which some target is reachable (incl. targets)."""
        reverse: Dict[str, Set[str]] = {}
        for caller, callees in self.edges.items():
            for callee in callees:
                reverse.setdefault(callee, set()).add(caller)
        reached: Set[str] = set(targets)
        frontier: List[str] = list(targets)
        while frontier:
            current = frontier.pop()
            for caller in reverse.get(current, ()):
                if caller not in reached:
                    reached.add(caller)
                    frontier.append(caller)
        return reached

    def path_to(
        self, start: str, targets: Set[str]
    ) -> Optional[List[str]]:
        """A shortest call path from ``start`` into ``targets`` (BFS)."""
        if start in targets:
            return [start]
        parents: Dict[str, str] = {start: start}
        frontier: List[str] = [start]
        while frontier:
            next_frontier: List[str] = []
            for current in frontier:
                for callee in sorted(self.edges.get(current, ())):
                    if callee in parents:
                        continue
                    parents[callee] = current
                    if callee in targets:
                        path = [callee]
                        while path[-1] != start:
                            path.append(parents[path[-1]])
                        return list(reversed(path))
                    next_frontier.append(callee)
            frontier = next_frontier
        return None
