"""Rule base class, per-file context, and the rule registry."""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Type

from ...errors import LintError
from ..findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..semantic.symbols import ProjectIndex

__all__ = [
    "FileContext",
    "Rule",
    "register",
    "all_rules",
    "package_root",
]


def package_root() -> Path:
    """Filesystem directory of the ``repro`` package being linted.

    Rules that consult the package's own source (the paper-constant registry,
    the exception hierarchy) resolve it relative to this file so the linter
    works from any working directory.
    """
    return Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class FileContext:
    """Everything a rule may inspect about one source file."""

    #: Path as it should appear in findings (as passed on the command line).
    path: str
    #: Path of the file relative to the ``repro`` package root, in posix
    #: form (e.g. ``"sim/rng.py"``), or ``""`` when the file lies outside
    #: the package. Rules use this for sanction/exclusion lists.
    package_relpath: str
    tree: ast.Module
    source: str
    #: Phase-1 symbol table over the whole lint batch, or ``None`` when a
    #: rule is exercised standalone. Flow-sensitive rules (RPR1xx and up)
    #: return no findings without it; per-file rules ignore it.
    project: Optional["ProjectIndex"] = None

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        suggestion: str = "",
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node`` for ``rule``."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=rule.rule_id,
            severity=rule.severity,
            message=message,
            suggestion=suggestion,
        )


class Rule(abc.ABC):
    """One invariant check; subclasses set the class attributes and visit."""

    #: Stable identifier, e.g. ``"RPR001"``; used by --select and suppressions.
    rule_id: str = ""
    #: Short human name shown in rule listings.
    name: str = ""
    severity: Severity = Severity.ERROR
    #: One-line description for ``docs/LINTS.md`` and ``--list-rules``.
    description: str = ""
    #: Why the invariant matters here, shown by ``wsnlink lint --explain``.
    rationale: str = ""
    #: Minimal violating snippet for ``--explain`` (kept on the rule class
    #: so the docs cannot drift from the implementation).
    example_bad: str = ""
    #: The corresponding clean form of :attr:`example_bad`.
    example_good: str = ""

    @abc.abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one parsed file."""

    @classmethod
    def validate(cls) -> None:
        """Sanity-check the subclass declaration at registration time."""
        if not cls.rule_id or not cls.description:
            raise LintError(
                f"rule {cls.__name__} must declare rule_id and description"
            )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule_cls.validate()
    if rule_cls.rule_id in _REGISTRY:
        raise LintError(f"duplicate rule id {rule_cls.rule_id!r}")
    _REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def all_rules() -> List[Type[Rule]]:
    """Registered rule classes, ordered by rule id."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]
