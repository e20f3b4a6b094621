"""The reprolint engine: file discovery, parsing, rule dispatch, filtering.

The engine runs in two phases. Phase 1 collects and parses every ``.py``
file in the batch and builds one :class:`ProjectIndex` (symbol table,
imports, signatures) over all of them. Phase 2 runs every selected rule
over each file's :class:`FileContext` — which carries the shared index, so
flow-sensitive rules (RPR101, RPR103, RPR2xx, RPR301) can see across file
boundaries — drops findings silenced by inline suppressions, and sorts
what remains. Baseline handling and reporting live in their own modules;
the CLI composes the pieces.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Type, Union

from ..errors import LintError
from .findings import Finding, Severity
from .rules import FileContext, Rule, all_rules
from .semantic.symbols import ProjectIndex
from .suppressions import parse_suppressions

__all__ = [
    "PARSE_ERROR_RULE_ID",
    "Linter",
    "iter_python_files",
    "lint_paths",
]

#: Pseudo rule id reported when a file cannot be parsed at all.
PARSE_ERROR_RULE_ID = "RPR000"


class _ParsedFile:
    """One successfully parsed file awaiting phase-2 rule dispatch."""

    __slots__ = ("display", "package_relpath", "tree", "source")

    def __init__(
        self,
        display: str,
        package_relpath: str,
        tree: ast.Module,
        source: str,
    ) -> None:
        self.display = display
        self.package_relpath = package_relpath
        self.tree = tree
        self.source = source


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` (files or directories), sorted."""
    seen: Set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise LintError(f"no such file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


class Linter:
    """Run a set of rules over files and return unsuppressed findings."""

    def __init__(
        self,
        rules: Optional[Sequence[Type[Rule]]] = None,
        select: Optional[Iterable[str]] = None,
    ) -> None:
        available = list(rules) if rules is not None else all_rules()
        if select is not None:
            wanted = set(select)
            unknown = wanted - {rule.rule_id for rule in available}
            if unknown:
                raise LintError(
                    f"unknown rule id(s): {', '.join(sorted(unknown))}"
                )
            available = [r for r in available if r.rule_id in wanted]
        self.rules: List[Rule] = [rule_cls() for rule_cls in available]

    @staticmethod
    def _package_relpath(path: Path) -> str:
        """Path of ``path`` relative to its enclosing ``repro`` package."""
        parts = path.resolve().parts
        for index in range(len(parts) - 1, 0, -1):
            if parts[index - 1] == "repro":
                return "/".join(parts[index:])
        return ""

    def _load(self, path: Path) -> Union[Finding, "_ParsedFile"]:
        """Phase-1 parse of one file: a parsed record, or an RPR000 finding."""
        display = str(path)
        try:
            source = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            return Finding(
                path=display,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                rule_id=PARSE_ERROR_RULE_ID,
                severity=Severity.ERROR,
                message=f"file does not parse: {exc.msg}",
            )
        return _ParsedFile(
            display=display,
            package_relpath=self._package_relpath(Path(path)),
            tree=tree,
            source=source,
        )

    def _check(
        self, parsed: "_ParsedFile", project: ProjectIndex
    ) -> List[Finding]:
        """Phase-2 rule dispatch over one already-parsed file."""
        ctx = FileContext(
            path=parsed.display,
            package_relpath=parsed.package_relpath,
            tree=parsed.tree,
            source=parsed.source,
            project=project,
        )
        suppressions = parse_suppressions(parsed.source, tree=parsed.tree)
        findings = [
            finding
            for rule in self.rules
            for finding in rule.check(ctx)
            if not suppressions.is_suppressed(finding)
        ]
        findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
        return findings

    def lint_file(self, path: Path) -> List[Finding]:
        """Findings for one file, already suppression-filtered and sorted.

        The project index covers just this file, so cross-file rules see a
        single-module project — handy for tests and spot checks; batch runs
        should use :meth:`lint_paths` for full cross-module resolution.
        """
        loaded = self._load(path)
        if isinstance(loaded, Finding):
            return [loaded]
        project = ProjectIndex.build(
            [(loaded.display, loaded.package_relpath, loaded.tree)]
        )
        return self._check(loaded, project)

    def lint_paths(self, paths: Iterable[Path]) -> List[Finding]:
        """Findings for every python file under ``paths``, in path order."""
        loaded = [self._load(path) for path in iter_python_files(paths)]
        project = ProjectIndex.build(
            [
                (record.display, record.package_relpath, record.tree)
                for record in loaded
                if isinstance(record, _ParsedFile)
            ]
        )
        findings: List[Finding] = []
        for record in loaded:
            if isinstance(record, Finding):
                findings.append(record)
            else:
                findings.extend(self._check(record, project))
        return findings


def lint_paths(
    paths: Iterable[Path],
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Convenience wrapper: lint ``paths`` with the default rule set."""
    return Linter(select=select).lint_paths(paths)
