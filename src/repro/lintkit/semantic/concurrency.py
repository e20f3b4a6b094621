"""Per-class lock summaries backing the RPR2xx concurrency rules.

The :class:`ConcurrencyIndex` is a derived analysis on the phase-1
:class:`~repro.lintkit.semantic.symbols.ProjectIndex`. It answers, for
every class that owns ``threading`` state:

* which attributes are *locks* — ``self._lock = threading.Lock()`` — and
  which other synchronization attributes alias them (a
  ``threading.Condition(self._lock)`` acquires the same underlying lock,
  so ``with self._not_empty:`` is a scope of ``_lock``);
* which attributes the class treats as *guarded*: anything written,
  augmented, or mutated inside a lock scope by a non-constructor method.
  Attributes only ever assigned in ``__init__`` (configuration, bounds,
  sub-objects with their own locks) are deliberately *not* guarded, so
  immutable state never produces findings;
* every attribute access of every method together with the lock scope it
  happened under (:class:`AttrAccess`), which is what RPR201/RPR202
  consume;
* every call site made while holding a class lock
  (:attr:`ConcurrencyIndex.locked_calls`), so a private helper that is
  *only ever called with the lock held* can be recognized and not flagged.

Scopes are per-method: a method that takes the lock, releases it, and
takes it again has two distinct scope ids, which is exactly the split
RPR202's check-then-act detection keys on. Like the rest of the semantic
tier the walk never descends into nested ``def``/``class``/``lambda``
bodies — deferred code runs under unknown lock context and is excluded
rather than guessed at.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .symbols import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    dotted_name,
)

__all__ = [
    "INIT_METHODS",
    "WRITE_KINDS",
    "AttrAccess",
    "MethodSummary",
    "ClassConcurrency",
    "LockedCall",
    "ConcurrencyIndex",
    "absolute_name",
    "sync_kind",
]

#: Methods whose writes establish (rather than mutate) object state; their
#: attribute stores never make an attribute "guarded" and are never flagged.
INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

#: Access kinds that count as writes when inferring the guarded set.
WRITE_KINDS = frozenset({"write", "augwrite", "mutate"})

#: Constructor dotted names → synchronization kind. Resolution goes through
#: the module's import table, so a project-local ``Event`` class (e.g.
#: ``repro.sim.events.Event``) is never mistaken for ``threading.Event``.
_SYNC_CONSTRUCTORS: Dict[str, str] = {
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Condition": "condition",
    "threading.Event": "event",
    "threading.Semaphore": "semaphore",
    "threading.BoundedSemaphore": "semaphore",
    "queue.Queue": "queue",
    "queue.LifoQueue": "queue",
    "queue.PriorityQueue": "queue",
    "queue.SimpleQueue": "queue",
    "multiprocessing.Queue": "queue",
    "multiprocessing.JoinableQueue": "queue",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
}

#: Direct calls that hand back an open OS resource.
_FILE_OPENERS = frozenset({"open", "io.open", "gzip.open", "bz2.open"})

#: Method names that mutate their receiver in place, tuned for shared
#: containers — deque/OrderedDict reordering included.
MUTATOR_METHODS = frozenset(
    {
        "append", "appendleft", "extend", "extendleft", "insert", "add",
        "update", "pop", "popleft", "popitem", "remove", "discard",
        "clear", "sort", "reverse", "rotate", "setdefault", "move_to_end",
        "write", "writelines", "put", "send",
    }
)


def absolute_name(module: ModuleInfo, dotted: str) -> str:
    """Translate a dotted reference through the module's import table."""
    head, _, rest = dotted.partition(".")
    if head in module.imports:
        target = module.imports[head]
        return f"{target}.{rest}" if rest else target
    return dotted


def sync_kind(module: ModuleInfo, call: ast.Call) -> Optional[str]:
    """Synchronization/resource kind constructed by ``call``, if known.

    ``"lock" | "condition" | "event" | "semaphore" | "queue" | "socket" |
    "file"`` — or ``None`` for anything that is not a recognized
    ``threading``/``queue``/``socket`` constructor or file opener.
    """
    dotted = dotted_name(call.func)
    if dotted is not None:
        absolute = absolute_name(module, dotted)
        kind = _SYNC_CONSTRUCTORS.get(absolute)
        if kind is not None:
            return kind
        if absolute in _FILE_OPENERS:
            return "file"
    if isinstance(call.func, ast.Attribute) and call.func.attr == "open":
        # ``path.open(...)``, ``Path(p).open(...)`` — receiver-agnostic.
        return "file"
    return None


@dataclass(frozen=True)
class AttrAccess:
    """One ``self.<attr>`` access inside a method, with its lock context."""

    attr: str
    node: ast.AST
    #: ``"read"`` | ``"write"`` | ``"augwrite"`` | ``"mutate"``.
    kind: str
    #: Canonical lock attribute held at the access, or ``None``.
    lock: Optional[str]
    #: Identity of the innermost lock scope (``with self._lock:`` block)
    #: the access sits in — distinct per acquisition, so two scopes of the
    #: same lock in one method do not compare equal. ``None`` when unlocked.
    scope: Optional[int]


@dataclass
class MethodSummary:
    """Lock-relevant facts about one method of a lock-owning class."""

    qualname: str
    name: str
    accesses: List[AttrAccess] = field(default_factory=list)


@dataclass(frozen=True)
class LockedCall:
    """A call made while holding one or more of the caller's class locks."""

    caller: str
    #: The caller's ``self`` parameter name (receiver identity matters:
    #: ``self.helper()`` under ``self._lock`` protects *this* instance;
    #: ``other.helper()`` does not, even for the same class).
    receiver: str
    locks: FrozenSet[str]


@dataclass
class ClassConcurrency:
    """Lock summary of one class: locks, aliases, guarded set, accesses."""

    qualname: str
    #: Canonical guard names: plain lock attrs plus standalone conditions
    #: (a ``Condition()`` with no explicit lock owns one).
    locks: Set[str] = field(default_factory=set)
    #: Acquirable attr → canonical guard it takes (identity for locks,
    #: wrapped lock for ``Condition(self._lock)``).
    aliases: Dict[str, str] = field(default_factory=dict)
    conditions: Set[str] = field(default_factory=set)
    events: Set[str] = field(default_factory=set)
    queues: Set[str] = field(default_factory=set)
    sockets: Set[str] = field(default_factory=set)
    #: Every synchronization attribute (locks, conditions, events,
    #: semaphores, queues, sockets) — excluded from the guarded set.
    sync_attrs: Set[str] = field(default_factory=set)
    #: Guarded attribute → the canonical locks observed guarding its writes.
    guarded: Dict[str, Set[str]] = field(default_factory=dict)
    methods: Dict[str, MethodSummary] = field(default_factory=dict)

    def guard_for(self, expr: ast.expr, receiver: str) -> Optional[str]:
        """Canonical lock acquired by ``with <expr>:``, if any."""
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == receiver
        ):
            return self.aliases.get(expr.attr)
        return None


class ConcurrencyIndex:
    """Project-wide concurrency facts (built once per lint batch)."""

    def __init__(self) -> None:
        self.classes: Dict[str, ClassConcurrency] = {}
        #: ``id(ast.Call)`` → lock context of that call site.
        self.locked_calls: Dict[int, LockedCall] = {}
        #: Module name → module-global name → sync kind, for globals like
        #: ``_CACHE_LOCK = threading.Lock()``.
        self.module_sync: Dict[str, Dict[str, str]] = {}
        self._scope_counter = 0
        self._callee_sites: Optional[Dict[str, list]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, index: ProjectIndex) -> "ConcurrencyIndex":
        """Scan every indexed class and function for lock usage."""
        conc = cls()
        for module in index.modules.values():
            conc._collect_module_globals(module)
        for module in index.modules.values():
            for cls_info in module.classes.values():
                conc._scan_class(module, cls_info)
        return conc

    def _collect_module_globals(self, module: ModuleInfo) -> None:
        bindings: Dict[str, str] = {}
        for stmt in module.tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                kind = sync_kind(module, stmt.value)
                if kind is not None:
                    bindings[stmt.targets[0].id] = kind
        if bindings:
            self.module_sync[module.name] = bindings

    # ------------------------------------------------------------------
    # per-class summary
    # ------------------------------------------------------------------
    def _scan_class(self, module: ModuleInfo, cls_info: ClassInfo) -> None:
        attr_kinds = self._attr_constructor_kinds(module, cls_info)
        if not attr_kinds:
            return
        cc = ClassConcurrency(qualname=cls_info.qualname)
        for attr, (kind, call) in attr_kinds.items():
            cc.sync_attrs.add(attr)
            if kind == "lock":
                cc.locks.add(attr)
                cc.aliases[attr] = attr
            elif kind == "queue":
                cc.queues.add(attr)
            elif kind == "event":
                cc.events.add(attr)
            elif kind == "socket":
                cc.sockets.add(attr)
            elif kind == "file":
                cc.sync_attrs.discard(attr)  # a file is a resource, not sync
        # Second pass so conditions alias locks regardless of declaration
        # order in ``__init__``.
        for attr, (kind, call) in attr_kinds.items():
            if kind != "condition":
                continue
            cc.conditions.add(attr)
            wrapped: Optional[str] = None
            if call.args:
                first = call.args[0]
                if isinstance(first, ast.Attribute) and isinstance(
                    first.value, ast.Name
                ):
                    wrapped = (
                        first.attr if first.attr in cc.locks else None
                    )
            if wrapped is not None:
                cc.aliases[attr] = cc.aliases[wrapped]
            else:
                # A bare Condition() owns its lock: acquiring the condition
                # is the only way to take it, so the condition *is* a guard.
                cc.locks.add(attr)
                cc.aliases[attr] = attr
        if cc.aliases:
            for method in cls_info.methods.values():
                cc.methods[method.name] = self._scan_method(cc, method)
            self._infer_guarded(cc)
        if cc.aliases or cc.queues or cc.events or cc.sockets:
            self.classes[cls_info.qualname] = cc

    def _attr_constructor_kinds(
        self, module: ModuleInfo, cls_info: ClassInfo
    ) -> Dict[str, Tuple[str, ast.Call]]:
        """``self.<attr> = <ctor>()`` kinds across all methods + class body."""
        kinds: Dict[str, Tuple[str, ast.Call]] = {}

        def note(target: ast.expr, value: ast.expr, receiver: str) -> None:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == receiver
                and isinstance(value, ast.Call)
            ):
                return
            kind = sync_kind(module, value)
            if kind is not None:
                kinds.setdefault(target.attr, (kind, value))

        for method in cls_info.methods.values():
            receiver = self._receiver(method)
            if receiver is None:
                continue
            for node in ProjectIndex._walk_body(method.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    note(node.targets[0], node.value, receiver)
                elif (
                    isinstance(node, ast.AnnAssign)
                    and node.value is not None
                ):
                    note(node.target, node.value, receiver)
        for stmt in cls_info.node.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                kind = sync_kind(module, stmt.value)
                if kind is not None:
                    kinds.setdefault(stmt.targets[0].id, (kind, stmt.value))
        return kinds

    @staticmethod
    def _receiver(func: FunctionInfo) -> Optional[str]:
        if func.is_static or not func.params:
            return None
        return func.params[0].name

    def _infer_guarded(self, cc: ClassConcurrency) -> None:
        for summary in cc.methods.values():
            if summary.name in INIT_METHODS:
                continue
            for access in summary.accesses:
                if access.kind in WRITE_KINDS and access.lock is not None:
                    cc.guarded.setdefault(access.attr, set()).add(access.lock)
        for attr in cc.sync_attrs:
            cc.guarded.pop(attr, None)

    # ------------------------------------------------------------------
    # per-method walk: lock scopes, attribute accesses, locked calls
    # ------------------------------------------------------------------
    def _scan_method(
        self, cc: ClassConcurrency, func: FunctionInfo
    ) -> MethodSummary:
        summary = MethodSummary(qualname=func.qualname, name=func.name)
        receiver = self._receiver(func)
        if receiver is None:
            return summary
        self._scan_block(
            cc, func, receiver, summary, func.node.body, (), None
        )
        return summary

    def _next_scope(self) -> int:
        self._scope_counter += 1
        return self._scope_counter

    def _scan_block(
        self,
        cc: ClassConcurrency,
        func: FunctionInfo,
        receiver: str,
        summary: MethodSummary,
        stmts: List[ast.stmt],
        held: Tuple[str, ...],
        scope: Optional[int],
    ) -> None:
        def recurse(
            body: List[ast.stmt],
            new_held: Tuple[str, ...] = held,
            new_scope: Optional[int] = scope,
        ) -> None:
            self._scan_block(
                cc, func, receiver, summary, body, new_held, new_scope
            )
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired: List[str] = []
                plain_items: List[ast.expr] = []
                for item in stmt.items:
                    lock = cc.guard_for(item.context_expr, receiver)
                    if lock is not None:
                        acquired.append(lock)
                    else:
                        plain_items.append(item.context_expr)
                self._record_exprs(
                    cc, func, receiver, summary, plain_items, held, scope
                )
                if acquired:
                    recurse(
                        stmt.body,
                        held + tuple(acquired),
                        self._next_scope(),
                    )
                else:
                    recurse(stmt.body)
            elif isinstance(stmt, ast.If):
                self._record_exprs(
                    cc, func, receiver, summary, [stmt.test], held, scope
                )
                recurse(stmt.body)
                recurse(stmt.orelse)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._record_exprs(
                    cc, func, receiver, summary, [stmt.iter], held, scope
                )
                self._record_simple(
                    cc, func, receiver, summary,
                    targets=[(stmt.target, "write")],
                    exprs=[], held=held, scope=scope,
                )
                recurse(stmt.body)
                recurse(stmt.orelse)
            elif isinstance(stmt, ast.While):
                self._record_exprs(
                    cc, func, receiver, summary, [stmt.test], held, scope
                )
                recurse(stmt.body)
                recurse(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                recurse(stmt.body)
                for handler in stmt.handlers:
                    recurse(handler.body)
                recurse(stmt.orelse)
                recurse(stmt.finalbody)
            else:
                self._record_stmt(
                    cc, func, receiver, summary, stmt, held, scope
                )

    def _record_stmt(
        self,
        cc: ClassConcurrency,
        func: FunctionInfo,
        receiver: str,
        summary: MethodSummary,
        stmt: ast.stmt,
        held: Tuple[str, ...],
        scope: Optional[int],
    ) -> None:
        targets: List[Tuple[ast.expr, str]] = []
        exprs: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = [(t, "write") for t in stmt.targets]
            exprs = [stmt.value]
        elif isinstance(stmt, ast.AnnAssign):
            targets = [(stmt.target, "write")]
            if stmt.value is not None:
                exprs = [stmt.value]
        elif isinstance(stmt, ast.AugAssign):
            targets = [(stmt.target, "augwrite")]
            exprs = [stmt.value]
        elif isinstance(stmt, ast.Delete):
            targets = [(t, "write") for t in stmt.targets]
        else:
            exprs = [
                child
                for child in ast.iter_child_nodes(stmt)
                if isinstance(child, ast.expr)
            ]
        self._record_simple(
            cc, func, receiver, summary, targets, exprs, held, scope
        )

    def _record_simple(
        self,
        cc: ClassConcurrency,
        func: FunctionInfo,
        receiver: str,
        summary: MethodSummary,
        targets: List[Tuple[ast.expr, str]],
        exprs: List[ast.expr],
        held: Tuple[str, ...],
        scope: Optional[int],
    ) -> None:
        consumed: Set[int] = set()
        side_exprs: List[ast.expr] = list(exprs)

        def record(attr: str, node: ast.AST, kind: str) -> None:
            if attr in cc.aliases:
                return  # taking/naming a lock is not a data access
            lock = held[-1] if held else None
            summary.accesses.append(
                AttrAccess(
                    attr=attr, node=node, kind=kind, lock=lock, scope=scope
                )
            )

        def classify_target(target: ast.expr, kind: str) -> None:
            if isinstance(target, ast.Attribute):
                if (
                    isinstance(target.value, ast.Name)
                    and target.value.id == receiver
                ):
                    record(target.attr, target, kind)
                    consumed.add(id(target))
                elif (
                    isinstance(target.value, ast.Attribute)
                    and isinstance(target.value.value, ast.Name)
                    and target.value.value.id == receiver
                ):
                    # ``self.a.b = v`` writes *through* self.a: a mutation.
                    record(target.value.attr, target, "mutate")
                    consumed.add(id(target.value))
            elif isinstance(target, ast.Subscript):
                base = target.value
                if (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == receiver
                ):
                    record(base.attr, target, "mutate")
                    consumed.add(id(base))
                side_exprs.append(target.slice)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    classify_target(element, kind)
            elif isinstance(target, ast.Starred):
                classify_target(target.value, kind)

        for target, kind in targets:
            classify_target(target, kind)
        self._record_exprs(
            cc, func, receiver, summary, side_exprs, held, scope, consumed
        )

    def _record_exprs(
        self,
        cc: ClassConcurrency,
        func: FunctionInfo,
        receiver: str,
        summary: MethodSummary,
        exprs: List[ast.expr],
        held: Tuple[str, ...],
        scope: Optional[int],
        consumed: Optional[Set[int]] = None,
    ) -> None:
        consumed = consumed if consumed is not None else set()
        lock = held[-1] if held else None
        for expr in exprs:
            for node in self._walk_expr(expr):
                if isinstance(node, ast.Call):
                    if held:
                        self.locked_calls[id(node)] = LockedCall(
                            caller=func.qualname,
                            receiver=receiver,
                            locks=frozenset(held),
                        )
                    inner = self._mutated_attr(node, receiver)
                    if inner is not None:
                        attr_node, attr = inner
                        consumed.add(id(attr_node))
                        if attr not in cc.aliases:
                            summary.accesses.append(
                                AttrAccess(
                                    attr=attr,
                                    node=node,
                                    kind="mutate",
                                    lock=lock,
                                    scope=scope,
                                )
                            )
                elif isinstance(node, ast.Attribute):
                    if (
                        id(node) not in consumed
                        and isinstance(node.value, ast.Name)
                        and node.value.id == receiver
                        and isinstance(node.ctx, ast.Load)
                        and node.attr not in cc.aliases
                    ):
                        summary.accesses.append(
                            AttrAccess(
                                attr=node.attr,
                                node=node,
                                kind="read",
                                lock=lock,
                                scope=scope,
                            )
                        )

    @staticmethod
    def _mutated_attr(
        call: ast.Call, receiver: str
    ) -> Optional[Tuple[ast.Attribute, str]]:
        """``self.<attr>.<mutator>(...)`` → the mutated attribute node."""
        func = call.func
        if not (
            isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS
        ):
            return None
        base = func.value
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == receiver
        ):
            return base, base.attr
        return None

    @staticmethod
    def _walk_expr(expr: ast.expr) -> Iterator[ast.AST]:
        """Breadth-first expression walk that skips ``lambda`` bodies."""
        queue: List[ast.AST] = [expr]
        while queue:
            node = queue.pop(0)
            yield node
            if isinstance(node, ast.Lambda):
                continue
            queue.extend(ast.iter_child_nodes(node))

    # ------------------------------------------------------------------
    # shared helpers for the RPR201/202/205 rules
    # ------------------------------------------------------------------
    def local_bindings(
        self, module: ModuleInfo, func_node: ast.AST
    ) -> Dict[str, str]:
        """Locals of ``func_node`` bound to sync/resource constructors.

        ``name → kind`` for ``q = queue.Queue()``, ``fh = open(...)``,
        ``lock = threading.Lock()`` and friends — including names bound by
        ``with <ctor>() as name`` items.
        """
        bindings: Dict[str, str] = {}

        def note(name_node: Optional[ast.expr], value: ast.expr) -> None:
            if (
                isinstance(name_node, ast.Name)
                and isinstance(value, ast.Call)
            ):
                kind = sync_kind(module, value)
                if kind is not None:
                    bindings.setdefault(name_node.id, kind)

        for node in ProjectIndex._walk_body(func_node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                note(node.targets[0], node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                note(node.target, node.value)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    note(item.optional_vars, item.context_expr)
        return bindings

    def always_called_locked(
        self,
        index: ProjectIndex,
        cc: ClassConcurrency,
        method_qualname: str,
    ) -> bool:
        """Whether every resolved call of a method holds one of its locks.

        True only when the method has at least one resolved project call
        site and *every* one of them (a) is a ``self.<method>()`` call on
        the caller's own receiver, (b) comes from a method of the same
        class, and (c) executes while holding one of the class's canonical
        locks. Such a method is a lock-scope extension, not an escape.
        """
        sites = self._sites_by_callee(index).get(method_qualname)
        if not sites:
            return False
        for site in sites:
            locked = self.locked_calls.get(id(site.node))
            if locked is None or not (locked.locks & cc.locks):
                return False
            caller = index.functions.get(site.caller)
            if caller is None or caller.class_qualname != cc.qualname:
                return False
            func = site.node.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == locked.receiver
            ):
                return False
        return True

    def _sites_by_callee(self, index: ProjectIndex) -> Dict[str, list]:
        if self._callee_sites is None:
            graph = index.call_graph()
            by_callee: Dict[str, list] = {}
            for sites in graph.sites.values():
                for site in sites:
                    by_callee.setdefault(site.callee, []).append(site)
            self._callee_sites = by_callee
        return self._callee_sites
