"""Phase-1 symbol table: modules, signatures, imports, name resolution.

The :class:`ProjectIndex` is built once per lint batch from the already
parsed ASTs. It knows every module's dotted name, every function and class
(with parameter annotations and dataclass fields), and every import binding
— including relative imports, function-level imports, and re-exports
through ``__init__`` modules — so later phases can resolve a dotted
reference at any call site to the project definition it denotes.

Files inside the ``repro`` package get their real dotted names
(``sim/rng.py`` → ``repro.sim.rng``); files outside (test fixtures, ad-hoc
scripts) are indexed flat under their stem so sibling fixtures can still
import each other.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

__all__ = [
    "ParamInfo",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "ProjectIndex",
    "dotted_name",
    "annotation_type_names",
    "module_name_for",
]

#: Maximum re-export hops followed while canonicalising a reference.
_MAX_RESOLVE_HOPS = 16

#: ``typing`` wrappers that are transparent for type-name extraction.
_TRANSPARENT_GENERICS = frozenset({"Optional", "Union", "Annotated", "Final"})

_DATACLASS_DECORATORS = frozenset({"dataclass", "dataclasses.dataclass"})

_T = TypeVar("_T")


def dotted_name(node: ast.expr) -> Optional[str]:
    """Flatten a ``Name``/``Attribute`` chain to ``"a.b.c"``, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def annotation_type_names(annotation: Optional[ast.expr]) -> List[str]:
    """Outermost type names of an annotation, seen through ``Optional``/``Union``.

    ``Optional[SimulationOptions]`` yields ``["SimulationOptions"]``;
    ``Tuple[Spec, int]`` yields ``[]`` — container generics *hide* their
    element types on purpose, so only types passed as direct parameters
    resolve as receivers.
    """
    if annotation is None:
        return []
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return []
    if isinstance(annotation, (ast.Name, ast.Attribute)):
        dotted = dotted_name(annotation)
        return [dotted] if dotted else []
    if isinstance(annotation, ast.Subscript):
        base = dotted_name(annotation.value)
        if base and base.split(".")[-1] in _TRANSPARENT_GENERICS:
            inner = annotation.slice
            elements = (
                list(inner.elts) if isinstance(inner, ast.Tuple) else [inner]
            )
            names: List[str] = []
            for element in elements:
                names.extend(annotation_type_names(element))
            return names
        return []
    if isinstance(annotation, ast.BinOp) and isinstance(
        annotation.op, ast.BitOr
    ):
        return annotation_type_names(annotation.left) + annotation_type_names(
            annotation.right
        )
    return []


def module_name_for(package_relpath: str, display_path: str) -> str:
    """Dotted module name for a linted file.

    Inside the package: ``"sim/rng.py"`` → ``"repro.sim.rng"`` and
    ``"sim/__init__.py"`` → ``"repro.sim"``. Outside: the bare file stem,
    so multi-file fixtures resolve each other by sibling name.
    """
    if package_relpath:
        parts = package_relpath[: -len(".py")].split("/")
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(["repro"] + parts)
    stem = display_path.rsplit("/", 1)[-1]
    if stem.endswith(".py"):
        stem = stem[: -len(".py")]
    return stem


@dataclass(frozen=True)
class ParamInfo:
    """One declared parameter of a project function."""

    name: str
    annotation: Optional[ast.expr]
    has_default: bool

    @property
    def type_names(self) -> List[str]:
        """Outermost annotation type names (see :func:`annotation_type_names`)."""
        return annotation_type_names(self.annotation)


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str
    module: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    params: List[ParamInfo]
    class_qualname: Optional[str] = None
    decorators: List[str] = field(default_factory=list)
    returns: Optional[ast.expr] = None

    @property
    def is_method(self) -> bool:
        """Whether this function is defined inside a class body."""
        return self.class_qualname is not None

    @property
    def is_static(self) -> bool:
        """Whether the method is decorated ``@staticmethod``."""
        return "staticmethod" in self.decorators

    def callable_params(self) -> List[ParamInfo]:
        """Parameters as seen by a caller (``self``/``cls`` stripped)."""
        params = self.params
        if self.is_method and not self.is_static and params:
            if params[0].name in ("self", "cls"):
                params = params[1:]
        return list(params)


@dataclass
class ClassInfo:
    """One class definition: methods, annotated fields, dataclass-ness."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    fields: Dict[str, Optional[ast.expr]] = field(default_factory=dict)
    is_dataclass: bool = False
    is_frozen: bool = False

    def constructor_params(self) -> List[ParamInfo]:
        """Caller-visible constructor parameters.

        An explicit ``__init__`` wins; otherwise a dataclass synthesises one
        parameter per annotated field, in declaration order.
        """
        init = self.methods.get("__init__")
        if init is not None:
            return init.callable_params()
        if self.is_dataclass:
            return [
                ParamInfo(name=name, annotation=annotation, has_default=True)
                for name, annotation in self.fields.items()
            ]
        return []


@dataclass
class ModuleInfo:
    """Everything the index knows about one source module."""

    name: str
    path: str
    package_relpath: str
    tree: ast.Module
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)

    @property
    def is_package(self) -> bool:
        """Whether this module is an ``__init__`` (its name *is* a package)."""
        return self.package_relpath.endswith("__init__.py") or (
            self.package_relpath == "" and self.path.endswith("__init__.py")
        )

    @property
    def package(self) -> str:
        """The package dotted name used as base for level-1 relative imports."""
        if self.is_package:
            return self.name
        head, _, _ = self.name.rpartition(".")
        return head


class ProjectIndex:
    """Cross-module symbol table plus lazily cached derived analyses."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._cache: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, entries: Sequence[Tuple[str, str, ast.Module]]
    ) -> "ProjectIndex":
        """Index a batch of parsed files: ``(display_path, relpath, tree)``."""
        index = cls()
        for display_path, package_relpath, tree in entries:
            name = module_name_for(package_relpath, display_path)
            module = ModuleInfo(
                name=name,
                path=display_path,
                package_relpath=package_relpath,
                tree=tree,
            )
            index.modules[name] = module
            index._collect_imports(module)
            index._collect_definitions(module)
        return index

    def _collect_imports(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    module.imports.setdefault(bound, target)
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(module, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    target = f"{base}.{alias.name}" if base else alias.name
                    module.imports.setdefault(bound, target)

    @staticmethod
    def _import_base(
        module: ModuleInfo, node: ast.ImportFrom
    ) -> Optional[str]:
        if node.level == 0:
            return node.module or ""
        parts = module.package.split(".") if module.package else []
        ascend = node.level - 1
        if ascend > len(parts):
            return None
        if ascend:
            parts = parts[:-ascend]
        if node.module:
            parts.extend(node.module.split("."))
        return ".".join(parts)

    def _collect_definitions(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._function_info(module, node, class_qualname=None)
                module.functions[node.name] = info
                self.functions[info.qualname] = info
            elif isinstance(node, ast.ClassDef):
                info_cls = self._class_info(module, node)
                module.classes[node.name] = info_cls
                self.classes[info_cls.qualname] = info_cls

    def _class_info(self, module: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
        qualname = f"{module.name}.{node.name}"
        decorators = [
            dotted_name(d.func if isinstance(d, ast.Call) else d) or ""
            for d in node.decorator_list
        ]
        frozen = any(
            isinstance(d, ast.Call)
            and (dotted_name(d.func) or "") in _DATACLASS_DECORATORS
            and any(
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in d.keywords
            )
            for d in node.decorator_list
        )
        info = ClassInfo(
            qualname=qualname,
            module=module.name,
            name=node.name,
            node=node,
            is_dataclass=bool(
                set(decorators) & _DATACLASS_DECORATORS
            ),
            is_frozen=frozen,
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = self._function_info(
                    module, item, class_qualname=qualname
                )
                info.methods[item.name] = method
                self.functions[method.qualname] = method
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                if item.target.id != "__all__":
                    info.fields[item.target.id] = item.annotation
        return info

    @staticmethod
    def _function_info(
        module: ModuleInfo,
        node: ast.AST,
        class_qualname: Optional[str],
    ) -> FunctionInfo:
        arguments = node.args
        positional = list(arguments.posonlyargs) + list(arguments.args)
        defaults = list(arguments.defaults)
        n_without_default = len(positional) - len(defaults)
        params = [
            ParamInfo(
                name=arg.arg,
                annotation=arg.annotation,
                has_default=index >= n_without_default,
            )
            for index, arg in enumerate(positional)
        ]
        for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
            params.append(
                ParamInfo(
                    name=arg.arg,
                    annotation=arg.annotation,
                    has_default=default is not None,
                )
            )
        owner = class_qualname if class_qualname else module.name
        decorators = [
            dotted_name(d.func if isinstance(d, ast.Call) else d) or ""
            for d in node.decorator_list
        ]
        return FunctionInfo(
            qualname=f"{owner}.{node.name}",
            module=module.name,
            name=node.name,
            node=node,
            params=params,
            class_qualname=class_qualname,
            decorators=decorators,
            returns=node.returns,
        )

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve_name(
        self, module_name: str, dotted: str
    ) -> Optional[Tuple[str, str]]:
        """Resolve ``dotted`` as written in ``module_name``.

        Returns ``(kind, qualname)`` with kind ``"function"``, ``"class"``
        or ``"module"``, chasing import aliases and ``__init__`` re-exports;
        ``None`` when the reference leaves the project (numpy, stdlib, …).
        """
        module = self.modules.get(module_name)
        if module is None:
            return None
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        if head in module.imports:
            target = ".".join([module.imports[head]] + rest)
        elif head in module.functions or head in module.classes:
            target = f"{module_name}.{dotted}"
        else:
            target = dotted
        return self._canonicalize(target)

    def _canonicalize(self, target: str) -> Optional[Tuple[str, str]]:
        for _ in range(_MAX_RESOLVE_HOPS):
            if target in self.functions:
                return ("function", target)
            if target in self.classes:
                return ("class", target)
            if target in self.modules:
                return ("module", target)
            prefix = self._longest_module_prefix(target)
            if prefix is None:
                return None
            module = self.modules[prefix]
            remainder = target[len(prefix) + 1 :].split(".")
            head = remainder[0]
            if head in module.functions or head in module.classes:
                candidate = f"{prefix}.{'.'.join(remainder)}"
                if candidate in self.functions:
                    return ("function", candidate)
                if candidate in self.classes:
                    return ("class", candidate)
                return None
            if head in module.imports:
                target = ".".join([module.imports[head]] + remainder[1:])
                continue
            return None
        return None

    def _longest_module_prefix(self, target: str) -> Optional[str]:
        parts = target.split(".")
        for end in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:end])
            if prefix in self.modules:
                return prefix
        return None

    def resolve_call(
        self,
        module_name: str,
        call: ast.Call,
        local_types: Optional[Dict[str, str]] = None,
    ) -> Optional[Tuple[str, str]]:
        """Resolve a call site to ``("function"|"class", qualname)``.

        ``local_types`` maps receiver prefixes (``"self"``, a local bound to
        a project-class instance, or ``"self.<field>"``) to class qualnames
        so that method calls resolve too.
        """
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        if local_types:
            for prefix_len in range(dotted.count(".") + 1, 0, -1):
                parts = dotted.split(".")
                if prefix_len >= len(parts):
                    continue
                prefix = ".".join(parts[:prefix_len])
                if prefix in local_types:
                    cls = self.classes.get(local_types[prefix])
                    rest = parts[prefix_len:]
                    if cls is None or len(rest) != 1:
                        continue
                    method = cls.methods.get(rest[0])
                    if method is not None:
                        return ("function", method.qualname)
        resolved = self.resolve_name(module_name, dotted)
        if resolved is None or resolved[0] == "module":
            return None
        return resolved

    def constructor_params(self, class_qualname: str) -> List[ParamInfo]:
        """Caller-visible parameters of ``class_qualname``'s constructor."""
        cls = self.classes.get(class_qualname)
        return cls.constructor_params() if cls is not None else []

    def local_class_types(self, func: FunctionInfo) -> Dict[str, str]:
        """Map receiver prefixes inside ``func`` to project class qualnames.

        Covers ``self`` (and ``self.<field>`` for annotated fields of the
        enclosing class), parameters whose annotation names a project class,
        and locals assigned directly from a project-class constructor.
        """
        types: Dict[str, str] = {}
        module = self.modules.get(func.module)
        if module is None:
            return types
        if func.is_method and not func.is_static and func.class_qualname:
            receiver = func.params[0].name if func.params else "self"
            types[receiver] = func.class_qualname
            cls = self.classes.get(func.class_qualname)
            if cls is not None:
                for field_name, annotation in cls.fields.items():
                    resolved = self._resolve_first_class(
                        module.name, annotation_type_names(annotation)
                    )
                    if resolved:
                        types[f"{receiver}.{field_name}"] = resolved
        for param in func.params:
            resolved = self._resolve_first_class(
                module.name, param.type_names
            )
            if resolved:
                types.setdefault(param.name, resolved)
        for node in self._walk_body(func.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                resolved_call = self.resolve_call(module.name, node.value)
                if resolved_call and resolved_call[0] == "class":
                    types.setdefault(node.targets[0].id, resolved_call[1])
        return types

    def _resolve_first_class(
        self, module_name: str, type_names: List[str]
    ) -> Optional[str]:
        for type_name in type_names:
            resolved = self.resolve_name(module_name, type_name)
            if resolved and resolved[0] == "class":
                return resolved[1]
        return None

    @staticmethod
    def _walk_body(func_node: ast.AST) -> Iterator[ast.AST]:
        """Walk a function body without crossing into nested definitions."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(func_node))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    # ------------------------------------------------------------------
    # cached derived analyses (computed on first use)
    # ------------------------------------------------------------------
    def cached(self, key: str, build: Callable[["ProjectIndex"], _T]) -> _T:
        """``build(self)``, computed on first use and cached under ``key``."""
        if key not in self._cache:
            self._cache[key] = build(self)
        return self._cache[key]  # type: ignore[return-value]

    def call_graph(self):  # noqa: ANN201 - forward ref avoids import cycle
        """The project call graph (:class:`~.callgraph.CallGraph`), cached."""
        from .callgraph import CallGraph

        return self.cached("call_graph", CallGraph.build)

    def units(self):  # noqa: ANN201
        """The unit-inference engine (:class:`~.units.UnitInference`), cached."""
        from .units import UnitInference

        return self.cached("units", UnitInference)

    def concurrency(self):  # noqa: ANN201
        """Per-class lock summaries (:class:`~.concurrency.ConcurrencyIndex`), cached."""
        from .concurrency import ConcurrencyIndex

        return self.cached("concurrency", ConcurrencyIndex.build)
