"""Project-wide symbol table for the whole-program flow analyses.

The per-file rules see one module at a time; the flow rules
(reachability, concurrency) need to resolve a name written in one
module to the function or class *defined* in another.  This module builds
that view: every function, method and class in the linted file set,
indexed by fully-qualified name (``repro.core.pipeline.MultiRAG.query``),
together with each module's import bindings and ``__all__`` exports.

Like the rest of ``repro.lint`` it is pure stdlib ``ast`` — no imports,
no execution of the code under analysis.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.registry import ModuleUnderLint
from repro.lint.rules.common import ImportMap, collect_imports, dotted_name


@dataclass(slots=True)
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    name: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    lineno: int
    decorators: tuple[str, ...] = ()

    @property
    def is_dunder(self) -> bool:
        return self.name.startswith("__") and self.name.endswith("__")


@dataclass(slots=True)
class ClassInfo:
    """One class definition with its base names and method index."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    lineno: int
    bases: tuple[str, ...] = ()
    methods: dict[str, str] = field(default_factory=dict)
    decorators: tuple[str, ...] = ()
    #: attribute name → dotted type name, from class-level ``x: T``
    #: annotations and ``self.x = T(...)`` assignments in methods.
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass(slots=True)
class ModuleSymbols:
    """Everything the flow analyses need to know about one module."""

    name: str
    module: ModuleUnderLint
    is_package: bool
    imports: ImportMap
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    exports: tuple[str, ...] = ()
    #: dotted module targets of every import statement (absolute spelling).
    imported_modules: tuple[str, ...] = ()
    #: module-level statements, minus function/class bodies (executed at
    #: import time: registrations, table construction, __all__).
    toplevel: list[ast.stmt] = field(default_factory=list)


#: resolution results: ("function" | "class" | "module", qualified name)
Symbol = tuple[str, str]


def module_name_of(module: ModuleUnderLint) -> str:
    """Dotted module name; packages drop the ``__init__`` suffix."""
    parts = module.package_parts
    if not parts:
        return ""
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef) -> tuple[str, ...]:
    names = []
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        dotted = dotted_name(target)
        if dotted:
            names.append(dotted)
    return tuple(names)


def _collect_exports(tree: ast.Module) -> tuple[str, ...]:
    """Names listed in a module-level ``__all__`` assignment."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return tuple(
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return ()


def imported_module_targets(tree: ast.Module) -> tuple[str, ...]:
    """Absolute dotted targets of every import statement in ``tree``.

    Function-level imports count too — they are runtime dependency edges
    (the import executes when the function runs), which is exactly what
    the flow cache's transitive invalidation needs to honour.
    """
    targets: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                targets.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            targets.add(node.module)
            for alias in node.names:
                # ``from repro.lint.rules import determinism`` imports a
                # submodule; record the candidate and let the import-graph
                # builder keep whichever names actually are modules.
                targets.add(f"{node.module}.{alias.name}")
    return tuple(sorted(targets))


def _collect_attr_types(cls: ClassInfo, resolve_local: dict[str, str]) -> None:
    """Fill ``cls.attr_types`` from annotations and ``self.x = T()``."""
    for stmt in cls.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotated = _annotation_name(stmt.annotation)
            if annotated:
                cls.attr_types.setdefault(stmt.target.id, annotated)
    for node in ast.walk(cls.node):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        ctor = dotted_name(node.value.func)
        if ctor is None:
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                cls.attr_types.setdefault(target.attr, ctor)
    # Resolve bare local class names now so later lookups are uniform.
    for attr in sorted(cls.attr_types):
        cls.attr_types[attr] = resolve_local.get(
            cls.attr_types[attr], cls.attr_types[attr]
        )


def _annotation_name(node: ast.expr) -> str | None:
    """Dotted name of a simple annotation; unwraps ``X | None``/``Optional``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_name(node.left)
        if left and left != "None":
            return left
        return _annotation_name(node.right)
    if isinstance(node, ast.Subscript):
        head = dotted_name(node.value)
        if head in {"Optional", "typing.Optional"}:
            return _annotation_name(node.slice)
        return None
    dotted = dotted_name(node)
    return None if dotted in {"None"} else dotted


class SymbolTable:
    """Global function/class/module index over a set of parsed modules."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleSymbols] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._ancestor_cache: dict[str, frozenset[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_module(self, module: ModuleUnderLint) -> ModuleSymbols | None:
        """Index one parsed module; returns None for files outside a
        ``repro`` package tree (the flow rules have nothing to say there)."""
        name = module_name_of(module)
        if not name:
            return None
        info = ModuleSymbols(
            name=name,
            module=module,
            is_package=module.package_parts[-1] == "__init__",
            imports=collect_imports(module.tree),
            exports=_collect_exports(module.tree),
            imported_modules=imported_module_targets(module.tree),
        )
        local_classes: dict[str, str] = {}
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(
                    qualname=f"{name}.{stmt.name}",
                    module=name,
                    name=stmt.name,
                    cls=None,
                    node=stmt,
                    lineno=stmt.lineno,
                    decorators=_decorator_names(stmt),
                )
                info.functions[fn.qualname] = fn
            elif isinstance(stmt, ast.ClassDef):
                cls = ClassInfo(
                    qualname=f"{name}.{stmt.name}",
                    module=name,
                    name=stmt.name,
                    node=stmt,
                    lineno=stmt.lineno,
                    bases=tuple(
                        b for b in (dotted_name(base) for base in stmt.bases)
                        if b is not None
                    ),
                    decorators=_decorator_names(stmt),
                )
                info.classes[cls.qualname] = cls
                local_classes[cls.name] = cls.qualname
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn = FunctionInfo(
                            qualname=f"{cls.qualname}.{sub.name}",
                            module=name,
                            name=sub.name,
                            cls=cls.name,
                            node=sub,
                            lineno=sub.lineno,
                            decorators=_decorator_names(sub),
                        )
                        info.functions[fn.qualname] = fn
                        cls.methods[sub.name] = fn.qualname
            else:
                info.toplevel.append(stmt)
        for cls in info.classes.values():
            _collect_attr_types(cls, local_classes)
        self.modules[name] = info
        self.functions.update(info.functions)
        self.classes.update(info.classes)
        return info

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def resolve(self, module: str, dotted: str) -> Symbol | None:
        """Resolve ``dotted`` as written inside ``module`` to a symbol.

        Handles local definitions, ``import``/``from-import`` bindings,
        re-exports through package ``__init__`` modules, and
        ``Class.method`` attribute chains.  Returns None for anything
        outside the analysed file set (stdlib, third-party, locals).
        """
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = dotted.partition(".")
        local_fn = f"{module}.{head}"
        if local_fn in info.functions and not rest:
            return ("function", local_fn)
        if local_fn in info.classes:
            return self._into_class(local_fn, rest)
        if head in info.imports.members:
            src_mod, orig = info.imports.members[head]
            target = f"{src_mod}.{orig}" + (f".{rest}" if rest else "")
            return self.resolve_qualified(target)
        if head in info.imports.modules:
            target = info.imports.modules[head] + (f".{rest}" if rest else "")
            return self.resolve_qualified(target)
        return None

    def resolve_qualified(
        self, dotted: str, _depth: int = 0
    ) -> Symbol | None:
        """Resolve an absolute dotted path against the file set."""
        if _depth > 8:
            return None
        # Longest known module prefix wins (``repro.confidence.mcc`` the
        # module vs ``repro.confidence.mcc`` the re-exported function).
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            info = self.modules.get(prefix)
            if info is None:
                continue
            rest = parts[cut:]
            if not rest:
                return ("module", prefix)
            symbol = f"{prefix}.{rest[0]}"
            if symbol in info.functions and len(rest) == 1:
                return ("function", symbol)
            if symbol in info.classes:
                return self._into_class(symbol, ".".join(rest[1:]))
            if rest[0] in info.imports.members:
                src_mod, orig = info.imports.members[rest[0]]
                chased = f"{src_mod}.{orig}"
                if rest[1:]:
                    chased += "." + ".".join(rest[1:])
                return self.resolve_qualified(chased, _depth + 1)
            if rest[0] in info.imports.modules:
                chased = info.imports.modules[rest[0]]
                if rest[1:]:
                    chased += "." + ".".join(rest[1:])
                return self.resolve_qualified(chased, _depth + 1)
            return None
        return None

    def _into_class(self, cls_qual: str, rest: str) -> Symbol | None:
        if not rest:
            return ("class", cls_qual)
        method = self.find_method(cls_qual, rest)
        if method is not None:
            return ("function", method)
        return None

    def find_method(self, cls_qual: str, name: str) -> str | None:
        """Locate ``name`` on ``cls_qual`` or its resolvable base classes."""
        seen: set[str] = set()
        stack = [cls_qual]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name]
            for base in cls.bases:
                resolved = self.resolve(cls.module, base)
                if resolved and resolved[0] == "class":
                    stack.append(resolved[1])
        return None

    # ------------------------------------------------------------------
    # class hierarchy
    # ------------------------------------------------------------------
    def ancestors(self, cls_qual: str) -> frozenset[str]:
        """Qualified names of every resolvable ancestor of ``cls_qual``."""
        cached = self._ancestor_cache.get(cls_qual)
        if cached is not None:
            return cached
        self._ancestor_cache[cls_qual] = frozenset()  # cycle guard
        out: set[str] = set()
        cls = self.classes.get(cls_qual)
        if cls is not None:
            for base in cls.bases:
                resolved = self.resolve(cls.module, base)
                if resolved and resolved[0] == "class":
                    out.add(resolved[1])
                    out.update(self.ancestors(resolved[1]))
        result = frozenset(out)
        self._ancestor_cache[cls_qual] = result
        return result

    def is_subclass(self, cls_qual: str, base_qual: str) -> bool:
        return cls_qual == base_qual or base_qual in self.ancestors(cls_qual)


def build_symbol_table(modules: list[ModuleUnderLint]) -> SymbolTable:
    """Index every module of the file set (non-``repro`` files skipped)."""
    table = SymbolTable()
    for module in modules:
        table.add_module(module)
    return table
