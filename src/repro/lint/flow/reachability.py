"""Reachability rules (DC) — code no entry point can reach.

Roots are the program's real entry points: package ``__init__`` modules
and their ``__all__`` exports (the public API), ``repro.cli`` and
``repro.__main__`` (the command line), and every ``ReproError`` subclass
(catchable API even when never raised by the library itself).  Symbols
whose decorator resolves to an in-program function are also rooted — the
decorator registries (rules, fusion strategies, adapters) call them even
though no explicit call edge exists.

From the roots a worklist follows both tiers of the call graph: precise
edges, plus *name-match candidates* — an ``obj.method(...)`` call on an
object the resolver cannot type keeps every same-named function alive.
That asymmetry is deliberate: a dead-code report must survive the
weakest link in resolution, so reachability over-approximates liveness
and DC findings stay conservative.

* DC001 — a function or method no root can reach.
* DC002 — a class no root can reach (one finding; its methods are not
  also flagged, to avoid a cascade).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding, Severity
from repro.lint.flow.program import Program
from repro.lint.flow.symbols import ClassInfo, ModuleSymbols
from repro.lint.registry import FlowRule, register_rule
from repro.lint.rules.common import dotted_name

#: module basenames always treated as entry points when present.
_ENTRY_MODULES = ("repro.cli", "repro.__main__")


def _root_modules(program: Program) -> list[str]:
    roots = [
        name for name in sorted(program.modules)
        if program.modules[name].is_package
    ]
    roots.extend(
        name for name in _ENTRY_MODULES if name in program.modules
    )
    return roots


class _Reachability:
    """Worklist state for one liveness computation."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.table = program.symtab
        self.reachable: set[str] = set()
        self.reachable_modules: set[str] = set()
        self._pending: list[str] = []
        # bare name → function/class qualnames, for name-match liveness.
        self._by_name: dict[str, list[str]] = {}
        for qual in sorted(self.table.functions):
            func = self.table.functions[qual]
            self._by_name.setdefault(func.name, []).append(qual)
        for qual in sorted(self.table.classes):
            cls = self.table.classes[qual]
            self._by_name.setdefault(cls.name, []).append(qual)

    # ------------------------------------------------------------------
    # marking
    # ------------------------------------------------------------------
    def mark(self, qual: str) -> None:
        if qual in self.reachable:
            return
        self.reachable.add(qual)
        self._pending.append(qual)

    def mark_module(self, name: str) -> None:
        if name in self.reachable_modules:
            return
        self.reachable_modules.add(name)
        # Importing a module runs its top-level statements ...
        self.mark(f"{name}.<module>")
        # ... and transitively imports its dependencies.
        for target in sorted(
            self.program.callgraph.module_edges.get(name, ())
        ):
            self.mark_module(target)

    def mark_class(self, qual: str) -> None:
        if qual in self.reachable:
            return
        self.mark(qual)
        cls = self.table.classes.get(qual)
        if cls is None:
            return
        # Dunders run implicitly (construction, context managers,
        # comparisons, dataclass __post_init__ ...).
        for name in sorted(cls.methods):
            if name.startswith("__") and name.endswith("__"):
                self.mark(cls.methods[name])
        # Subclassing references the bases; the class statement itself is
        # not part of any analysed body, so mark them here.
        for ancestor in sorted(self.table.ancestors(qual)):
            self.mark_class(ancestor)
        # A class with an external base (ast.NodeVisitor, Enum, ...) hands
        # its methods to a framework that dispatches by its own protocol;
        # the analysis cannot see those calls, so keep the methods alive.
        if self._has_external_base(cls):
            for name in sorted(cls.methods):
                self.mark_function(cls.methods[name])
        # Class-level attribute defaults (dataclass fields and the like)
        # evaluate at class-creation time.
        for stmt in cls.node.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                self._mark_expression_refs(cls.module, stmt)

    def mark_function(self, qual: str) -> None:
        self.mark(qual)
        func = self.table.functions.get(qual)
        if func is None or func.cls is None:
            return
        # A call that statically binds to Base.m may dispatch to any
        # override at runtime; keep them alive.
        base_qual = f"{func.module}.{func.cls}"
        for cls_qual in sorted(self.table.classes):
            if cls_qual == base_qual:
                continue
            if not self.table.is_subclass(cls_qual, base_qual):
                continue
            override = self.table.classes[cls_qual].methods.get(func.name)
            if override is not None:
                self.mark(override)

    def mark_symbol(self, kind: str, qual: str) -> None:
        if kind == "function":
            self.mark_function(qual)
        elif kind == "class":
            self.mark_class(qual)
        elif kind == "module":
            self.mark_module(qual)

    def mark_class_api(self, qual: str) -> None:
        """Root a class *as public API*: exporting a class publishes its
        public methods, not just its constructor."""
        self.mark_class(qual)
        cls = self.table.classes.get(qual)
        if cls is None:
            return
        for name in sorted(cls.methods):
            if not name.startswith("_"):
                self.mark_function(cls.methods[name])

    def mark_name_matches(self, name: str) -> None:
        for qual in self._by_name.get(name, ()):
            if qual in self.table.functions:
                self.mark_function(qual)
            else:
                self.mark_class(qual)

    def _has_external_base(self, cls: "ClassInfo") -> bool:
        for base in cls.bases:
            if base == "object":
                continue
            resolved = self.table.resolve(cls.module, base)
            if resolved is None or resolved[0] != "class":
                return True
        return False

    def _mark_expression_refs(self, module_name: str, node: ast.AST) -> None:
        """Mark anything a loose expression tree resolvably references."""
        for sub in ast.walk(node):
            dotted = dotted_name(sub) if isinstance(
                sub, (ast.Name, ast.Attribute)
            ) else None
            if dotted is None:
                continue
            resolved = self.table.resolve(module_name, dotted)
            if resolved is not None:
                self.mark_symbol(*resolved)

    def _mark_signature(self, qual: str) -> None:
        """Annotations and default values evaluate at def time and keep
        the classes/functions they name alive."""
        func = self.table.functions.get(qual)
        if func is None:
            return
        args = func.node.args
        for node in [
            *args.defaults,
            *[d for d in args.kw_defaults if d is not None],
            *[a.annotation for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs
            ) if a.annotation is not None],
            *([func.node.returns] if func.node.returns is not None else []),
        ]:
            self._mark_expression_refs(func.module, node)

    # ------------------------------------------------------------------
    # worklist
    # ------------------------------------------------------------------
    def run(self) -> None:
        self._seed()
        while self._pending:
            qual = self._pending.pop()
            self._process(qual)

    def _seed(self) -> None:
        program = self.program
        for mod_name in _root_modules(program):
            module = program.modules[mod_name]
            self.mark_module(mod_name)
            for export in module.exports:
                resolved = self.table.resolve(mod_name, export)
                if resolved is None:
                    resolved = self.table.resolve_qualified(
                        f"{mod_name}.{export}"
                    )
                if resolved is None:
                    continue
                if resolved[0] == "class":
                    self.mark_class_api(resolved[1])
                else:
                    self.mark_symbol(*resolved)
            if mod_name in _ENTRY_MODULES:
                # Everything defined at the top level of an entry module
                # is invocable from the command line.
                for qual in sorted(module.functions):
                    self.mark_function(qual)
                for qual in sorted(module.classes):
                    self.mark_class_api(qual)
        # The exception contract is public API: callers catch these even
        # if no in-program code raises them yet.
        for qual in sorted(program.repro_errors):
            self.mark_class_api(qual)
        # Decorator registries: @register_x(f) calls f later.
        self._seed_decorated()

    def _seed_decorated(self) -> None:
        for mod_name in sorted(self.program.modules):
            module = self.program.modules[mod_name]
            for qual in sorted(module.functions):
                func = module.functions[qual]
                if self._has_program_decorator(module, func.decorators):
                    self.mark_function(qual)
            for qual in sorted(module.classes):
                cls = module.classes[qual]
                if self._has_program_decorator(module, cls.decorators):
                    self.mark_class(qual)

    def _has_program_decorator(
        self, module: ModuleSymbols, decorators: tuple[str, ...]
    ) -> bool:
        for dec in decorators:
            if dec in {"property", "staticmethod", "classmethod"}:
                continue
            resolved = self.table.resolve(module.name, dec)
            if resolved is not None and resolved[0] == "function":
                self.mark_function(resolved[1])
                return True
        return False

    def _process(self, qual: str) -> None:
        self._mark_signature(qual)
        flow = self.program.callgraph.flows.get(qual)
        if flow is None:
            return
        module = self.program.modules.get(flow.info.module)
        if module is None:
            return
        for site in flow.calls:
            if site.target is not None and site.kind is not None:
                self.mark_symbol(site.kind, site.target)
            elif site.attr is not None:
                self.mark_name_matches(site.attr)
        for ref in sorted(flow.refs):
            resolved = self.table.resolve(module.name, ref)
            if resolved is not None:
                self.mark_symbol(*resolved)
        for attr in sorted(flow.attr_refs):
            self.mark_name_matches(attr)


def compute_reachable(program: Program) -> tuple[set[str], set[str]]:
    """Liveness over the whole program.

    Returns ``(reachable_symbols, reachable_modules)`` where symbols are
    function/class qualnames (plus ``<module>`` pseudo-functions).  The
    result is memoised on ``program`` — DC001 and DC002 share it.
    """
    cached = program.analysis_cache.get("reachable")
    if cached is not None:
        return cached  # type: ignore[return-value]
    state = _Reachability(program)
    state.run()
    result = (state.reachable, state.reachable_modules)
    program.analysis_cache["reachable"] = result
    return result


def _has_roots(program: Program) -> bool:
    """Whether the file set contains any entry point at all.

    Linting a single loose module gives the analysis no roots; flagging
    everything dead would be noise, so the DC rules stand down.
    """
    return bool(_root_modules(program))


@register_rule
class DeadFunctionRule(FlowRule):
    """DC001 — functions no entry point can reach."""

    rule_id = "DC001"
    family = "reachability"
    severity = Severity.WARNING
    description = (
        "no entry point (CLI, package exports, registries, error "
        "contract) reaches this function, even through conservative "
        "name-matching; delete it or export it"
    )

    def check_program(self, program: Program) -> Iterable[Finding]:
        if not _has_roots(program):
            return
        reachable, _ = compute_reachable(program)
        for mod_name in sorted(program.modules):
            module = program.modules[mod_name]
            for qual in sorted(module.functions):
                func = module.functions[qual]
                if qual in reachable or func.is_dunder:
                    continue
                if func.cls is not None:
                    cls_qual = f"{mod_name}.{func.cls}"
                    if cls_qual not in reachable:
                        continue  # DC002 reports the whole class once
                kind = "method" if func.cls is not None else "function"
                yield self.program_finding(
                    module.module.display_path, func.lineno,
                    f"{kind} {func.name}() is unreachable from every "
                    f"entry point",
                )


@register_rule
class DeadClassRule(FlowRule):
    """DC002 — classes no entry point can reach."""

    rule_id = "DC002"
    family = "reachability"
    severity = Severity.WARNING
    description = (
        "no entry point reaches this class (never instantiated, "
        "subclassed, exported, or referenced); delete it or export it"
    )

    def check_program(self, program: Program) -> Iterable[Finding]:
        if not _has_roots(program):
            return
        reachable, _ = compute_reachable(program)
        for mod_name in sorted(program.modules):
            module = program.modules[mod_name]
            for qual in sorted(module.classes):
                if qual in reachable:
                    continue
                cls = module.classes[qual]
                yield self.program_finding(
                    module.module.display_path, cls.lineno,
                    f"class {cls.name} is unreachable from every entry "
                    f"point",
                )
