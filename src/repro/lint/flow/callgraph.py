"""Import graph and call graph over the linted file set.

Call resolution is deliberately two-tier:

* **precise edges** — the callee is identified: direct calls to local or
  imported functions, ``ClassName(...)`` instantiations, ``self.method()``
  (including inherited methods), and attribute calls on values whose type
  is known from a parameter annotation or a local ``x = ClassName(...)``
  binding.  The concurrency analysis uses only these, so its worker
  path never rests on a guessed edge.
* **name-match candidates** — ``obj.method(...)`` on an unknown object
  records the attribute name.  Reachability treats any same-named
  function as potentially called, which keeps dead-code findings
  conservative (fewer false "unreachable" reports).

The graph also powers ``repro lint --graph {dot,json}``.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field

from repro.lint.flow.symbols import (
    FunctionInfo,
    ModuleSymbols,
    SymbolTable,
    _annotation_name,
    dotted_name,
)


@dataclass(slots=True)
class CallSite:
    """One call expression inside a function (or module-level code)."""

    node: ast.Call
    #: qualified name of the callee when precisely resolved, else None.
    target: str | None
    #: kind of the resolved target: "function" | "class" | None.
    kind: str | None
    #: attribute or bare name of an unresolved callee (for name-match).
    attr: str | None


@dataclass(slots=True)
class FunctionFlow:
    """Per-function facts shared by the flow analyses."""

    info: FunctionInfo
    calls: list[CallSite] = field(default_factory=list)
    #: dotted names referenced anywhere in the body (Load context heads).
    refs: set[str] = field(default_factory=set)
    #: attribute names read on unknown objects (reachability name-match).
    attr_refs: set[str] = field(default_factory=set)


class _BodyVisitor(ast.NodeVisitor):
    """Collect calls and references from one function body.

    Nested function bodies are folded into the enclosing function (their
    effects happen, at the latest, when the closure is invoked — folding
    over-approximates, which is the safe direction for reachability).  Nested classes are rare and skipped.
    """

    def __init__(self, resolver: "_Resolver") -> None:
        self.resolver = resolver
        self.calls: list[CallSite] = []
        self.refs: set[str] = set()
        self.attr_refs: set[str] = set()

    def visit_Call(self, node: ast.Call) -> None:
        self.calls.append(self.resolver.resolve_call(node))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.refs.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = dotted_name(node)
        if dotted is not None:
            self.refs.add(dotted)
        self.attr_refs.add(node.attr)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.refs.add(node.name)  # do not descend


class _Resolver:
    """Resolve call targets inside one function, with local type hints."""

    def __init__(
        self,
        table: SymbolTable,
        module: ModuleSymbols,
        func: FunctionInfo | None,
    ) -> None:
        self.table = table
        self.module = module
        self.func = func
        self.local_types: dict[str, str] = {}
        if func is not None:
            if func.cls is not None:
                cls_qual = f"{func.module}.{func.cls}"
                self.local_types["self"] = cls_qual
                self.local_types["cls"] = cls_qual
            self._seed_param_types(func)

    def _seed_param_types(self, func: FunctionInfo) -> None:
        args = func.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is None:
                continue
            name = _annotation_name(arg.annotation)
            if name is None:
                continue
            resolved = self.table.resolve(self.module.name, name)
            if resolved and resolved[0] == "class":
                self.local_types[arg.arg] = resolved[1]

    def note_assignment(self, node: ast.Assign | ast.AnnAssign) -> None:
        """Track ``x = ClassName(...)`` / ``x: ClassName`` bindings."""
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        type_qual: str | None = None
        if isinstance(node, ast.AnnAssign) and node.annotation is not None:
            name = _annotation_name(node.annotation)
            if name:
                resolved = self.table.resolve(self.module.name, name)
                if resolved and resolved[0] == "class":
                    type_qual = resolved[1]
        if type_qual is None and node.value is not None and isinstance(node.value, ast.Call):
            ctor = dotted_name(node.value.func)
            if ctor:
                resolved = self._resolve_dotted(ctor)
                if resolved and resolved[0] == "class":
                    type_qual = resolved[1]
        if type_qual is None:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                self.local_types[target.id] = type_qual

    def _resolve_dotted(self, dotted: str) -> tuple[str, str] | None:
        head, _, rest = dotted.partition(".")
        typed = self.local_types.get(head)
        if typed is not None and rest:
            return self._resolve_on_type(typed, rest)
        return self.table.resolve(self.module.name, dotted)

    def _resolve_on_type(self, cls_qual: str, rest: str) -> tuple[str, str] | None:
        """Resolve ``attr[.more]`` against a known class type."""
        first, _, more = rest.partition(".")
        cls = self.table.classes.get(cls_qual)
        if cls is None:
            return None
        if not more:
            method = self.table.find_method(cls_qual, first)
            if method is not None:
                return ("function", method)
            return None
        attr_type = cls.attr_types.get(first)
        if attr_type is None:
            return None
        resolved = self.table.resolve(cls.module, attr_type)
        if resolved and resolved[0] == "class":
            return self._resolve_on_type(resolved[1], more)
        return None

    def resolve_call(self, node: ast.Call) -> CallSite:
        dotted = dotted_name(node.func)
        if dotted is None:
            attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
            return CallSite(node=node, target=None, kind=None, attr=attr)
        resolved = self._resolve_dotted(dotted)
        if resolved is None:
            return CallSite(
                node=node, target=None, kind=None,
                attr=dotted.rsplit(".", 1)[-1],
            )
        kind, qual = resolved
        if kind == "module":
            return CallSite(node=node, target=None, kind=None, attr=None)
        return CallSite(node=node, target=qual, kind=kind, attr=None)


def _analyze_body(
    table: SymbolTable,
    module: ModuleSymbols,
    func: FunctionInfo | None,
    body: list[ast.stmt],
) -> FunctionFlow:
    resolver = _Resolver(table, module, func)
    visitor = _BodyVisitor(resolver)
    for stmt in body:
        # Assignment-driven type hints must land before calls later in
        # the body resolve, so walk statement by statement.
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            resolver.note_assignment(stmt)
        visitor.visit(stmt)
    info = func if func is not None else _module_pseudo_function(module)
    return FunctionFlow(
        info=info,
        calls=visitor.calls,
        refs=visitor.refs,
        attr_refs=visitor.attr_refs,
    )


# A stable placeholder node for module-level pseudo-functions.
_EMPTY_DEF: ast.FunctionDef = ast.parse(
    "def __module__() -> None: ..."
).body[0]  # type: ignore[assignment]


def _module_pseudo_function(module: ModuleSymbols) -> FunctionInfo:
    return FunctionInfo(
        qualname=f"{module.name}.<module>",
        module=module.name,
        name="<module>",
        cls=None,
        node=_EMPTY_DEF,
        lineno=1,
    )


@dataclass(slots=True)
class CallGraph:
    """Whole-program call and import graphs."""

    #: caller qualname → precisely-resolved callee qualnames.
    edges: dict[str, set[str]] = field(default_factory=dict)
    #: module → imported in-program modules (runtime edges).
    module_edges: dict[str, set[str]] = field(default_factory=dict)
    #: per-caller flow facts (calls, refs).
    flows: dict[str, FunctionFlow] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # exports (repro lint --graph)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "modules": {
                module: sorted(targets)
                for module, targets in sorted(self.module_edges.items())
            },
            "calls": [
                {"caller": caller, "callee": callee}
                for caller in sorted(self.edges)
                for callee in sorted(self.edges[caller])
            ],
        }
        return json.dumps(payload, indent=2)

    def to_dot(self) -> str:
        lines = ["digraph repro_calls {", "  rankdir=LR;"]
        for caller in sorted(self.edges):
            for callee in sorted(self.edges[caller]):
                lines.append(f'  "{caller}" -> "{callee}";')
        lines.append("}")
        return "\n".join(lines)


def build_call_graph(table: SymbolTable) -> CallGraph:
    """Analyse every function body and module-level statement list."""
    graph = CallGraph()
    for mod_name in sorted(table.modules):
        module = table.modules[mod_name]
        bodies: list[tuple[FunctionInfo | None, list[ast.stmt]]] = [
            (None, module.toplevel)
        ]
        for qual in sorted(module.functions):
            func = module.functions[qual]
            bodies.append((func, list(func.node.body)))
        for func, body in bodies:
            flow = _analyze_body(table, module, func, body)
            graph.flows[flow.info.qualname] = flow
            targets: set[str] = set()
            for site in flow.calls:
                if site.target is None:
                    continue
                if site.kind == "class":
                    for method in ("__init__", "__post_init__"):
                        init = table.find_method(site.target, method)
                        if init is not None:
                            targets.add(init)
                    targets.add(site.target)
                else:
                    targets.add(site.target)
            graph.edges[flow.info.qualname] = targets
        graph.module_edges[mod_name] = {
            target for target in module.imported_modules
            if target in table.modules and target != mod_name
        }
    return graph
