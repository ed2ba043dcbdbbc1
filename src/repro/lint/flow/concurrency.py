"""Shared-state escape analysis over the worker_view split/absorb protocol.

The exec engine (``repro.exec``) fans ``MultiRAG.run`` out over worker
threads that share one ingested pipeline.  Each worker task runs against
a :meth:`worker_view` — a shallow clone that shares the immutable
substrate by reference and rebinds everything mutable (observability,
LLM meter, scorer).  The determinism contract (parallel ≡ sequential,
byte for byte) holds exactly when worker-executed code never *writes*
an object reachable from another worker.

This module computes the facts the concurrency rules (CONC, see
:mod:`repro.lint.rules.concurrency`) consume:

* :func:`compute_run_reachable` — every function qualname reachable from
  ``MultiRAG.run`` over precise call edges (the worker-executed set);
* :func:`view_protocols` / :func:`covered_attrs` — the split/absorb
  protocol recovered statically from ``worker_view()``: which pipeline
  attributes a view *shares* with the parent by reference and which it
  rebinds (*splits*);
* :func:`compute_module_state_writes` — writes to module-level mutable
  state (registries, caches, module globals) from worker-reachable code;
* :func:`shared_state_report` — the ``repro lint --graph shared`` JSON
  payload.

Everything is memoised on ``program.analysis_cache`` — the rules run as
independent instances but share one fixpoint per lint invocation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.flow.program import Program
from repro.lint.rules.common import dotted_name

#: the exec engine's dispatch root: everything a worker task executes.
ROOT_CLASS = "repro.core.pipeline.MultiRAG"
ROOT_METHOD = "run"
#: the split/absorb protocol carrier.
VIEW_METHOD = "worker_view"

#: builtins whose call result is a freshly allocated object.
_FRESH_BUILTINS = frozenset({
    "dict", "frozenset", "list", "set", "sorted", "tuple",
    "defaultdict", "Counter", "OrderedDict", "deque",
})

#: builtins/collections constructors that allocate *mutable* containers —
#: a module-level binding to one of these is shared mutable state.
_MUTABLE_BUILTINS = frozenset({
    "dict", "list", "set", "bytearray",
    "defaultdict", "Counter", "OrderedDict", "deque",
})

#: method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "pop", "popitem", "remove", "setdefault",
    "update",
})


def _is_fresh_value(node: ast.expr) -> bool:
    """Whether an assigned value is a newly allocated, task-local object."""
    if isinstance(node, (
        ast.List, ast.Dict, ast.Set, ast.Tuple, ast.Constant,
        ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
        ast.JoinedStr,
    )):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name is None:
            return False
        # Title-case call = constructor by convention; the named
        # builtins allocate fresh containers.
        return name[:1].isupper() or name in _FRESH_BUILTINS
    return False


def _store_base_name(target: ast.expr) -> str | None:
    """Root ``Name`` of an attribute/subscript store chain, else None."""
    node = target
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = node.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


def iter_store_targets(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.expr]:
    """Every store target of the function body (tuple targets flattened)."""

    def flatten(targets: list[ast.expr]) -> Iterator[ast.expr]:
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                yield from flatten(list(target.elts))
            elif isinstance(target, ast.Starred):
                yield target.value
            else:
                yield target

    for sub in ast.walk(node):
        targets: list[ast.expr] = []
        if isinstance(sub, ast.Assign):
            targets = list(sub.targets)
        elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
            targets = [sub.target]
        elif isinstance(sub, ast.Delete):
            targets = list(sub.targets)
        yield from flatten(targets)


# ----------------------------------------------------------------------
# worker-executed reachability
# ----------------------------------------------------------------------
def compute_run_reachable(program: Program) -> set[str]:
    """Function qualnames reachable from ``MultiRAG.run`` over precise
    call edges, including subclass overrides of reached methods.

    Memoised on ``program``; empty when the file set does not contain
    the root (linting a loose subset), in which case the concurrency
    rules stand down.
    """
    cached = program.analysis_cache.get("conc_run_reachable")
    if cached is not None:
        return cached  # type: ignore[return-value]
    table = program.symtab
    root = table.find_method(ROOT_CLASS, ROOT_METHOD)
    reachable: set[str] = set()
    pending = [root] if root is not None else []
    while pending:
        qual = pending.pop()
        if qual is None or qual in reachable:
            continue
        reachable.add(qual)
        func = table.functions.get(qual)
        if func is not None and func.cls is not None:
            # A statically bound call may dispatch to any override.
            base_qual = f"{func.module}.{func.cls}"
            for cls_qual in sorted(table.classes):
                if cls_qual == base_qual:
                    continue
                if not table.is_subclass(cls_qual, base_qual):
                    continue
                override = table.classes[cls_qual].methods.get(func.name)
                if override is not None and override not in reachable:
                    pending.append(override)
        flow = program.callgraph.flows.get(qual)
        if flow is None:
            continue
        for site in flow.calls:
            if (
                site.kind == "function"
                and site.target is not None
                and site.target not in reachable
            ):
                pending.append(site.target)
    program.analysis_cache["conc_run_reachable"] = reachable
    return reachable


# ----------------------------------------------------------------------
# the worker_view split/absorb protocol, recovered statically
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ViewProtocol:
    """The attribute classification one ``worker_view()`` body encodes.

    ``shared`` attributes are bound straight off ``self`` — the view and
    the parent alias one object; a worker-side write races.  ``split``
    attributes are rebound to a call result (``self.obs.split()``,
    a fresh ``NodeScorer(...)``) — each view owns its copy.
    """

    cls_qual: str
    #: attr name → lineno of its ``view.attr = self...`` assignment.
    shared: dict[str, int] = field(default_factory=dict)
    #: attr name → lineno of its ``view.attr = <call>`` assignment.
    split: dict[str, int] = field(default_factory=dict)

    @property
    def covered(self) -> frozenset[str]:
        return frozenset(self.shared) | frozenset(self.split)


def _view_local_name(node: ast.FunctionDef | ast.AsyncFunctionDef) -> str | None:
    """The local the view body builds and returns (``view`` by idiom)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Return) and isinstance(sub.value, ast.Name):
            return sub.value.id
    return None


def _is_self_alias(node: ast.expr) -> bool:
    """Whether an expression reads through ``self`` without calling."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    return isinstance(current, ast.Name) and current.id == "self"


def view_protocols(program: Program) -> dict[str, ViewProtocol]:
    """``worker_view`` protocols per class qualname (root + subclasses).

    Memoised on ``program``; empty when the root class is absent.
    """
    cached = program.analysis_cache.get("conc_view_protocols")
    if cached is not None:
        return cached  # type: ignore[return-value]
    table = program.symtab
    out: dict[str, ViewProtocol] = {}
    for cls_qual in sorted(table.classes):
        if cls_qual != ROOT_CLASS and not table.is_subclass(
            cls_qual, ROOT_CLASS
        ):
            continue
        method_qual = table.classes[cls_qual].methods.get(VIEW_METHOD)
        if method_qual is None:
            continue
        func = table.functions.get(method_qual)
        if func is None:
            continue
        view_name = _view_local_name(func.node)
        if view_name is None:
            continue
        protocol = ViewProtocol(cls_qual=cls_qual)
        for sub in ast.walk(func.node):
            if not isinstance(sub, ast.Assign) or len(sub.targets) != 1:
                continue
            target = sub.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == view_name
            ):
                continue
            if _is_self_alias(sub.value):
                protocol.shared[target.attr] = sub.lineno
            else:
                protocol.split[target.attr] = sub.lineno
        out[cls_qual] = protocol
    program.analysis_cache["conc_view_protocols"] = out
    return out


def covered_attrs(program: Program, cls_qual: str) -> frozenset[str] | None:
    """Attributes ``cls_qual`` covers via its worker_view ancestry.

    A subclass inherits the root's protocol and may extend it with its
    own override.  ``None`` when no class in the ancestry defines a
    ``worker_view`` (nothing to check against).
    """
    protocols = view_protocols(program)
    table = program.symtab
    lineage = [cls_qual, *sorted(table.ancestors(cls_qual))]
    covered: set[str] = set()
    found = False
    for qual in lineage:
        protocol = protocols.get(qual)
        if protocol is not None:
            found = True
            covered.update(protocol.covered)
    return frozenset(covered) if found else None


def shared_attrs(program: Program, cls_qual: str) -> frozenset[str]:
    """Attributes ``cls_qual`` shares by reference across worker views."""
    protocols = view_protocols(program)
    table = program.symtab
    lineage = [cls_qual, *sorted(table.ancestors(cls_qual))]
    shared: set[str] = set()
    for qual in lineage:
        protocol = protocols.get(qual)
        if protocol is not None:
            shared.update(protocol.shared)
    return frozenset(shared)


# ----------------------------------------------------------------------
# module-level mutable state reachable from the worker path
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ModuleStateWrite:
    """One write to module-level mutable state from worker-reachable code."""

    path: str
    lineno: int
    col: int
    #: dotted module holding the mutated binding.
    module: str
    #: the mutated binding ("_CACHE_CLEARERS") or dotted chain.
    name: str
    #: "store" | "global" | "mutator"
    via: str
    #: qualname of the reachable function performing the write.
    func_qual: str


def _module_mutable_bindings(program: Program, module_name: str) -> set[str]:
    """Module-level names bound to mutable containers in ``module_name``."""
    symbols = program.modules.get(module_name)
    if symbols is None:
        return set()
    out: set[str] = set()
    for stmt in symbols.toplevel:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        if value is None:
            continue
        mutable = isinstance(value, (ast.List, ast.Dict, ast.Set,
                                     ast.ListComp, ast.DictComp, ast.SetComp))
        if isinstance(value, ast.Call):
            func = value.func
            callee = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            mutable = callee in _MUTABLE_BUILTINS
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out.add(target.id)
    return out


def _local_bindings(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names the function binds itself (params, assignments, loops)."""
    names = _param_names(node)
    for sub in ast.walk(node):
        if isinstance(sub, (ast.For, ast.AsyncFor)):
            names.update(
                t.id for t in ast.walk(sub.target)
                if isinstance(t, ast.Name)
            )
        elif isinstance(sub, (ast.withitem,)) and sub.optional_vars is not None:
            names.update(
                t.id for t in ast.walk(sub.optional_vars)
                if isinstance(t, ast.Name)
            )
        elif isinstance(sub, ast.NamedExpr) and isinstance(
            sub.target, ast.Name
        ):
            names.add(sub.target.id)
        elif isinstance(sub, ast.comprehension):
            names.update(
                t.id for t in ast.walk(sub.target)
                if isinstance(t, ast.Name)
            )
    for target in iter_store_targets(node):
        if isinstance(target, ast.Name):
            names.add(target.id)
    return names


def compute_module_state_writes(program: Program) -> list[ModuleStateWrite]:
    """Writes to module-level mutable state from run-reachable functions.

    Three shapes are caught: stores through a module-level mutable
    binding (``_REGISTRY[k] = v``), ``global``-declared rebinding, and
    in-place mutator calls (``_CACHE_CLEARERS.append(...)``) — including
    through an imported-module alias (``perf._CACHE_CLEARERS``).
    """
    cached = program.analysis_cache.get("conc_module_state_writes")
    if cached is not None:
        return cached  # type: ignore[return-value]
    table = program.symtab
    out: list[ModuleStateWrite] = []
    bindings_memo: dict[str, set[str]] = {}
    for qual in sorted(compute_run_reachable(program)):
        func = table.functions.get(qual)
        if func is None or func.name == "<module>":
            continue
        symbols = program.modules.get(func.module)
        if symbols is None:
            continue
        if func.module not in bindings_memo:
            bindings_memo[func.module] = _module_mutable_bindings(
                program, func.module
            )
        module_mutable = bindings_memo[func.module]
        module_aliases = symbols.imports.modules
        locals_here = _local_bindings(func.node)
        globals_here = {
            name
            for sub in ast.walk(func.node)
            if isinstance(sub, ast.Global)
            for name in sub.names
        }

        def classify(base: str) -> tuple[str, str] | None:
            """(owning module, display name) when ``base`` is module state."""
            if base in globals_here:
                return func.module, base
            if base in locals_here:
                return None
            if base in module_mutable:
                return func.module, base
            if base in module_aliases:
                return module_aliases[base], base
            return None

        seen: set[tuple[int, int, str]] = set()

        def record(node: ast.expr, via: str, owner: str, name: str) -> None:
            key = (node.lineno, node.col_offset, via)
            if key in seen:
                return
            seen.add(key)
            out.append(ModuleStateWrite(
                path=symbols.module.display_path,
                lineno=node.lineno,
                col=node.col_offset + 1,
                module=owner,
                name=name,
                via=via,
                func_qual=qual,
            ))

        for target in iter_store_targets(func.node):
            if isinstance(target, ast.Name):
                if target.id in globals_here:
                    record(target, "global", func.module, target.id)
                continue
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                base = _store_base_name(target)
                if base is None:
                    continue
                hit = classify(base)
                if hit is not None:
                    owner, _ = hit
                    display = dotted_name(target) or base
                    record(target, "store", owner, display)
        for sub in ast.walk(func.node):
            if not isinstance(sub, ast.Call):
                continue
            if not (
                isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _MUTATOR_METHODS
            ):
                continue
            base = _store_base_name(sub.func.value)
            if base is None or base == "self":
                continue
            hit = classify(base)
            if hit is not None:
                owner, _ = hit
                display = dotted_name(sub.func) or base
                record(sub.func, "mutator", owner, display)
    program.analysis_cache["conc_module_state_writes"] = out
    return out


# ----------------------------------------------------------------------
# --graph shared report
# ----------------------------------------------------------------------
def shared_state_report(program: Program) -> dict[str, object]:
    """The ``repro lint --graph shared`` payload: what the analysis sees.

    Lists the worker_view protocol per class (shared vs split), the
    worker-reachable function set and module-level state writes — the
    inputs every CONC verdict is derived from.
    """
    reachable = compute_run_reachable(program)
    protocols = view_protocols(program)
    return {
        "root": f"{ROOT_CLASS}.{ROOT_METHOD}",
        "root_present": bool(reachable),
        "worker_view": {
            cls_qual: {
                "shared": sorted(protocols[cls_qual].shared),
                "split": sorted(protocols[cls_qual].split),
            }
            for cls_qual in sorted(protocols)
        },
        "run_reachable": sorted(reachable),
        "module_state_writes": [
            {
                "path": w.path,
                "line": w.lineno,
                "module": w.module,
                "name": w.name,
                "via": w.via,
                "function": w.func_qual,
            }
            for w in compute_module_state_writes(program)
        ],
    }
