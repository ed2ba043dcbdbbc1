"""Concurrency-safety rules (CONC) — the static race/escape gate.

Built on the shared-state escape analysis in
:mod:`repro.lint.flow.concurrency`: the worker-executed function set
(everything reachable from ``MultiRAG.run``), the ``worker_view()``
split/absorb protocol and module-level mutable state.

* CONC001 — worker-reachable code mutates an object that may be shared
  across workers (store through ``self``, a parameter, or a local it did
  not construct).  Generalizes and subsumes the retired EXE001 rule.
* CONC002 — worker-reachable pipeline code touches a ``self`` attribute
  the ``worker_view()`` protocol neither shares nor splits: the view
  would be missing it (AttributeError under the pool) or — worse — a
  subclass added state that silently bypasses the split/absorb contract.
* CONC003 — worker-reachable code writes module-level mutable state
  (registries, caches, ``global``s): invisible to the view protocol and
  shared by every thread in the process.

All three are whole-program rules: their roots (the dispatch root, the
view protocol) can live anywhere in the file set, so cached findings are
keyed by the whole program's content hash.

The sanctioned seams carry inline ``repro-lint: ignore[CONC001]``
suppressions with their justification: consensus-feedback history writes
(only reachable with ``update_history=True``, which forces the engine to
serialize), usage-meter accounting (each worker task accounts into a
fresh clone's meter, merged afterwards in submit order), and task-local
result records the dataflow heuristic cannot prove fresh.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding, Severity
from repro.lint.flow.concurrency import (
    ROOT_CLASS,
    _is_fresh_value,
    _param_names,
    _store_base_name,
    compute_module_state_writes,
    compute_run_reachable,
    covered_attrs,
    iter_store_targets,
    shared_attrs,
)
from repro.lint.flow.program import Program
from repro.lint.registry import FlowRule, register_rule


@register_rule
class SharedStateMutationRule(FlowRule):
    """CONC001 — shared-reachable object mutated on the worker path."""

    rule_id = "CONC001"
    family = "concurrency"
    severity = Severity.ERROR
    description = (
        "this code runs inside exec worker threads (reachable from "
        "MultiRAG.run) but mutates an object that may be shared across "
        "workers; write only to objects the function constructed "
        "itself, or keep the path serialized"
    )

    def check_program(self, program: Program) -> Iterable[Finding]:
        reachable = compute_run_reachable(program)
        table = program.symtab
        seen: set[tuple[str, int]] = set()
        for qual in sorted(reachable):
            func = table.functions.get(qual)
            if func is None or func.name == "<module>":
                continue
            module = program.modules.get(func.module)
            if module is None:
                continue
            cls_qual = (
                f"{func.module}.{func.cls}" if func.cls is not None else None
            )
            view_shared = (
                shared_attrs(program, cls_qual)
                if cls_qual is not None else frozenset()
            )
            shared = self._shared_names(func.node)
            for store, base in self._stores(func.node):
                if base not in shared:
                    continue
                key = (module.module.display_path, store.lineno)
                if key in seen:
                    continue
                seen.add(key)
                detail = ""
                root_attr = self._self_attr(store)
                if base == "self" and root_attr in view_shared:
                    detail = (
                        f"; worker_view() shares self.{root_attr} "
                        f"by reference, so every worker aliases it"
                    )
                yield self.program_finding(
                    module.module.display_path, store.lineno,
                    f"{func.name}() runs on the exec worker path "
                    f"(reachable from MultiRAG.run) but mutates "
                    f"{ast.unparse(store)!r}, which may be shared "
                    f"across workers{detail}",
                    col=store.col_offset + 1,
                )

    def _self_attr(self, target: ast.expr) -> str | None:
        """First attribute off ``self`` in a store chain, else None."""
        node = target
        attr: str | None = None
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node, ast.Attribute):
                attr = node.attr
            node = node.value
        if isinstance(node, ast.Name) and node.id == "self":
            return attr
        return None

    def _shared_names(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> set[str]:
        """Names whose object may outlive / escape this task: ``self``,
        parameters, and locals not freshly constructed here."""
        constructed: set[str] = set()
        assigned: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                if isinstance(target, ast.Name):
                    assigned.add(target.id)
                    if _is_fresh_value(sub.value):
                        constructed.add(target.id)
                    else:
                        constructed.discard(target.id)
            elif isinstance(sub, ast.AnnAssign):
                if isinstance(sub.target, ast.Name) and sub.value is not None:
                    assigned.add(sub.target.id)
                    if _is_fresh_value(sub.value):
                        constructed.add(sub.target.id)
                    else:
                        constructed.discard(sub.target.id)
        return (_param_names(node) | assigned) - constructed

    def _stores(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterable[tuple[ast.expr, str]]:
        """(store-target, base-name) for every attribute/subscript store."""
        for target in iter_store_targets(node):
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                base = _store_base_name(target)
                if base is not None:
                    yield target, base


@register_rule
class ViewCoverageRule(FlowRule):
    """CONC002 — worker code touches an attr the view protocol misses."""

    rule_id = "CONC002"
    family = "concurrency"
    severity = Severity.ERROR
    description = (
        "worker-reachable pipeline code touches a self attribute that "
        "worker_view() neither shares nor splits — the view is missing "
        "it under the pool; add it to the split/absorb protocol"
    )

    def check_program(self, program: Program) -> Iterable[Finding]:
        reachable = compute_run_reachable(program)
        table = program.symtab
        covered_memo: dict[str, frozenset[str] | None] = {}
        seen: set[tuple[str, int, str]] = set()
        for qual in sorted(reachable):
            func = table.functions.get(qual)
            if func is None or func.cls is None:
                continue
            cls_qual = f"{func.module}.{func.cls}"
            if cls_qual != ROOT_CLASS and not table.is_subclass(
                cls_qual, ROOT_CLASS
            ):
                continue
            if cls_qual not in covered_memo:
                covered_memo[cls_qual] = covered_attrs(program, cls_qual)
            covered = covered_memo[cls_qual]
            if covered is None:
                continue  # no worker_view anywhere in the ancestry
            module = program.modules.get(func.module)
            if module is None:
                continue
            methods = self._method_names(program, cls_qual)
            for sub in ast.walk(func.node):
                if not (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    continue
                attr = sub.attr
                if attr in covered or attr in methods:
                    continue
                if attr.startswith("__") and attr.endswith("__"):
                    continue
                key = (module.module.display_path, sub.lineno, attr)
                if key in seen:
                    continue
                seen.add(key)
                yield self.program_finding(
                    module.module.display_path, sub.lineno,
                    f"{func.name}() runs on the exec worker path but "
                    f"touches self.{attr}, which worker_view() neither "
                    f"shares nor splits — worker views are missing it; "
                    f"add it to the split/absorb protocol",
                    col=sub.col_offset + 1,
                )

    def _method_names(self, program: Program, cls_qual: str) -> frozenset[str]:
        """Method and property names along the class's ancestry."""
        table = program.symtab
        names: set[str] = set()
        for qual in (cls_qual, *sorted(table.ancestors(cls_qual))):
            info = table.classes.get(qual)
            if info is not None:
                names.update(info.methods)
        return frozenset(names)


@register_rule
class ModuleStateWriteRule(FlowRule):
    """CONC003 — module-level mutable state written on the worker path."""

    rule_id = "CONC003"
    family = "concurrency"
    severity = Severity.ERROR
    description = (
        "worker-reachable code writes module-level mutable state "
        "(registry, cache, global) — shared by every thread and "
        "invisible to the worker_view split/absorb protocol; move the "
        "state onto the pipeline or guard it behind ingest"
    )

    def check_program(self, program: Program) -> Iterable[Finding]:
        table = program.symtab
        for write in compute_module_state_writes(program):
            func = table.functions.get(write.func_qual)
            func_name = func.name if func is not None else write.func_qual
            how = {
                "store": "stores through",
                "global": "rebinds the global",
                "mutator": "mutates in place",
            }.get(write.via, "writes")
            yield self.program_finding(
                write.path, write.lineno,
                f"{func_name}() runs on the exec worker path but {how} "
                f"module-level state {write.name!r} (module "
                f"{write.module}) — shared process-wide across workers",
                col=write.col,
            )
