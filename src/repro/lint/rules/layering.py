"""Layering rules (LAY) — enforce the package dependency DAG.

The reproduction's subpackages form a strict DAG (foundation → substrate
→ algorithm → orchestration).  Keeping the arrows one-way is what lets a
PR refactor one layer without rippling through the rest; an accidental
``kg → core`` import would silently turn the substrate into a cycle.

``ALLOWED_DEPENDENCIES`` is the single source of truth.  When a new
subpackage is added, give it an entry here (unknown subpackages are
flagged, not silently allowed).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding, Severity
from repro.lint.registry import ModuleUnderLint, Rule, register_rule

#: subpackage → the subpackages it may import.  ``errors`` and ``util``
#: are the foundation (no repro imports at all); ``lint`` may only see
#: ``errors`` so the checker never depends on the code it checks.
ALLOWED_DEPENDENCIES: dict[str, frozenset[str]] = {
    "errors": frozenset(),
    "util": frozenset(),
    # Process-wide fast-path switch + cache registry: a foundation module
    # so any layer that owns an optimization can consult it.
    "perf": frozenset(),
    "metrics": frozenset({"errors", "util"}),
    "lint": frozenset({"errors"}),
    # The runtime validators are a leaf: duck-typed over the structures
    # they check, so importing them never loads the code they check.
    "contracts": frozenset({"errors"}),
    # Observability is a near-leaf: any layer may depend on it, it
    # depends on nothing above the foundation (telemetry must never
    # create an upward edge).
    "obs": frozenset({"errors", "util"}),
    # The exec engine is a generic scheduling substrate: it knows about
    # plans, queries and thread pools, never about the pipeline it runs
    # (callers hand it closures), so it sits just above the foundation.
    "exec": frozenset({"errors", "util"}),
    "retrieval": frozenset({"errors", "obs", "util", "perf"}),
    "llm": frozenset({"errors", "util", "retrieval"}),
    "kg": frozenset({"errors", "util", "llm"}),
    "linegraph": frozenset({"errors", "util", "kg"}),
    "confidence": frozenset(
        {"errors", "obs", "util", "kg", "linegraph", "llm", "retrieval",
         "perf"}
    ),
    # Fusion fans per-chunk extraction out over the exec engine (a
    # generic scheduling substrate with no knowledge of its callers),
    # so adapters → exec is a downward edge like core → exec.
    "adapters": frozenset(
        {"errors", "obs", "util", "exec", "kg", "llm", "retrieval"}
    ),
    "datasets": frozenset({"errors", "util", "adapters", "llm"}),
    # Snapshot (de)serialization reads every substrate layer's state but
    # never the orchestration above it (core imports snapshot, not the
    # reverse).
    "snapshot": frozenset({
        "errors", "util", "obs", "adapters", "kg", "retrieval",
        "linegraph", "confidence", "llm",
    }),
    "core": frozenset({
        "errors", "util", "adapters", "confidence", "contracts", "datasets",
        "exec", "kg", "linegraph", "llm", "metrics", "obs", "perf",
        "retrieval", "snapshot",
    }),
    "baselines": frozenset({
        "errors", "util", "confidence", "core", "datasets", "exec", "kg",
        "linegraph", "llm", "metrics", "retrieval",
    }),
    "eval": frozenset({
        "errors", "util", "adapters", "baselines", "confidence", "core",
        "datasets", "exec", "kg", "linegraph", "llm", "metrics", "obs",
        "retrieval",
    }),
}

#: top-level modules free to import anything inside ``repro``.
_UNRESTRICTED_MODULES = frozenset({"cli", "__init__", "__main__"})

#: packages that must never be imported from library code.
_FORBIDDEN_TOP_LEVEL = frozenset({"tests", "benchmarks"})

#: pure-data modules importable from any layer: they define the shared
#: vocabulary (the Triple datatype, the pipeline Stage tags) and depend
#: on nothing above the foundation themselves.
FOUNDATION_MODULES = frozenset({"repro.kg.triple", "repro.llm.stage"})


def _type_checking_linenos(tree: ast.Module) -> set[int]:
    """Line numbers covered by ``if TYPE_CHECKING:`` blocks.

    Type-only imports create no runtime dependency edge, so the DAG
    rules ignore them (the sanctioned idiom for annotating across an
    otherwise-forbidden edge).
    """
    covered: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = None
        if isinstance(test, ast.Name):
            name = test.id
        elif isinstance(test, ast.Attribute):
            name = test.attr
        if name == "TYPE_CHECKING":
            end = node.body[-1].end_lineno or node.body[-1].lineno
            covered.update(range(node.body[0].lineno, end + 1))
    return covered


def _imported_modules(tree: ast.Module) -> Iterable[tuple[ast.stmt, str, int]]:
    """Yield ``(node, dotted_module, relative_level)`` per runtime import."""
    type_only = _type_checking_linenos(tree)
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in type_only:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name, 0
        elif isinstance(node, ast.ImportFrom):
            yield node, node.module or "", node.level


def _target_subpackage(dotted: str) -> str | None:
    """``repro.kg.graph`` → ``kg``; ``repro`` → ``""``; else None."""
    parts = dotted.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return ""
    return parts[1]


@register_rule
class PackageDagRule(Rule):
    """LAY001 — imports must follow ALLOWED_DEPENDENCIES."""

    rule_id = "LAY001"
    family = "layering"
    severity = Severity.ERROR
    description = (
        "a repro subpackage imported a subpackage outside its allowed "
        "dependency set (e.g. kg → core); see ALLOWED_DEPENDENCIES in "
        "repro/lint/rules/layering.py"
    )

    def check(self, module: ModuleUnderLint) -> Iterable[Finding]:
        if not module.package_parts:
            return
        own_module = module.package_parts[-1]
        own = module.subpackage
        if not own and own_module in _UNRESTRICTED_MODULES:
            return
        # Top-level non-package modules (errors.py, util.py) are keyed by
        # their module name; subpackage files by their subpackage.
        key = own or own_module
        allowed = ALLOWED_DEPENDENCIES.get(key)
        for node, dotted, level in _imported_modules(module.tree):
            if level > 0:
                continue  # relative imports are LAY003's concern
            if dotted in FOUNDATION_MODULES:
                continue
            target = _target_subpackage(dotted)
            if target is None:
                continue
            if target == "":
                yield self.finding(
                    module, node,
                    f"{key} imports the repro top-level package, which "
                    f"aggregates every layer; import the specific "
                    f"submodule instead",
                )
                continue
            if target == key:
                continue
            if allowed is None:
                yield self.finding(
                    module, node,
                    f"subpackage {key!r} has no entry in "
                    f"ALLOWED_DEPENDENCIES; add one declaring what it may "
                    f"import",
                )
                return
            if target not in allowed:
                yield self.finding(
                    module, node,
                    f"forbidden dependency: {key} → {target} "
                    f"(allowed: {', '.join(sorted(allowed)) or 'none'})",
                )


@register_rule
class NoTestImportRule(Rule):
    """LAY002 — library code never imports tests or benchmarks."""

    rule_id = "LAY002"
    family = "layering"
    severity = Severity.ERROR
    description = (
        "src/ must not import the tests or benchmarks packages; move "
        "shared helpers into the library"
    )

    def check(self, module: ModuleUnderLint) -> Iterable[Finding]:
        if not module.package_parts:
            return
        for node, dotted, level in _imported_modules(module.tree):
            if level > 0 or not dotted:
                continue
            if dotted.split(".")[0] in _FORBIDDEN_TOP_LEVEL:
                yield self.finding(
                    module, node,
                    f"library module imports {dotted!r}; src/ must never "
                    f"depend on tests or benchmarks",
                )


@register_rule
class NoRelativeImportRule(Rule):
    """LAY003 — absolute imports only."""

    rule_id = "LAY003"
    family = "layering"
    severity = Severity.ERROR
    description = (
        "relative imports hide the dependency edge from the DAG check "
        "and break when modules move; spell imports absolutely "
        "(from repro.x import y)"
    )

    def check(self, module: ModuleUnderLint) -> Iterable[Finding]:
        for node, _, level in _imported_modules(module.tree):
            if level > 0:
                yield self.finding(
                    module, node,
                    "relative import; use the absolute repro.* form",
                )
