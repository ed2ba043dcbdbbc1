"""Error-discipline rules (ERR) — the contract documented in
:mod:`repro.errors`.

Library failures derive from :class:`repro.errors.ReproError` so callers
can catch one base type; programmer errors surface as the builtin
``TypeError`` / ``ValueError``.  These rules keep every ``raise`` and
``except`` site honest about that split.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterable

from repro.lint.findings import Finding, Severity
from repro.lint.registry import ModuleUnderLint, Rule, register_rule
from repro.lint.rules.common import collect_imports, dotted_name

#: builtins the library may raise: programmer errors per the errors.py
#: docstring, plus protocol/control-flow exceptions.
_ALLOWED_BUILTINS = frozenset({
    "TypeError", "ValueError", "NotImplementedError", "StopIteration",
    "StopAsyncIteration", "SystemExit", "KeyboardInterrupt",
    "AssertionError",
})

_BUILTIN_EXCEPTIONS = frozenset(
    name for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
)


def _repro_error_names() -> frozenset[str]:
    """Every exception class defined in :mod:`repro.errors`.

    Resolved dynamically so new subclasses are allowed the moment they
    are added to the hierarchy, with no lint-side list to update.
    """
    import repro.errors as errors_module

    return frozenset(
        name for name, obj in vars(errors_module).items()
        if isinstance(obj, type) and issubclass(obj, errors_module.ReproError)
    )


def _local_repro_error_subclasses(
    tree: ast.Module, known: frozenset[str]
) -> frozenset[str]:
    """Classes defined in ``tree`` that (transitively) extend a known
    ReproError subclass — a class shaped like
    ``EntityNotFoundError(GraphError)`` of :mod:`repro.errors`, declared
    in any other module."""
    bases: dict[str, list[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names = []
            for base in node.bases:
                dotted = dotted_name(base)
                if dotted:
                    names.append(dotted.rsplit(".", 1)[-1])
            bases[node.name] = names

    resolved: set[str] = set()
    changed = True
    while changed:
        changed = False
        for cls, base_names in bases.items():
            if cls in resolved:
                continue
            if any(b in known or b in resolved for b in base_names):
                resolved.add(cls)
                changed = True
    return frozenset(resolved)


@register_rule
class BareExceptRule(Rule):
    """ERR001 — no bare ``except:``."""

    rule_id = "ERR001"
    family = "errors"
    severity = Severity.ERROR
    description = (
        "bare except: swallows SystemExit/KeyboardInterrupt and hides "
        "bugs; catch the specific exception type"
    )

    def check(self, module: ModuleUnderLint) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    module, node,
                    "bare except:; name the exception type being handled",
                )


@register_rule
class BroadExceptRule(Rule):
    """ERR002 — no ``except Exception`` / ``except BaseException``."""

    rule_id = "ERR002"
    family = "errors"
    severity = Severity.ERROR
    description = (
        "except Exception/BaseException hides unrelated failures behind "
        "the intended one; catch ReproError or the specific type"
    )

    _BROAD = ("Exception", "BaseException")

    def check(self, module: ModuleUnderLint) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            types = (
                node.type.elts if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for type_node in types:
                dotted = dotted_name(type_node)
                if dotted in self._BROAD:
                    yield self.finding(
                        module, node,
                        f"over-broad except {dotted}; catch ReproError or "
                        f"the specific type",
                    )


@register_rule
class RaiseDisciplineRule(Rule):
    """ERR003 — raise sites use ReproError subclasses or sanctioned
    builtins."""

    rule_id = "ERR003"
    family = "errors"
    severity = Severity.ERROR
    description = (
        "library raise sites must use a repro.errors.ReproError subclass "
        "(library failures) or TypeError/ValueError (programmer errors) "
        "per the errors.py docstring"
    )

    def check(self, module: ModuleUnderLint) -> Iterable[Finding]:
        known = _repro_error_names()
        local = _local_repro_error_subclasses(module.tree, known)
        imports = collect_imports(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            dotted = dotted_name(exc)
            if dotted is None:
                continue  # raise of a computed expression; not checkable
            name = dotted.rsplit(".", 1)[-1]
            head = dotted.split(".", 1)[0]
            if name in known or name in local or name in _ALLOWED_BUILTINS:
                continue
            if head in imports.members:
                origin, _ = imports.members[head]
                if origin.startswith("repro."):
                    # Imported from the library: assumed (and separately
                    # tested) to derive from ReproError.
                    continue
            if name in _BUILTIN_EXCEPTIONS:
                yield self.finding(
                    module, node,
                    f"raise {name}: not part of the documented contract "
                    f"(ReproError subclasses for library failures, "
                    f"TypeError/ValueError for programmer errors)",
                )
            elif name.endswith(("Error", "Exception")):
                yield self.finding(
                    module, node,
                    f"raise {name}: cannot verify it derives from "
                    f"ReproError; define it in repro.errors or subclass "
                    f"one locally",
                )
