"""Rule base class, lint context, and the global rule registry.

Every rule is a small class with a unique id (``FAM###``), a family, a
severity and a ``check`` method that walks one parsed module and yields
findings.  Registration happens at import time via :func:`register_rule`,
so adding a rule is: write the class in the family module, decorate it,
document it in ``docs/static_analysis.md``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.lint.findings import Finding, Severity

if TYPE_CHECKING:
    from repro.lint.flow.program import Program

_RULE_ID_RE = re.compile(r"^[A-Z]{2,4}\d{3}$")


@dataclass(slots=True)
class ModuleUnderLint:
    """One parsed source file as the rules see it.

    ``package_parts`` is the dotted module path rooted at ``repro``
    (e.g. ``("repro", "kg", "graph")``); empty when the file does not
    live under a ``repro`` package directory, in which case the layering
    rules have nothing to say about it.
    """

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    package_parts: tuple[str, ...] = ()

    @property
    def subpackage(self) -> str:
        """The first-level subpackage under ``repro`` ("" for top-level)."""
        if len(self.package_parts) >= 3:
            return self.package_parts[1]
        return ""

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


class Rule:
    """Base class for all lint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``allowlist`` holds path suffixes (POSIX, relative) that are exempt
    from the rule — the sanctioned escape hatch for modules whose job is
    the very thing the rule bans (e.g. wall-clock reads in latency
    telemetry).
    """

    rule_id: str = ""
    family: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    allowlist: tuple[str, ...] = ()
    #: analysis version; bump when the rule's logic changes so the
    #: incremental cache cannot serve findings from the old semantics.
    version: int = 1

    def check(self, module: ModuleUnderLint) -> Iterable[Finding]:
        """Yield findings for ``module``; override in subclasses."""
        raise NotImplementedError

    def applies_to(self, module: ModuleUnderLint) -> bool:
        """False when ``module`` is allowlisted for this rule."""
        posix = module.path.as_posix()
        display = module.display_path
        return not any(
            posix.endswith(suffix) or display.endswith(suffix)
            for suffix in self.allowlist
        )

    def finding(
        self, module: ModuleUnderLint, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class FlowRule(Rule):
    """Base class for whole-program rules (reachability, concurrency).

    Flow rules run once per lint invocation over the :class:`Program`
    built from the entire file set, instead of once per module; findings
    still anchor to a file and line, so the inline-suppression machinery
    applies unchanged.  ``check`` is inert — the engine dispatches flow
    rules through :meth:`check_program`.  Their roots (entry points, the
    exec dispatch root) can live anywhere in the file set, so the
    incremental cache keys their findings by the whole program.
    """

    def check(self, module: ModuleUnderLint) -> Iterable[Finding]:
        return ()

    def check_program(self, program: "Program") -> Iterable[Finding]:
        """Yield findings over the whole program; override in subclasses."""
        raise NotImplementedError

    def program_finding(
        self, path: str, line: int, message: str, col: int = 1
    ) -> Finding:
        """Build a finding anchored at an explicit file position."""
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=path,
            line=line,
            col=col,
            message=message,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: validate and register a rule under its id."""
    if not _RULE_ID_RE.match(cls.rule_id):
        raise ValueError(
            f"rule id {cls.rule_id!r} does not match FAM### (e.g. DET001)"
        )
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    if not cls.family or not cls.description:
        raise ValueError(f"rule {cls.rule_id} needs a family and description")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, ordered by id."""
    _ensure_rules_loaded()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Instantiate one rule by id.

    Raises:
        KeyError: for unknown rule ids.
    """
    _ensure_rules_loaded()
    return _REGISTRY[rule_id]()


def rule_ids() -> list[str]:
    """Sorted ids of every registered rule."""
    _ensure_rules_loaded()
    return sorted(_REGISTRY)


def _ensure_rules_loaded() -> None:
    # The family modules self-register on import; importing here (not at
    # module top) avoids a registry<->rules import cycle.  The flow-rule
    # modules import after the per-file families so rules.common is fully
    # initialised before the flow machinery pulls it in.
    import repro.lint.rules  # noqa: F401  (import-for-side-effect)
    import repro.lint.flow.reachability  # noqa: F401
    # the concurrency rules live in rules/ but build on the flow
    # machinery, so they load here with the flow families, not from the
    # rules package's __init__ (which must stay flow-free).
    import repro.lint.rules.concurrency  # noqa: F401
