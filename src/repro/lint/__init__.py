"""Static analysis for the reproduction.

``repro.lint`` machine-checks the contracts the rest of the codebase
states in prose: determinism (every stochastic path is explicitly
seeded), layering (the package dependency DAG), error discipline
(everything raised derives from :class:`repro.errors.ReproError` or is a
sanctioned builtin), API hygiene, and over the whole program, dead code
and shared state on the worker path.  It is pure stdlib — ``ast`` plus
``pathlib`` — so the gate runs offline with zero third-party
dependencies, and it depends only on :mod:`repro.errors` so it can never
be broken by the code it checks.

Entry points:

* ``python -m repro lint [paths] [--format json]`` — the CLI gate;
* :func:`lint_paths` / :func:`lint_source` — programmatic runs;
* ``# repro-lint: ignore[RULE-ID]`` — inline suppression.

The runtime validators of the pipeline's ``debug_contracts`` mode live
in :mod:`repro.contracts`, outside this package, so importing ``repro``
never loads the analyzer.

See ``docs/static_analysis.md`` for the rule catalogue.
"""

from repro.lint.engine import (
    SYNTAX_ERROR_ID,
    LintReport,
    build_program_for_paths,
    iter_python_files,
    lint_paths,
    lint_source,
    lint_sources,
)
from repro.lint.findings import Finding, Severity
from repro.lint.flow.concurrency import shared_state_report
from repro.lint.registry import (
    FlowRule,
    ModuleUnderLint,
    Rule,
    all_rules,
    get_rule,
    register_rule,
    rule_ids,
)

__all__ = [
    "Finding",
    "FlowRule",
    "LintReport",
    "ModuleUnderLint",
    "Rule",
    "SYNTAX_ERROR_ID",
    "Severity",
    "all_rules",
    "build_program_for_paths",
    "get_rule",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "register_rule",
    "rule_ids",
    "shared_state_report",
]
