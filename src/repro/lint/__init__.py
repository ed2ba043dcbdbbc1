"""Static analysis and invariant checking for the reproduction.

``repro.lint`` machine-checks the contracts the rest of the codebase
states in prose: determinism (every stochastic path is explicitly
seeded), layering (the package dependency DAG), error discipline
(everything raised derives from :class:`repro.errors.ReproError` or is a
sanctioned builtin) and API hygiene.  It is pure stdlib — ``ast`` plus
``pathlib`` — so the gate runs offline with zero third-party
dependencies, and it depends only on :mod:`repro.errors` so it can never
be broken by the code it checks.

Entry points:

* ``python -m repro lint [paths] [--format json]`` — the CLI gate;
* :func:`lint_paths` / :func:`lint_source` — programmatic runs;
* :mod:`repro.lint.contracts` — runtime validators for tests and the
  pipeline's ``debug_contracts`` mode;
* ``# repro-lint: ignore[RULE-ID]`` — inline suppression.

See ``docs/static_analysis.md`` for the rule catalogue.
"""

from repro.lint.contracts import (
    check_assessment,
    check_mcc_result,
    check_mlg,
    check_node_confidence,
    check_ranked_answers,
    check_unit_interval,
)
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
    "check_assessment",
    "check_mcc_result",
    "check_mlg",
    "check_node_confidence",
    "check_ranked_answers",
    "check_unit_interval",
    "get_rule",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "register_rule",
    "rule_ids",
    "shared_state_report",
]
