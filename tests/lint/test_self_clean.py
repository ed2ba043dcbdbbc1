"""The library must pass its own static-analysis gate.

This is the repo-wide acceptance test: every contract the lint rules
encode (determinism, layering, error discipline, hygiene) holds over all
of ``src/repro``.  A failure here prints the offending findings.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.lint import lint_paths, rule_ids

SRC = Path(repro.__file__).resolve().parent


def test_src_repro_is_clean():
    report = lint_paths([SRC])
    assert report.findings == [], "\n" + report.format_text()
    assert report.ok


def test_whole_package_was_scanned():
    report = lint_paths([SRC])
    assert report.files_checked > 100


def test_lint_package_itself_is_scanned_and_clean():
    report = lint_paths([SRC / "lint"])
    assert report.findings == []
    assert report.files_checked >= 9


def test_rule_catalogue_is_substantial():
    """The acceptance floor: ≥ 15 rule ids spread over the 8 families."""
    ids = rule_ids()
    assert len(ids) >= 15
    families = {rule_id.rstrip("0123456789") for rule_id in ids}
    assert families == {
        "DET", "LAY", "ERR", "API", "DC", "CONC", "OBS", "PERF",
    }
