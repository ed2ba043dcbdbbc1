"""Whole-program reachability rules: violating/clean fixture pairs.

Each fixture is a tiny multi-module program handed to
:func:`repro.lint.lint_sources`, the in-memory analogue of linting a
package tree.  The concurrency rules have their own suite
(``test_concurrency.py``).
"""

from __future__ import annotations

from repro.lint import lint_sources


def flow_ids(files: dict[str, str], select: set[str]) -> list[str]:
    report = lint_sources(files, select=select)
    return [f.rule_id for f in report.findings]


def flow_findings(files: dict[str, str], select: set[str]):
    return lint_sources(files, select=select).findings


# ----------------------------------------------------------------------
# DC001 / DC002 — dead functions and classes
# ----------------------------------------------------------------------
class TestDC001:
    def test_unreferenced_public_function(self):
        files = {
            "repro/__init__.py": (
                "from repro.app import used\n"
                "\n"
                '__all__ = ["used"]\n'
            ),
            "repro/app.py": (
                "def used() -> int:\n"
                "    return 1\n"
                "\n"
                "\n"
                "def dead_helper() -> int:\n"
                "    return 2\n"
            ),
        }
        findings = flow_findings(files, {"DC001"})
        assert [f.rule_id for f in findings] == ["DC001"]
        assert "dead_helper" in findings[0].message

    def test_called_function_is_live(self):
        files = {
            "repro/__init__.py": (
                "from repro.app import used\n"
                "\n"
                '__all__ = ["used"]\n'
            ),
            "repro/app.py": (
                "def used() -> int:\n"
                "    return helper()\n"
                "\n"
                "\n"
                "def helper() -> int:\n"
                "    return 2\n"
            ),
        }
        assert flow_ids(files, {"DC001"}) == []

    def test_rule_stands_down_without_roots(self):
        # No package __init__, no entry module, no exports: reachability
        # has nothing to seed from and must not flag everything.
        files = {
            "repro/app.py": (
                "def floating() -> int:\n"
                "    return 1\n"
            ),
        }
        assert flow_ids(files, {"DC001"}) == []


class TestDC002:
    def test_unreferenced_class(self):
        files = {
            "repro/__init__.py": (
                "from repro.app import used\n"
                "\n"
                '__all__ = ["used"]\n'
            ),
            "repro/app.py": (
                "def used() -> int:\n"
                "    return 1\n"
                "\n"
                "\n"
                "class Dead:\n"
                "    def method(self) -> int:\n"
                "        return 2\n"
            ),
        }
        findings = flow_findings(files, {"DC001", "DC002"})
        # one DC002 for the class; its methods are not double-reported
        assert [f.rule_id for f in findings] == ["DC002"]
        assert "Dead" in findings[0].message

    def test_instantiated_class_is_live(self):
        files = {
            "repro/__init__.py": (
                "from repro.app import used\n"
                "\n"
                '__all__ = ["used"]\n'
            ),
            "repro/app.py": (
                "def used() -> int:\n"
                "    return Live().method()\n"
                "\n"
                "\n"
                "class Live:\n"
                "    def method(self) -> int:\n"
                "        return 2\n"
            ),
        }
        assert flow_ids(files, {"DC001", "DC002"}) == []


# ----------------------------------------------------------------------
# suppression and report plumbing for flow findings
# ----------------------------------------------------------------------
class TestFlowPlumbing:
    def test_inline_suppression_applies_to_flow_findings(self):
        files = {
            "repro/__init__.py": (
                "from repro.app import used\n"
                "\n"
                '__all__ = ["used"]\n'
            ),
            "repro/app.py": (
                "def used() -> int:\n"
                "    return 1\n"
                "\n"
                "\n"
                "def dead_helper() -> int:  # repro-lint: ignore[DC001]\n"
                "    return 2\n"
            ),
        }
        report = lint_sources(files, select={"DC001"})
        assert report.findings == []
        assert report.suppressed == 1
