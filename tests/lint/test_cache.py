"""Incremental lint cache: warm-run hits, invalidation, degradation."""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint import lint_paths

ERRORS_STUB = (
    "class ReproError(Exception):\n"
    "    pass\n"
    "\n"
    "\n"
    "class DatasetError(ReproError):\n"
    "    pass\n"
)

CLEAN_APP = (
    "from repro.errors import DatasetError\n"
    "\n"
    "\n"
    "def used(path: str) -> str:\n"
    '    """Load a file."""\n'
    "    raise DatasetError(path)\n"
)

#: the flow finding the suite probes: a DC001 dead function in a module
#: that imports ``repro.errors``.
DIRTY_APP = CLEAN_APP + (
    "\n"
    "\n"
    "def dead_helper(path: str) -> str:\n"
    "    raise DatasetError(path)\n"
)


def make_tree(tmp_path: Path) -> Path:
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from repro.kg.loader import used\n\n__all__ = [\"used\"]\n"
    )
    (pkg / "errors.py").write_text(ERRORS_STUB)
    (pkg / "kg").mkdir()
    (pkg / "kg" / "loader.py").write_text(CLEAN_APP)
    return pkg


class TestWarmRuns:
    def test_warm_run_hits_and_agrees(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "cache"
        cold = lint_paths([pkg], cache_dir=cache)
        assert cold.cache_hits == 0
        assert not cold.flow_cached
        warm = lint_paths([pkg], cache_dir=cache)
        assert warm.cache_hits == 3
        assert warm.flow_cached
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in cold.findings
        ]
        assert warm.suppressed == cold.suppressed

    def test_index_holds_one_program_keyed_flow_entry(self, tmp_path):
        pkg = make_tree(tmp_path)
        (pkg / "kg" / "loader.py").write_text(DIRTY_APP)
        cache = tmp_path / "cache"
        lint_paths([pkg], cache_dir=cache)
        flow = json.loads((cache / "index.json").read_text())["flow"]
        assert set(flow) == {"key", "findings", "suppressed"}
        assert [f["rule_id"] for f in flow["findings"]] == ["DC001"]

    def test_editing_one_file_invalidates_only_it(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "cache"
        lint_paths([pkg], cache_dir=cache)
        (pkg / "kg" / "loader.py").write_text(DIRTY_APP)
        report = lint_paths([pkg], cache_dir=cache)
        assert report.cache_hits == 2  # __init__ and errors still hit
        assert not report.flow_cached  # the program changed
        assert [f.rule_id for f in report.findings] == ["DC001"]
        # and the new outcome is itself cached
        warm = lint_paths([pkg], cache_dir=cache)
        assert warm.cache_hits == 3
        assert warm.flow_cached
        assert [f.rule_id for f in warm.findings] == ["DC001"]

    def test_cache_is_skipped_for_partial_runs(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "cache"
        lint_paths([pkg], cache_dir=cache)
        report = lint_paths([pkg], cache_dir=cache, select={"DC001"})
        assert report.cache_hits == 0


class TestDegradation:
    def test_corrupt_index_degrades_to_cold_run(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "cache"
        lint_paths([pkg], cache_dir=cache)
        (cache / "index.json").write_text("{not json")
        report = lint_paths([pkg], cache_dir=cache)
        assert report.cache_hits == 0
        assert report.ok

    def test_corrupt_ast_pickle_degrades_to_reparse(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "cache"
        lint_paths([pkg], cache_dir=cache)
        for pkl in (cache / "asts").glob("*.pkl"):
            pkl.write_bytes(b"garbage")
        # warm per-file hits stand, flow rebuild must reparse sources
        (pkg / "kg" / "loader.py").write_text(DIRTY_APP)
        report = lint_paths([pkg], cache_dir=cache)
        assert [f.rule_id for f in report.findings] == ["DC001"]

    def test_fingerprint_mismatch_discards_cache(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "cache"
        lint_paths([pkg], cache_dir=cache)
        index = json.loads((cache / "index.json").read_text())
        index["fingerprint"] = "stale"
        (cache / "index.json").write_text(json.dumps(index))
        report = lint_paths([pkg], cache_dir=cache)
        assert report.cache_hits == 0

    def test_rule_version_bump_discards_cache(self, tmp_path, monkeypatch):
        """The fingerprint is RULEID@version: bumping a rule's analysis
        version must invalidate the whole cache, because its cached
        findings may no longer match what the new analysis derives."""
        from repro.lint import all_rules

        pkg = make_tree(tmp_path)
        cache = tmp_path / "cache"
        lint_paths([pkg], cache_dir=cache)
        rule = all_rules()[0]
        monkeypatch.setattr(type(rule), "version", rule.version + 1)
        report = lint_paths([pkg], cache_dir=cache)
        assert report.cache_hits == 0
        # and the bumped fingerprint is itself stable on the next run
        warm = lint_paths([pkg], cache_dir=cache)
        assert warm.cache_hits > 0


class TestChangedOnly:
    def test_changed_only_filters_unchanged_files(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "cache"
        lint_paths([pkg], cache_dir=cache)
        (pkg / "kg" / "loader.py").write_text(DIRTY_APP)
        report = lint_paths([pkg], cache_dir=cache, changed_only=True)
        assert {f.path for f in report.findings} == {
            str(pkg / "kg" / "loader.py"),
        } or {Path(f.path).name for f in report.findings} == {"loader.py"}

    def test_changed_only_with_no_changes_reports_nothing(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "cache"
        # make the tree dirty so there IS a finding to filter out
        (pkg / "kg" / "loader.py").write_text(DIRTY_APP)
        lint_paths([pkg], cache_dir=cache)
        report = lint_paths([pkg], cache_dir=cache, changed_only=True)
        assert report.findings == []

    def test_changed_only_includes_reverse_importers(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "cache"
        (pkg / "kg" / "loader.py").write_text(DIRTY_APP)
        lint_paths([pkg], cache_dir=cache)
        # errors.py changes: the loader imports it, so the loader's DC001
        # must resurface even though loader.py itself is byte-identical.
        (pkg / "errors.py").write_text(ERRORS_STUB + "\n# touched\n")
        report = lint_paths([pkg], cache_dir=cache, changed_only=True)
        assert "DC001" in {f.rule_id for f in report.findings}
