"""Concurrency rules (CONC): violating/clean fixture pairs per rule.

Each fixture is a tiny multi-module program handed to
:func:`repro.lint.lint_sources`.  The ``repro/core/pipeline.py`` stub
carries the analysis roots — a ``MultiRAG`` class with ``run`` and a
``worker_view()`` split/absorb body — so the whole-program concurrency
analysis engages exactly as it does over the real tree.

The suite also injects a race into a stub worker view, which CONC001
must report as a new finding, and pins the EXE001 retirement: every
surviving suppression in ``src/repro`` re-derives under CONC001 and no
orphaned EXE001 pragma remains.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.lint import build_program_for_paths, lint_paths, lint_sources
from repro.lint.flow.concurrency import shared_state_report

SRC = Path(repro.__file__).resolve().parent

#: the analysis root: run() fans out over worker views that share the
#: fusion graph by reference and split the per-task scorer.
PIPELINE_STUB = (
    "import copy\n"
    "\n"
    "\n"
    "class Scorer:\n"
    "    pass\n"
    "\n"
    "\n"
    "class MultiRAG:\n"
    "    def worker_view(self):\n"
    "        view = copy.copy(self)\n"
    "        view.fusion = self.fusion\n"
    "        view.history = self.history\n"
    "        view.scorer = Scorer()\n"
    "        return view\n"
    "\n"
    "    def run(self, query):\n"
    "        return self._answer(query)\n"
    "\n"
    "    def _answer(self, query):\n"
    "        hits = [query]\n"
    "        return hits\n"
)


def conc_ids(files: dict[str, str], select: set[str]) -> list[str]:
    return [f.rule_id for f in lint_sources(files, select=select).findings]


def conc_findings(files: dict[str, str], select: set[str]):
    return lint_sources(files, select=select).findings


def with_pipeline(body_lines: str) -> str:
    """The stub with extra method lines spliced in before run()."""
    return PIPELINE_STUB.replace(
        "    def run(self, query):",
        body_lines + "\n    def run(self, query):",
    )


# ----------------------------------------------------------------------
# CONC001 — shared-state mutation on the worker path
# ----------------------------------------------------------------------
class TestCONC001:
    def test_self_store_in_run_is_flagged(self):
        files = {
            "repro/core/pipeline.py": PIPELINE_STUB.replace(
                "        return self._answer(query)",
                "        self.fusion.cache = query\n"
                "        return self._answer(query)",
            ),
        }
        findings = conc_findings(files, {"CONC001"})
        assert [f.rule_id for f in findings] == ["CONC001"]
        assert "self.fusion.cache" in findings[0].message
        # the protocol detail names the shared-by-reference alias
        assert "worker_view() shares self.fusion by reference" in (
            findings[0].message
        )

    def test_transitive_callee_mutation_is_flagged(self):
        files = {
            "repro/core/pipeline.py": PIPELINE_STUB.replace(
                "        hits = [query]",
                "        self.history.scores[query] = 1.0\n"
                "        hits = [query]",
            ),
        }
        ids = conc_ids(files, {"CONC001"})
        assert ids == ["CONC001"]

    def test_parameter_mutation_is_flagged(self):
        files = {
            "repro/core/pipeline.py": PIPELINE_STUB,
            "repro/core/helper.py": (
                "def tally(record):\n"
                "    record.count += 1\n"
            ),
        }
        # wire tally into the worker path
        files["repro/core/pipeline.py"] = files[
            "repro/core/pipeline.py"
        ].replace(
            "import copy\n",
            "import copy\n\nfrom repro.core.helper import tally\n",
        ).replace(
            "        hits = [query]",
            "        tally(query)\n"
            "        hits = [query]",
        )
        findings = conc_findings(files, {"CONC001"})
        assert [f.rule_id for f in findings] == ["CONC001"]
        assert findings[0].path == "repro/core/helper.py"

    def test_freshly_constructed_local_is_clean(self):
        files = {
            "repro/core/pipeline.py": PIPELINE_STUB.replace(
                "        hits = [query]",
                "        counts = {}\n"
                "        counts[query] = 1\n"
                "        hits = [query]",
            ),
        }
        assert conc_ids(files, {"CONC001"}) == []

    def test_unreachable_mutation_is_clean(self):
        # ingest() is not on the run() path, so its self-writes are fine.
        files = {
            "repro/core/pipeline.py": with_pipeline(
                "    def ingest(self, sources):\n"
                "        self.fusion = sources\n"
            ),
        }
        assert conc_ids(files, {"CONC001"}) == []

    def test_suppression_is_honoured(self):
        files = {
            "repro/core/pipeline.py": PIPELINE_STUB.replace(
                "        return self._answer(query)",
                "        self.fusion.cache = query"
                "  # repro-lint: ignore[CONC001]\n"
                "        return self._answer(query)",
            ),
        }
        report = lint_sources(files, select={"CONC001"})
        assert report.findings == []
        assert report.suppressed == 1


#: an injected race on the pipeline's worker view: each worker's run()
#: writes one entry of a dict that ``worker_view()`` shares by reference.
RACY_SOURCE = {
    "repro/core/pipeline.py": (
        "class MultiRAG:\n"
        "    def worker_view(self):\n"
        "        view = object.__new__(MultiRAG)\n"
        "        view.fusion = self.fusion\n"
        "        view._entity_by_norm = self._entity_by_norm\n"
        "        view.scorer = NodeScorer()\n"
        "        return view\n"
        "\n"
        "    def run(self, query):\n"
        "        self._entity_by_norm['__racy__'] = query\n"
        "        return query\n"
    ),
}


class TestFaultInjection:
    def test_static_analyzer_catches_the_race(self):
        findings = lint_sources(RACY_SOURCE, select={"CONC001"}).findings
        assert [f.rule_id for f in findings] == ["CONC001"]
        assert "_entity_by_norm" in findings[0].message
        assert "shares self._entity_by_norm by reference" in (
            findings[0].message
        )

    def test_injected_race_survives_suppression_audit(self):
        """The static finding is a *new* one, not an already-suppressed
        site — i.e. the gate would actually fail on this code."""
        report = lint_sources(RACY_SOURCE, select={"CONC001"})
        assert not report.ok


# ----------------------------------------------------------------------
# CONC002 — worker code touching an attr the view protocol misses
# ----------------------------------------------------------------------
class TestCONC002:
    def test_uncovered_attr_is_flagged(self):
        files = {
            "repro/core/pipeline.py": PIPELINE_STUB.replace(
                "        hits = [query]",
                "        hits = [self.snapshots]",
            ),
        }
        findings = conc_findings(files, {"CONC002"})
        assert [f.rule_id for f in findings] == ["CONC002"]
        assert "self.snapshots" in findings[0].message

    def test_covered_and_method_attrs_are_clean(self):
        # self.fusion (shared), self.scorer (split) and self._answer
        # (method) are all accounted for.
        files = {
            "repro/core/pipeline.py": PIPELINE_STUB.replace(
                "        hits = [query]",
                "        hits = [self.fusion, self.scorer]",
            ),
        }
        assert conc_ids(files, {"CONC002"}) == []

    def test_subclass_extension_must_extend_protocol(self):
        sub = (
            "from repro.core.pipeline import MultiRAG\n"
            "\n"
            "\n"
            "class CachingRAG(MultiRAG):\n"
            "    def run(self, query):\n"
            "        return self.extra_cache\n"
        )
        files = {
            "repro/core/pipeline.py": PIPELINE_STUB,
            "repro/core/caching.py": sub,
        }
        findings = conc_findings(files, {"CONC002"})
        assert [f.rule_id for f in findings] == ["CONC002"]
        assert "self.extra_cache" in findings[0].message
        # covering it in the subclass's own worker_view() clears it
        files["repro/core/caching.py"] = sub.replace(
            "    def run(self, query):",
            "    def worker_view(self):\n"
            "        view = super().worker_view()\n"
            "        view.extra_cache = self.extra_cache\n"
            "        return view\n"
            "\n"
            "    def run(self, query):",
        )
        assert conc_ids(files, {"CONC002"}) == []


# ----------------------------------------------------------------------
# CONC003 — module-level mutable state written on the worker path
# ----------------------------------------------------------------------
class TestCONC003:
    def test_registry_store_is_flagged(self):
        files = {
            "repro/core/pipeline.py": PIPELINE_STUB.replace(
                "import copy\n",
                "import copy\n\nfrom repro.core.cachemod import remember\n",
            ).replace(
                "        hits = [query]",
                "        remember(query)\n"
                "        hits = [query]",
            ),
            "repro/core/cachemod.py": (
                "_SEEN = {}\n"
                "\n"
                "\n"
                "def remember(query):\n"
                "    _SEEN[query] = True\n"
            ),
        }
        findings = conc_findings(files, {"CONC003"})
        assert [f.rule_id for f in findings] == ["CONC003"]
        assert "_SEEN" in findings[0].message
        assert findings[0].path == "repro/core/cachemod.py"

    def test_mutator_call_and_global_are_flagged(self):
        files = {
            "repro/core/pipeline.py": PIPELINE_STUB.replace(
                "        hits = [query]",
                "        _LOG.append(query)\n"
                "        global _LAST\n"
                "        _LAST = query\n"
                "        hits = [query]",
            ).replace(
                "import copy\n",
                "import copy\n\n_LOG = []\n_LAST = None\n",
            ),
        }
        ids = sorted(conc_ids(files, {"CONC003"}))
        assert ids == ["CONC003", "CONC003"]

    def test_read_only_module_state_is_clean(self):
        files = {
            "repro/core/pipeline.py": PIPELINE_STUB.replace(
                "        hits = [query]",
                "        hits = [_TABLE.get(query)]",
            ).replace(
                "import copy\n",
                "import copy\n\n_TABLE = {}\n",
            ),
        }
        assert conc_ids(files, {"CONC003"}) == []


# ----------------------------------------------------------------------
# the shared-state report (repro lint --graph shared)
# ----------------------------------------------------------------------
class TestSharedStateReport:
    def test_real_tree_protocol_is_recovered(self):
        program = build_program_for_paths([SRC])
        report = shared_state_report(program)
        assert report["root_present"]
        protocol = report["worker_view"]["repro.core.pipeline.MultiRAG"]
        # the substrate is shared by reference, per-task state is split
        assert "fusion" in protocol["shared"]
        assert "history" in protocol["shared"]
        assert "scorer" in protocol["split"]
        assert "obs" in protocol["split"]
        assert len(report["run_reachable"]) > 20

    def test_stub_report_shape(self):
        program_files = {"repro/core/pipeline.py": PIPELINE_STUB}
        report = lint_sources(program_files, select={"CONC001"})
        assert report.ok  # sanity: the stub itself is clean


# ----------------------------------------------------------------------
# EXE001 retirement
# ----------------------------------------------------------------------
class TestEXE001Retirement:
    def test_rule_id_is_gone(self):
        from repro.lint import rule_ids

        assert "EXE001" not in rule_ids()

    def test_no_orphaned_pragmas(self):
        """No EXE001 suppression survives anywhere in the tree."""
        offenders = [
            path
            for path in SRC.rglob("*.py")
            if "ignore[EXE001" in path.read_text()
        ]
        assert offenders == []

    def test_migrated_suppressions_re_derive(self):
        """Every CONC001 pragma in src/repro suppresses a live finding.

        ``include_suppressed`` surfaces what the pragmas hide; each
        suppressed line must re-derive, else the pragma is dead weight.
        """
        report = lint_paths([SRC], select={"CONC001"},
                            include_suppressed=True, cache_dir=None)
        derived = {(f.path, f.line) for f in report.findings}
        pragma_sites = set()
        for path in SRC.rglob("*.py"):
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                # the comment form only — docstrings may *mention* the
                # pragma without suppressing anything
                if "# repro-lint: ignore[CONC001" in line:
                    pragma_sites.add((str(path), lineno))
        assert pragma_sites, "expected migrated CONC001 suppressions"
        assert pragma_sites <= derived, (
            "orphaned CONC001 pragmas (suppress nothing): "
            f"{sorted(pragma_sites - derived)}"
        )
