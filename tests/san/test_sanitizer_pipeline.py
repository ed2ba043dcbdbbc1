"""Fault injection on the pipeline's worker view: the static gate catches it.

The injected race is every worker writing one entry of a dict that
``MultiRAG.worker_view()`` shares with its parent by reference.  CONC001
must flag that pattern as a new finding, so the lint gate fails on it.
"""

from __future__ import annotations

from repro.lint import lint_sources

#: the injected race, as source: each worker's run() writes a shared dict.
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
