"""Tests for MCC decision explanations."""

from __future__ import annotations

from repro.confidence import HistoryStore, NodeScorer, explain, mcc
from repro.confidence.explain import explain_assessment, explain_decision
from repro.confidence.mcc import MCCResult
from repro.kg import KnowledgeGraph, Provenance, Triple
from repro.linegraph import match_homologous
from repro.llm import SimulatedLLM


def run_mcc(claims):
    graph = KnowledgeGraph()
    for source, entity, attribute, value in claims:
        graph.add_triple(
            Triple(entity, attribute, value, Provenance(source_id=source))
        )
    groups = match_homologous(graph).groups
    scorer = NodeScorer(graph, SimulatedLLM(seed=0), HistoryStore())
    return mcc(groups, scorer)


class TestExplain:
    def test_full_report(self):
        result = run_mcc([
            ("s1", "E", "year", "2010"),
            ("s2", "E", "year", "2010"),
            ("s3", "E", "year", "1999"),
        ])
        report = explain(result)
        assert "group ('E', 'year')" in report
        assert "graph confidence" in report
        assert "ACCEPTED" in report
        assert "'2010'" in report
        assert "S_n=" in report and "Auth_LLM=" in report
        assert "value(s) accepted" in report

    def test_rejected_nodes_listed(self):
        # Conflicted enough (C(G) < 0.5) that every node is scrutinized.
        result = run_mcc([
            ("s1", "E", "year", "2010"),
            ("s2", "E", "year", "2010"),
            ("s3", "E", "year", "1999"),
            ("s4", "E", "year", "1987"),
        ])
        report = explain(result)
        assert "rejected" in report
        assert "'1999'" in report or "'1987'" in report

    def test_bound_rejected_nodes_show_bounds(self):
        result = run_mcc([
            ("s1", "E", "year", "2010"),
            ("s2", "E", "year", "2010"),
            ("s3", "E", "year", "1999"),
            ("s4", "E", "year", "1987"),
        ])
        report = explain(result)
        decision = result.decisions[0]
        bound = [a for a in decision.rejected if a.bound]
        assert bound
        for assessment in bound:
            line = explain_assessment(assessment, "rejected")
            assert line in report
            assert f"C(v)≤{assessment.confidence:.2f}" in line
            assert f"Auth_LLM≤{assessment.auth_llm:.2f}" in line
        for assessment in decision.accepted:
            line = explain_assessment(assessment, "ACCEPTED")
            assert "C(v)=" in line and "Auth_LLM=" in line

    def test_fast_path_labelled(self):
        result = run_mcc([
            ("s1", "E", "year", "2010"),
            ("s2", "E", "year", "2010"),
        ])
        report = explain_decision(result.decisions[0])
        assert "fast path" in report

    def test_empty_result(self):
        assert "nothing to adjudicate" in explain(MCCResult())

    def test_source_attribution(self):
        result = run_mcc([
            ("src-a", "E", "year", "2010"),
            ("src-b", "E", "year", "2010"),
        ])
        assert "src-a" in explain(result) or "src-b" in explain(result)
