"""Tests for claim-level hallucination checking."""

from __future__ import annotations

import pytest

from repro.eval import (
    check_answer,
    decompose_answer,
    hallucination_rate,
)
from repro.exec import Query
from repro.kg import KnowledgeGraph, Provenance, Triple


@pytest.fixture()
def graph() -> KnowledgeGraph:
    g = KnowledgeGraph()
    g.add_triple(Triple("Inception", "release_year", "2010",
                        Provenance(source_id="s1")))
    g.add_triple(Triple("Inception", "release_year", "2011",
                        Provenance(source_id="s2")))
    g.add_triple(Triple("Book", "author", "Alice Adams",
                        Provenance(source_id="s1")))
    return g


class TestDecompose:
    def test_multi_value(self):
        assert decompose_answer("2010; 2011") == ["2010", "2011"]

    def test_single(self):
        assert decompose_answer("2010") == ["2010"]

    def test_refusal_asserts_nothing(self):
        assert decompose_answer("No trustworthy answer was found for: q") == []

    def test_empty(self):
        assert decompose_answer("  ") == []


class TestCheckAnswer:
    def test_supported(self, graph):
        check = check_answer(graph, "Inception", "release_year", "2010")
        assert check.is_grounded()
        assert check.verdicts[0].verdict == "supported"
        assert check.verdicts[0].supporting_sources == ("s1",)
        assert check.intensity() == 0.0

    def test_contradicted(self, graph):
        check = check_answer(graph, "Inception", "release_year", "1999")
        assert check.verdicts[0].verdict == "contradicted"
        assert check.intensity() == 1.0

    def test_fabricated(self, graph):
        check = check_answer(graph, "Inception", "runtime", "148")
        assert check.verdicts[0].verdict == "fabricated"

    def test_mixed_intensity(self, graph):
        check = check_answer(graph, "Inception", "release_year", "2010; 1999")
        assert check.intensity() == 0.5
        assert len(check.supported) == 1
        assert len(check.hallucinated) == 1

    def test_variant_spelling_supported(self, graph):
        check = check_answer(graph, "Book", "author", "Adams, Alice")
        assert check.is_grounded()

    def test_empty_answer_clean(self, graph):
        check = check_answer(graph, "Inception", "release_year", "")
        assert check.intensity() == 0.0
        assert check.verdicts == []


class TestHallucinationRate:
    def test_rate(self, graph):
        checks = [
            check_answer(graph, "Inception", "release_year", "2010"),
            check_answer(graph, "Inception", "release_year", "1999"),
        ]
        assert hallucination_rate(checks) == 0.5

    def test_empty(self):
        assert hallucination_rate([]) == 0.0


class TestPipelineIntegration:
    def test_multirag_answers_are_grounded(self, pipeline):
        result = pipeline.run(Query.text("What is the release year of Inception?"))
        check = check_answer(
            pipeline.fusion.graph, "Inception", "release_year",
            result.generated_text,
        )
        assert check.is_grounded()
