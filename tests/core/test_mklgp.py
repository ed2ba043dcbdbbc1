"""Tests for the annotated MKLGP procedure (Algorithm 2)."""

from __future__ import annotations

from repro.core import mklgp
from repro.exec import Query


class TestMKLGP:
    def test_returns_result_and_trace(self, pipeline):
        result, trace = mklgp(pipeline, "What is the release year of Inception?")
        assert {a.value for a in result.answers} == {"2010"}
        assert trace.logic_form is not None
        assert trace.logic_form.is_structured

    def test_documents_cover_sources(self, pipeline):
        _, trace = mklgp(pipeline, "What is the release year of Inception?")
        assert trace.documents
        sources = {d.source_id for d in trace.documents}
        assert len(sources) >= 2

    def test_candidates_recorded(self, pipeline):
        _, trace = mklgp(pipeline, "What is the release year of Inception?")
        assert len(trace.candidates) >= 3
        assert trace.mcc is not None

    def test_matches_plain_query(self, pipeline):
        question = "Who directed Heat?"
        result, _ = mklgp(pipeline, question)
        direct = pipeline.run(Query.text(question))
        assert {a.value for a in result.answers} == {
            a.value for a in direct.answers
        }
