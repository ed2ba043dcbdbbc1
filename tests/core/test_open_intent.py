"""Tests for the open-intent (free-form question) fallback path."""

from __future__ import annotations

from repro.exec import Query


class TestOpenIntent:
    def test_freeform_phrasing_answers(self, pipeline):
        result = pipeline.run(Query.text("tell me the directed by for Inception please"))
        assert result.trace[0] == "logic_form: open"
        assert {a.value for a in result.answers} == {"Christopher Nolan"}

    def test_keyword_style_query(self, pipeline):
        result = pipeline.run(Query.text("Inception release year info"))
        assert {a.value for a in result.answers} == {"2010"}

    def test_conflicts_still_filtered_on_open_path(self, pipeline):
        # The JSON source claims 2011; the open path must filter it too.
        result = pipeline.run(Query.text("Inception release year info"))
        assert "2011" not in {a.value for a in result.answers}

    def test_unrelated_question_empty(self, pipeline):
        result = pipeline.run(Query.text("what is the meaning of life"))
        assert result.answers == []
        assert result.candidates_considered == 0

    def test_open_candidates_deduplicated(self, pipeline):
        result = pipeline.run(Query.text("Inception release year info"))
        candidates = result.stage_values["before_subgraph_filtering"]
        # One claim per (statement, source): csv + json + kg + text = 4.
        assert 2 <= len(candidates) <= 6

    def test_open_path_records_stages(self, pipeline):
        result = pipeline.run(Query.text("Heat genre drama or what"))
        assert "before_subgraph_filtering" in result.stage_values
        assert "after_node_filtering" in result.stage_values
