"""Tests for the MultiRAG pipeline end to end on the small corpus."""

from __future__ import annotations

import pytest

from repro.adapters import RawSource
from repro.core import MultiRAG, MultiRAGConfig
from repro.exec import Query
from repro.llm.stage import Stage


class TestIngest:
    def test_build_report(self, pipeline):
        report = pipeline.ingest(
            __import__("tests.conftest", fromlist=["make_sources"]).make_sources()
        )
        assert report.num_triples > 10
        assert report.num_chunks > 0
        assert report.construction_time_s > 0
        assert report.mlg_stats["groups"] >= 2

    def test_query_before_ingest_raises(self):
        from repro.errors import StateError

        with pytest.raises(StateError):
            MultiRAG(MultiRAGConfig()).run(Query.text("Who directed Inception?"))

    def test_mlg_absent_without_mka(self, sources):
        rag = MultiRAG(MultiRAGConfig(enable_mka=False, extraction_noise=0.0))
        report = rag.ingest(sources)
        assert rag.mlg is None
        assert report.mlg_stats == {}


class TestQuery:
    def test_conflict_resolved(self, pipeline):
        # src-json claims 2011; three sources say 2010.
        result = pipeline.run(Query.text("What is the release year of Inception?"))
        values = {a.value for a in result.answers}
        assert values == {"2010"}

    def test_unanimous_answer(self, pipeline):
        result = pipeline.run(Query.text("Who directed Heat?"))
        assert {a.value for a in result.answers} == {"Michael Mann"}

    def test_answer_confidence_and_sources(self, pipeline):
        result = pipeline.run(Query.text("What is the release year of Inception?"))
        top = result.top()
        assert top is not None
        assert 0.0 < top.confidence <= 1.0
        assert len(top.sources) >= 2

    def test_generated_text_contains_answer(self, pipeline):
        result = pipeline.run(Query.text("What is the release year of Inception?"))
        assert "2010" in result.generated_text

    def test_stage_values_monotone_filtering(self, pipeline):
        result = pipeline.run(Query.text("What is the release year of Inception?"))
        before = result.stage_values["before_subgraph_filtering"]
        mid = result.stage_values["before_node_filtering"]
        after = result.stage_values["after_node_filtering"]
        assert len(before) >= len(mid) >= len(after) >= 1

    def test_unknown_entity_empty_answer(self, pipeline):
        result = pipeline.run(Query.text("What is the release year of Unknown Movie?"))
        assert result.answers == []
        assert "No trustworthy answer" in result.generated_text

    def test_timing_recorded(self, pipeline):
        result = pipeline.run(Query.text("Who directed Heat?"))
        assert result.query_time_s > 0
        assert result.prompt_time_s > 0

    def test_prompt_time_is_the_exact_meter_delta(self, pipeline):
        """``prompt_time_s`` is the meter's integer-nanosecond delta in
        seconds, free of the float noise of subtracting two running
        totals (the meter already holds the ingest's extraction time)."""
        meter = pipeline.llm.meter
        assert meter.latency_ns > 0
        queries = [
            Query.text("What is the release year of Inception?"),
            Query.text("Who directed Heat?"),
            Query.key("Arrival", "genre"),
            Query.key("Inception", "directed_by"),
            Query.chain([("Inception", "directed_by"), (None, "born_in")]),
        ]
        for query in queries:
            before = meter.latency_ns
            result = pipeline.run(query)
            assert result.prompt_time_s == (meter.latency_ns - before) / 1e9

    def test_query_key_shortcut(self, pipeline):
        a = pipeline.run(Query.text("Inception | release_year"))
        b = pipeline.run(Query.key("Inception", "release_year"))
        assert {x.value for x in a.answers} == {x.value for x in b.answers}

    def test_entity_resolution_case_insensitive(self, pipeline):
        result = pipeline.run(Query.text("What is the release year of inception?"))
        assert {a.value for a in result.answers} == {"2010"}

    def test_answer_set_top_k(self, pipeline):
        result = pipeline.run(Query.text("What is the release year of Inception?"))
        assert result.answer_set(top_k=1) == {"2010"}


class TestQueryChain:
    HOPS = [("Inception", "directed_by"), (None, "born_in")]

    @staticmethod
    def _bio_pipeline(sources):
        extra = RawSource(
            "src-bio", "wiki", "text", "bio",
            "Christopher Nolan was born in London. "
            "London is located in United Kingdom.",
        )
        rag = MultiRAG(MultiRAGConfig(extraction_noise=0.0))
        rag.ingest(sources + [extra])
        return rag

    def test_two_hop_chain(self, sources):
        rag = self._bio_pipeline(sources)
        result = rag.run(Query.chain(self.HOPS))
        assert {a.value for a in result.answers} == {"London"}

    def test_only_the_final_hop_generates(self, sources):
        rag = self._bio_pipeline(sources)
        before = rag.llm.meter.checkpoint()
        result = rag.run(Query.chain(self.HOPS))
        usage = rag.llm.meter.stage_delta(before)
        assert usage[Stage.SYNTHESIS.value].calls == 1
        assert "London" in result.generated_text

    def test_broken_chain(self, pipeline):
        before = pipeline.llm.meter.checkpoint()
        result = pipeline.run(Query.chain([
            ("Inception", "nonexistent_attr"),
            (None, "born_in"),
        ]))
        assert result.answers == []
        assert any("chain broken" in t for t in result.trace)
        assert result.generated_text == ""
        usage = pipeline.llm.meter.stage_delta(before)
        assert Stage.SYNTHESIS.value not in usage


class TestHistoryIntegration:
    def test_history_updated_by_queries(self, pipeline):
        before = dict(pipeline.history.snapshot())
        pipeline.run(Query.text("What is the release year of Inception?"))
        after = pipeline.history.snapshot()
        assert after != before or len(after) > len(before)

    def test_contradicting_source_loses_credibility(self, sources):
        rag = MultiRAG(MultiRAGConfig(extraction_noise=0.0))
        rag.ingest(sources)
        for _ in range(5):
            rag.run(Query.text("What is the release year of Inception?"))
        snap = rag.history.snapshot()
        # src-json claimed 2011 against the 2010 consensus.
        assert snap["src-json"] < snap["src-csv"]

    def test_no_updates_when_disabled(self, sources):
        rag = MultiRAG(MultiRAGConfig(update_history=False, extraction_noise=0.0))
        rag.ingest(sources)
        rag.run(Query.text("What is the release year of Inception?"))
        assert rag.history.snapshot() == {}
