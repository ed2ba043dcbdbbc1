"""Tests for the MultiRAG pipeline end to end on the small corpus."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.adapters import RawSource
from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets import make_books, make_hotpot
from repro.exec import Query
from repro.llm.base import LLMClient
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


def _gate_workload(kind: str):
    """Sources and queries of one kind for the generation-gate test."""
    if kind == "chain":
        dataset = make_hotpot(seed=1, scale=0.3)
        return dataset.sources, [
            Query.chain(q.hops) for q in dataset.queries
            if len(q.hops) == 2 and not q.hops_b
        ]
    books = make_books(scale=0.3, seed=1, n_queries=12)
    if kind == "key":
        queries = [Query.key(q.entity, q.attribute) for q in books.queries]
    else:
        # keyword phrasing matches none of the logic form's question
        # shapes, so it takes the open-intent path
        queries = [
            Query.text(f"{q.entity} {q.attribute.replace('_', ' ')}")
            for q in books.queries[:6]
        ]
    return books.raw_sources(), queries


def _evidence_claim(line: str) -> tuple[str, ...]:
    """``(entity, attribute, value, source)`` of one rendered evidence
    line; anything else (say, raw chunk text) stays the line itself."""
    parts = line.split(" | ")
    if len(parts) != 5 or not parts[4].startswith("source="):
        return (line,)
    return (parts[0], parts[1], parts[2], parts[4][len("source="):])


class TestGenerationGate:
    """Only knowledge that passes MCC (Algorithm 1) reaches answer
    synthesis (Algorithm 2).

    A recorder wraps ``LLMClient.generate_answer``, the synthesis sink
    every client inherits.  For each query, the evidence it receives
    must be exactly the accepted assessments of the MCC result the
    query returns, as a multiset, so a path that also forwards rejected
    nodes or raw retrieved text fails here.
    """

    @pytest.mark.parametrize("kind", ["key", "open", "chain"])
    def test_generator_sees_exactly_the_mcc_accepted_evidence(
        self, kind, monkeypatch
    ):
        sources, queries = _gate_workload(kind)
        rag = MultiRAG(MultiRAGConfig(seed=1))
        rag.ingest(sources)
        calls: list[list[str]] = []
        synthesize = LLMClient.generate_answer

        def recorder(llm, query, evidence_lines):
            calls.append(list(evidence_lines))
            return synthesize(llm, query, evidence_lines)

        monkeypatch.setattr(LLMClient, "generate_answer", recorder)
        rejected = 0
        for query in queries:
            before = len(calls)
            result = rag.run(query)
            assert len(calls) == before + 1, query
            if kind == "open":
                assert result.trace[0] == "logic_form: open", query
            mcc = result.mcc
            accepted = Counter(
                (a.triple.subject, a.triple.predicate, a.value, a.source_id)
                for a in (mcc.accepted_assessments() if mcc else [])
            )
            received = Counter(_evidence_claim(line) for line in calls[-1])
            assert received == accepted, query
            rejected += sum(len(d.rejected) for d in mcc.decisions) if mcc else 0
        # MCC rejected nodes on this workload, so forwarding them to the
        # generator could not pass unnoticed.
        assert rejected > 0
