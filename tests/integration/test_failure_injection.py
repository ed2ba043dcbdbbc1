"""Failure injection: malformed inputs and misbehaving models.

A production pipeline fails *loudly and specifically* on bad input, and
degrades gracefully when the LLM misbehaves.
"""

from __future__ import annotations

import json

import pytest

from repro.adapters import DataFusionEngine, RawSource
from repro.core import MultiRAG, MultiRAGConfig
from repro.errors import AdapterError, ExtractionError, UnknownFormatError
from repro.exec import Query
from repro.kg import Provenance
from repro.llm import SchemaFreeExtractor, SimulatedLLM
from repro.llm.extraction import ExtractionResult


class GarbageLLM(SimulatedLLM):
    """A model that answers every prompt with non-JSON prose."""

    def _generate(self, prompt: str) -> str:
        return "I'm sorry, as a language model I cannot produce JSON."


class HalfGarbageLLM(SimulatedLLM):
    """Valid NER, garbage triples — partial misbehavior."""

    def _generate(self, prompt: str) -> str:
        if "### TASK: triple" in prompt:
            return "not json at all"
        return super()._generate(prompt)


class TestMalformedSources:
    def test_bad_csv_fails_with_adapter_error(self):
        engine = DataFusionEngine(llm=SimulatedLLM(seed=0))
        bad = RawSource("s", "d", "csv", "bad.csv", "only_one_column\nx\n")
        with pytest.raises(AdapterError):
            engine.fuse([bad])

    def test_bad_xml_fails(self):
        engine = DataFusionEngine(llm=SimulatedLLM(seed=0))
        bad = RawSource("s", "d", "xml", "bad.xml", "<open><unclosed></open>")
        with pytest.raises(AdapterError):
            engine.fuse([bad])

    def test_unknown_format_fails(self):
        engine = DataFusionEngine(llm=SimulatedLLM(seed=0))
        bad = RawSource("s", "d", "parquet", "f.parquet", b"\x00")
        with pytest.raises(UnknownFormatError):
            engine.fuse([bad])

    def test_error_message_names_the_source(self):
        engine = DataFusionEngine(llm=SimulatedLLM(seed=0))
        bad = RawSource("the-culprit", "d", "kg", "k", {"triples": [["a", "b"]]})
        with pytest.raises(AdapterError, match="the-culprit"):
            engine.fuse([bad])

    def test_one_bad_source_does_not_corrupt_state(self, sources):
        # Fusing a good batch after a failed batch works on a new engine
        # call — the engine holds no partial state between fuse() calls.
        engine = DataFusionEngine(llm=SimulatedLLM(seed=0, extraction_noise=0.0))
        with pytest.raises(AdapterError):
            engine.fuse([RawSource("s", "d", "csv", "b.csv", "x\ny\n")])
        result = engine.fuse(sources)
        assert len(result.graph) > 0


class TestMisbehavingLLM:
    def test_garbage_extraction_raises_extraction_error(self):
        extractor = SchemaFreeExtractor(GarbageLLM(seed=0))
        with pytest.raises(ExtractionError, match="NER phase"):
            extractor.extract("Some text.", Provenance(source_id="s"))

    def test_partial_garbage_names_failing_phase(self):
        extractor = SchemaFreeExtractor(HalfGarbageLLM(seed=0))
        with pytest.raises(ExtractionError, match="triple phase"):
            extractor.extract(
                "Inception was directed by Nolan.", Provenance(source_id="s")
            )

    def test_pipeline_with_garbage_llm_fails_loudly_on_text(self):
        rag = MultiRAG(MultiRAGConfig(), llm=GarbageLLM(seed=0))
        text_source = RawSource("s", "d", "text", "t.txt",
                                "Inception was directed by Nolan.")
        with pytest.raises(ExtractionError):
            rag.ingest([text_source])

    def test_structured_only_ingest_survives_garbage_std(self):
        # Standardization consumes LLM JSON too; garbage there must not
        # silently corrupt the graph.
        rag = MultiRAG(MultiRAGConfig(), llm=GarbageLLM(seed=0))
        csv_source = RawSource("s", "d", "csv", "c.csv",
                               "title,year\nInception,2010\n")
        with pytest.raises((ExtractionError, json.JSONDecodeError, ValueError)):
            rag.ingest([csv_source])


class TestEmptyInputs:
    def test_ingest_no_sources(self):
        rag = MultiRAG(MultiRAGConfig())
        report = rag.ingest([])
        assert report.num_triples == 0
        result = rag.run(Query.text("Who directed Inception?"))
        assert result.answers == []

    def test_extractor_empty_result_is_not_an_error(self):
        extractor = SchemaFreeExtractor(SimulatedLLM(seed=0))
        result = extractor.extract(
            "No statements here whatsoever.", Provenance(source_id="s")
        )
        assert isinstance(result, ExtractionResult)
        assert result.triples == []
