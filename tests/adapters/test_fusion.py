"""Tests for the data fusion engine (Eq. 2) and the registry."""

from __future__ import annotations

import pytest

from repro.adapters import (
    ADAPTER_REGISTRY,
    DataFusionEngine,
    RawSource,
    get_adapter,
    register_adapter,
)
from repro.adapters.base import Adapter, AdapterOutput
from repro.errors import UnknownFormatError
from repro.kg.storage import NormalizedRecord
from repro.llm import SimulatedLLM


class TestRegistry:
    def test_all_formats_registered(self):
        assert {"csv", "json", "xml", "kg", "text"} <= set(ADAPTER_REGISTRY)

    def test_get_adapter_unknown(self):
        with pytest.raises(UnknownFormatError):
            get_adapter("parquet")

    def test_register_requires_fmt(self):
        class Nameless(Adapter):
            fmt = ""

            def parse(self, raw):  # pragma: no cover
                return AdapterOutput(record=NormalizedRecord("r", "d", "n", {}))

        with pytest.raises(ValueError):
            register_adapter(Nameless())


class TestFusionEngine:
    def test_fuse_all_formats(self, fused):
        # CSV(3 movies x 3 attrs) + JSON + XML + KG + extracted text.
        assert len(fused.graph) > 10
        assert fused.chunks

    def test_conflicting_claims_coexist(self, fused):
        values = {t.obj for t in fused.graph.by_key("Inception", "release_year")}
        assert {"2010", "2011"} <= values

    def test_text_source_extracted(self, fused):
        text_triples = [
            t for t in fused.graph.triples()
            if t.provenance and t.provenance.fmt == "text"
        ]
        assert text_triples
        assert fused.extraction_calls > 0

    def test_entities_registered_with_attributes(self, fused):
        entity = fused.graph.entity("Inception")
        assert "2010" in entity.get("release_year")

    def test_chunks_cover_all_sources(self, fused, sources):
        chunk_sources = {c.source_id for c in fused.chunks}
        assert chunk_sources == {s.source_id for s in sources}

    def test_build_time_recorded(self, fused):
        assert fused.build_time_s > 0.0


class TestStandardization:
    def test_variants_unified(self, sources):
        extra = RawSource(
            "src-variant", "movies", "csv", "v.csv",
            'title,directed_by\nInception,"Nolan, Christopher"\n',
        )
        llm = SimulatedLLM(seed=1, extraction_noise=0.0)
        engine = DataFusionEngine(llm=llm, standardize=True)
        result = engine.fuse(sources + [extra])
        directors = {
            t.obj for t in result.graph.by_key("Inception", "directed_by")
        }
        assert directors == {"Christopher Nolan"}

    def test_without_standardization_variants_split(self, sources):
        extra = RawSource(
            "src-variant", "movies", "csv", "v.csv",
            'title,directed_by\nInception,"Nolan, Christopher"\n',
        )
        llm = SimulatedLLM(seed=1, extraction_noise=0.0)
        engine = DataFusionEngine(llm=llm, standardize=False)
        result = engine.fuse(sources + [extra])
        directors = {
            t.obj for t in result.graph.by_key("Inception", "directed_by")
        }
        assert "Nolan, Christopher" in directors
        assert "Christopher Nolan" in directors

    def test_standardization_preserves_claim_count(self, sources):
        llm = SimulatedLLM(seed=1, extraction_noise=0.0)
        plain = DataFusionEngine(llm=SimulatedLLM(seed=1, extraction_noise=0.0),
                                 standardize=False).fuse(sources)
        std = DataFusionEngine(llm=llm, standardize=True).fuse(sources)
        assert len(std.graph) == len(plain.graph)
