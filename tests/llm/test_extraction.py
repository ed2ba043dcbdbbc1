"""Tests for the three-phase SchemaFreeExtractor."""

from __future__ import annotations

import pytest

from repro.kg import Provenance
from repro.llm import SchemaFreeExtractor, SimulatedLLM

TEXT = (
    "Inception was directed by Christopher Nolan. "
    "Inception was released in the year 2010."
)

PROV = Provenance(source_id="src-t", domain="movies", fmt="text", chunk_id="d#c0")


@pytest.fixture()
def extractor() -> SchemaFreeExtractor:
    return SchemaFreeExtractor(SimulatedLLM(seed=11, extraction_noise=0.0))


class TestExtract:
    def test_triples_carry_provenance(self, extractor):
        result = extractor.extract(TEXT, PROV)
        assert result.triples
        for triple in result.triples:
            assert triple.provenance == PROV

    def test_expected_triples(self, extractor):
        result = extractor.extract(TEXT, PROV)
        spos = {t.spo() for t in result.triples}
        assert ("Inception", "directed_by", "Christopher Nolan") in spos
        assert ("Inception", "release_year", "2010") in spos

    def test_entities_deduplicated(self, extractor):
        result = extractor.extract(TEXT, PROV)
        names = [e.name for e in result.entities]
        assert len(names) == len(set(names))
        assert "Inception" in names

    def test_entity_ids_stable(self, extractor):
        r1 = extractor.extract(TEXT, PROV)
        r2 = extractor.extract(TEXT, PROV)
        assert [e.eid for e in r1.entities] == [e.eid for e in r2.entities]

    def test_variant_mentions_standardized(self, extractor):
        text = (
            "Inception was directed by Nolan, Christopher. "
            "Memento was directed by Christopher Nolan."
        )
        result = extractor.extract(text, PROV)
        directors = {t.obj for t in result.triples if t.predicate == "directed_by"}
        assert directors == {"Christopher Nolan"}

    def test_empty_text(self, extractor):
        result = extractor.extract("", PROV)
        assert result.triples == []
        assert result.entities == []

    def test_unparseable_text(self, extractor):
        result = extractor.extract("Nothing extractable here at all.", PROV)
        assert result.triples == []

    def test_llm_usage_recorded(self):
        llm = SimulatedLLM(seed=1, extraction_noise=0.0)
        SchemaFreeExtractor(llm).extract(TEXT, PROV)
        assert llm.meter.by_stage["ner"].calls == 1
        assert llm.meter.by_stage["triple"].calls == 1
        assert llm.meter.by_stage["std"].calls == 1
