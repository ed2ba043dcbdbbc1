"""Tests for JSON-LD storage: triple statements and graph round trips."""

from __future__ import annotations

import json

import pytest

from repro.kg import (
    JSONLD_CONTEXT,
    KnowledgeGraph,
    Provenance,
    Triple,
    make_jsonld,
    save_graph,
    triple_from_jsonld,
    triple_to_jsonld,
)


class TestJsonLd:
    def test_make_jsonld_has_context_and_id(self):
        doc = make_jsonld("ent:1", {"name": "Inception"})
        assert doc["@context"] == JSONLD_CONTEXT
        assert doc["@id"] == "ent:1"
        assert doc["name"] == "Inception"

    def test_triple_round_trip_with_provenance(self):
        t = Triple(
            "Inception", "directed_by", "Christopher Nolan",
            Provenance("s1", "movies", "csv", record_id="row3"),
        )
        restored = triple_from_jsonld(triple_to_jsonld(t))
        assert restored.spo() == t.spo()
        assert restored.provenance.source_id == "s1"
        assert restored.provenance.record_id == "row3"

    def test_triple_round_trip_without_provenance(self):
        t = Triple("a", "p", "b")
        restored = triple_from_jsonld(triple_to_jsonld(t))
        assert restored.spo() == t.spo()
        assert restored.provenance is None

    def test_from_jsonld_missing_predicate_raises(self):
        with pytest.raises(ValueError):
            triple_from_jsonld({"@id": "x", "@context": "c"})


class TestGraphPersistence:
    def test_save_load_round_trip(self, tmp_path, tiny_graph):
        path = tmp_path / "graph.json"
        save_graph(tiny_graph, path)
        payload = json.loads(path.read_text())
        restored = [triple_from_jsonld(doc) for doc in payload["triples"]]
        assert [t.spo() for t in restored] == [
            t.spo() for t in tiny_graph.triples()
        ]
        assert [t.provenance for t in restored] == [
            t.provenance for t in tiny_graph.triples()
        ]
        assert payload["entities"] == [
            e.to_dict() for e in tiny_graph.entities()
        ]

    def test_load_preserves_name(self, tmp_path):
        g = KnowledgeGraph(name="custom-name")
        g.add_triple(Triple("a", "p", "b"))
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert json.loads(path.read_text())["name"] == "custom-name"
