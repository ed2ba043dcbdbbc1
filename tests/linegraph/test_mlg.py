"""Tests for the multi-source line graph index."""

from __future__ import annotations

from repro.kg import KnowledgeGraph, Provenance, Triple
from repro.linegraph import MultiSourceLineGraph


class TestMultiSourceLineGraph:
    def test_group_lookup(self, tiny_graph):
        mlg = MultiSourceLineGraph(tiny_graph)
        group = mlg.group("Inception", "release_year")
        assert group is not None
        assert group.snode.num == 3

    def test_missing_group(self, tiny_graph):
        mlg = MultiSourceLineGraph(tiny_graph)
        assert mlg.group("Inception", "nonexistent") is None

    def test_isolated_claims_lookup(self, tiny_graph):
        mlg = MultiSourceLineGraph(tiny_graph)
        claims = mlg.isolated_claims("Heat", "directed_by")
        assert len(claims) == 1
        assert claims[0].obj == "Michael Mann"

    def test_candidates_merges_group_and_isolated(self, tiny_graph):
        mlg = MultiSourceLineGraph(tiny_graph)
        assert len(mlg.candidates("Inception", "release_year")) == 3
        assert len(mlg.candidates("Heat", "directed_by")) == 1
        assert mlg.candidates("Nope", "nope") == []

    def test_stats(self, tiny_graph):
        stats = MultiSourceLineGraph(tiny_graph).stats()
        assert stats["groups"] == 2
        assert stats["isolated"] == 1
        assert stats["triples"] == 6
        assert stats["max_group_size"] == 3
        assert stats["build_time_s"] >= 0.0

    def test_empty_graph(self):
        mlg = MultiSourceLineGraph(KnowledgeGraph("empty"))
        assert mlg.stats()["groups"] == 0
        assert mlg.candidates("x", "y") == []

    def test_same_source_repeated_claims_stay_isolated(self):
        # Two claims about one key from ONE source are not multi-source
        # homologous (Definition 3 needs distinct sources).
        graph = KnowledgeGraph()
        prov = Provenance(source_id="only")
        graph.add_triple(Triple("e", "a", "v1", prov))
        graph.add_triple(Triple("e", "a", "v2", prov))
        mlg = MultiSourceLineGraph(graph)
        assert mlg.group("e", "a") is None
        assert len(mlg.isolated_claims("e", "a")) == 2
