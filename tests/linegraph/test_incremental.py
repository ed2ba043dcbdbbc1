"""Tests for incremental MLG maintenance."""

from __future__ import annotations

import pytest

from repro.exec import Query
from repro.kg import KnowledgeGraph, Provenance, Triple
from repro.linegraph import LineGraph, MultiSourceLineGraph


def t(s, p, o, src):
    return Triple(s, p, o, Provenance(source_id=src, domain="d"))


@pytest.fixture()
def mlg(tiny_graph) -> MultiSourceLineGraph:
    return MultiSourceLineGraph(tiny_graph)


class TestAddTriples:
    def test_join_existing_group(self, mlg, tiny_graph):
        new = t("Inception", "release_year", "2010", "s9")
        tiny_graph.add_triple(new)
        stats = mlg.add_triples([new])
        assert stats["joined"] == 1
        group = mlg.group("Inception", "release_year")
        assert group.snode.num == 4
        assert new in group.members

    def test_promote_isolated_to_group(self, mlg, tiny_graph):
        # ("Heat", "directed_by") is isolated with one s1 claim.
        new = t("Heat", "directed_by", "Michael Mann", "s7")
        tiny_graph.add_triple(new)
        stats = mlg.add_triples([new])
        assert stats["promoted"] == 1
        group = mlg.group("Heat", "directed_by")
        assert group is not None
        assert group.snode.num == 2
        assert mlg.isolated_claims("Heat", "directed_by") == []

    def test_new_key_stays_isolated(self, mlg, tiny_graph):
        new = t("Heat", "release_year", "1995", "s1")
        tiny_graph.add_triple(new)
        stats = mlg.add_triples([new])
        assert stats["isolated"] == 1
        assert mlg.group("Heat", "release_year") is None
        assert len(mlg.isolated_claims("Heat", "release_year")) == 1

    def test_same_source_repeat_does_not_promote(self, mlg, tiny_graph):
        new = t("Heat", "directed_by", "Someone Else", "s1")
        tiny_graph.add_triple(new)
        stats = mlg.add_triples([new])
        assert stats["isolated"] == 1
        assert mlg.group("Heat", "directed_by") is None

    def test_incremental_matches_full_rebuild(self, tiny_graph):
        additions = [
            t("Inception", "release_year", "2012", "s8"),
            t("Heat", "directed_by", "Michael Mann", "s5"),
            t("NewFilm", "genre", "drama", "s1"),
            t("NewFilm", "genre", "comedy", "s2"),
        ]
        incremental = MultiSourceLineGraph(tiny_graph)
        for triple in additions:
            tiny_graph.add_triple(triple)
        incremental.add_triples(additions)
        rebuilt = MultiSourceLineGraph(tiny_graph)

        inc_keys = {g.key: g.snode.num for g in incremental.groups}
        full_keys = {g.key: g.snode.num for g in rebuilt.groups}
        assert inc_keys == full_keys
        assert len(incremental.isolated) == len(rebuilt.isolated)

    def test_candidates_after_update(self, mlg, tiny_graph):
        new = t("Inception", "release_year", "2013", "sX")
        tiny_graph.add_triple(new)
        mlg.add_triples([new])
        values = {c.obj for c in mlg.candidates("Inception", "release_year")}
        assert "2013" in values

    def test_line_graph_extended(self, mlg, tiny_graph):
        # two inputs: a view built before the add, and one never read
        unbuilt = MultiSourceLineGraph(tiny_graph)
        before = len(mlg.line_graph)
        new = t("Inception", "runtime", "148", "s1")
        tiny_graph.add_triple(new)
        mlg.add_triples([new])
        unbuilt.add_triples([new])
        assert unbuilt._line_graph is None
        for graph in (mlg, unbuilt):
            assert len(graph.line_graph) == before + 1
            assert graph.line_graph.contains(new)
            assert graph.line_graph.nodes == LineGraph(
                tiny_graph.triples()
            ).nodes


class TestPipelineAddSource:
    def test_add_source_end_to_end(self, pipeline):
        from repro.adapters import RawSource

        before = pipeline.run(Query.key("Inception", "release_year"))
        new_source = RawSource(
            "late-arrival", "movies", "csv", "late.csv",
            "title,release_year,runtime\nInception,2010,148\n",
        )
        stats = pipeline.add_source(new_source)
        assert stats["claims_added"] == 2
        after = pipeline.run(Query.key("Inception", "release_year"))
        assert "late-arrival" in {
            s for a in after.answers for s in a.sources
        }
        assert {a.value for a in after.answers} == {
            a.value for a in before.answers
        }

    def test_add_source_new_entity_queryable(self, pipeline):
        from repro.adapters import RawSource

        pipeline.add_source(RawSource(
            "s-new", "movies", "csv", "n.csv",
            "title,directed_by\nBrand New Film,Fresh Director\n",
        ))
        pipeline.add_source(RawSource(
            "s-new2", "movies", "csv", "n2.csv",
            "title,directed_by\nBrand New Film,Fresh Director\n",
        ))
        result = pipeline.run(Query.text("Who directed Brand New Film?"))
        assert {a.value for a in result.answers} == {"Fresh Director"}

    def test_add_text_source_extracted(self, pipeline):
        from repro.adapters import RawSource

        graph_before = len(pipeline.fusion.graph)
        pipeline.add_source(RawSource(
            "s-text-2", "movies", "text", "extra.txt",
            "Heat was released in the year 1995.",
        ))
        assert len(pipeline.fusion.graph) > graph_before

    def test_add_source_requires_ingest(self):
        from repro.adapters import RawSource
        from repro.core import MultiRAG, MultiRAGConfig

        from repro.errors import StateError

        rag = MultiRAG(MultiRAGConfig())
        with pytest.raises(StateError):
            rag.add_source(RawSource("s", "d", "csv", "n", "a,b\nx,y\n"))
