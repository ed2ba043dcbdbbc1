"""Tests for homologous matching (Definitions 3–4)."""

from __future__ import annotations

from repro.linegraph import match_homologous


class TestMatchHomologous:
    def test_multi_source_key_becomes_group(self, tiny_graph):
        result = match_homologous(tiny_graph)
        keys = {g.key for g in result.groups}
        assert ("Inception", "release_year") in keys
        assert ("Inception", "directed_by") in keys

    def test_single_source_key_isolated(self, tiny_graph):
        result = match_homologous(tiny_graph)
        isolated_keys = {t.key() for t in result.isolated}
        assert ("Heat", "directed_by") in isolated_keys

    def test_snode_metadata(self, tiny_graph):
        result = match_homologous(tiny_graph)
        group = result.group_index()[("Inception", "release_year")]
        assert group.snode.name == "release_year"
        assert group.snode.entity == "Inception"
        assert group.snode.num == 3
        assert group.snode.meta["domain"] == "movies"

    def test_group_members_and_values(self, tiny_graph):
        result = match_homologous(tiny_graph)
        group = result.group_index()[("Inception", "release_year")]
        assert sorted(group.values()) == ["2010", "2010", "2011"]
        assert group.sources() == {"s1", "s2", "s3"}

    def test_min_sources_threshold(self, tiny_graph):
        result = match_homologous(tiny_graph, min_sources=3)
        keys = {g.key for g in result.groups}
        assert keys == {("Inception", "release_year")}

    def test_entity_attribute_properties(self, tiny_graph):
        result = match_homologous(tiny_graph)
        group = result.group_index()[("Inception", "directed_by")]
        assert group.entity == "Inception"
        assert group.attribute == "directed_by"

    def test_deterministic_group_order(self, tiny_graph):
        r1 = match_homologous(tiny_graph)
        r2 = match_homologous(tiny_graph)
        assert [g.key for g in r1.groups] == [g.key for g in r2.groups]
