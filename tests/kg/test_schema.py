"""Tests for the typed relation schema."""

from __future__ import annotations

import pytest

from repro.kg import Schema


@pytest.fixture()
def schema() -> Schema:
    return Schema.default()


class TestDefaultSchema:
    def test_covers_lexicon(self, schema):
        assert schema.kind_of("directed_by") == "person"
        assert schema.kind_of("release_year") == "year"
        assert schema.kind_of("actual_departure") == "time"

    def test_unknown_predicate(self, schema):
        assert schema.kind_of("quux") is None
        assert schema.check("quux", "anything") == 0.5

    def test_predicates_sorted(self, schema):
        predicates = schema.predicates()
        assert predicates == sorted(predicates)
        assert "directed_by" in predicates


class TestChecks:
    @pytest.mark.parametrize("predicate,value,expected", [
        ("release_year", "2010", 1.0),
        ("release_year", "Michael Mann", 0.0),
        ("release_year", "20100", 0.0),
        ("actual_departure", "14:30", 1.0),
        ("actual_departure", "half past two", 0.0),
        ("open_price", "249.74", 1.0),
        ("open_price", "$banana", 0.0),
        ("volume", "715,000", 1.0),
        ("gate", "B12", 1.0),
        ("gate", "not-a-gate-code", 0.0),
        ("directed_by", "Christopher Nolan", 1.0),  # open class
        ("directed_by", "", 0.0),
    ])
    def test_kind_checks(self, schema, predicate, value, expected):
        assert schema.check(predicate, value) == expected


class TestExtension:
    def test_register_new_predicate(self, schema):
        schema.register("ticket_price", "price")
        assert schema.check("ticket_price", "99.50") == 1.0
        assert schema.check("ticket_price", "cheap") == 0.0

    def test_custom_validator(self, schema):
        schema.register(
            "iata_code", "code",
            validator=lambda v: len(v) == 3 and v.isalpha(),
        )
        assert schema.check("iata_code", "PEK") == 1.0
        assert schema.check("iata_code", "PEKX") == 0.0

    def test_override_existing(self, schema):
        schema.register("release_year", "plain")
        # "plain" has no validator: any non-empty string passes.
        assert schema.check("release_year", "whenever") == 1.0


class TestScorerIntegration:
    def test_custom_schema_changes_authority(self):
        from repro.confidence import HistoryStore, NodeScorer
        from repro.kg import KnowledgeGraph, Provenance, Triple
        from repro.linegraph import match_homologous
        from repro.llm import SimulatedLLM

        graph = KnowledgeGraph()
        graph.add_triple(Triple("E", "custom_attr", "12:34",
                                Provenance(source_id="s1")))
        graph.add_triple(Triple("E", "custom_attr", "banana",
                                Provenance(source_id="s2")))
        group = match_homologous(graph).groups[0]

        strict = Schema.default()
        strict.register("custom_attr", "time")
        scorer = NodeScorer(graph, SimulatedLLM(seed=0), HistoryStore(),
                            schema=strict)
        good = next(m for m in group.members if m.obj == "12:34")
        bad = next(m for m in group.members if m.obj == "banana")
        table = scorer.group_table(group)
        assert scorer.auth_llm(good, table) > scorer.auth_llm(bad, table)
