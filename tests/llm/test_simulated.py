"""Tests for the deterministic simulated LLM."""

from __future__ import annotations

import pytest

from repro.llm import SimulatedLLM, Stage
from repro.llm.simulated import _destyle

TEXT = (
    "Inception was directed by Christopher Nolan. "
    "Inception was released in the year 2010. "
    "Heat was directed by Michael Mann."
)


@pytest.fixture()
def llm() -> SimulatedLLM:
    return SimulatedLLM(seed=3, extraction_noise=0.0)


class TestExtraction:
    def test_ner_finds_all_entities(self, llm):
        names = {e["name"] for e in llm.extract_entities(TEXT)}
        assert {"Inception", "Christopher Nolan", "2010", "Heat",
                "Michael Mann"} <= names

    def test_ner_types(self, llm):
        by_name = {e["name"]: e["type"] for e in llm.extract_entities(TEXT)}
        assert by_name["Inception"] == "movie"
        assert by_name["Christopher Nolan"] == "person"
        assert by_name["2010"] == "year"

    def test_triples_extracted(self, llm):
        entities = [e["name"] for e in llm.extract_entities(TEXT)]
        triples = llm.extract_triples(TEXT, entities)
        assert ["Inception", "directed_by", "Christopher Nolan"] in triples
        assert ["Heat", "directed_by", "Michael Mann"] in triples

    def test_triples_respect_entity_list(self, llm):
        triples = llm.extract_triples(TEXT, ["Heat"])
        subjects = {t[0] for t in triples}
        assert subjects == {"Heat"}

    def test_empty_entity_list_means_unrestricted(self, llm):
        triples = llm.extract_triples(TEXT, [])
        assert len(triples) == 3

    def test_standardize_merges_variants(self, llm):
        mapping = llm.standardize("", ["Christopher Nolan", "christopher  nolan"])
        assert mapping["christopher  nolan"] == mapping["Christopher Nolan"]

    def test_standardize_destyles(self, llm):
        mapping = llm.standardize("", ["Nolan, Christopher", "Christopher Nolan"])
        assert mapping["Nolan, Christopher"] == "Christopher Nolan"


class TestNoise:
    def test_noise_drops_some_extractions(self):
        noisy = SimulatedLLM(seed=1, extraction_noise=0.6)
        long_text = " ".join(
            f"Movie{i} was directed by Person{i}." for i in range(40)
        )
        triples = noisy.extract_triples(long_text, [])
        assert 0 < len(triples) < 40

    def test_noise_is_deterministic(self):
        a = SimulatedLLM(seed=5, extraction_noise=0.3)
        b = SimulatedLLM(seed=5, extraction_noise=0.3)
        text = " ".join(f"Movie{i} was directed by Person{i}." for i in range(20))
        assert a.extract_triples(text, []) == b.extract_triples(text, [])

    def test_different_seeds_differ(self):
        text = " ".join(f"Movie{i} was directed by Person{i}." for i in range(30))
        a = SimulatedLLM(seed=1, extraction_noise=0.4).extract_triples(text, [])
        b = SimulatedLLM(seed=2, extraction_noise=0.4).extract_triples(text, [])
        assert a != b

    def test_invalid_noise(self):
        with pytest.raises(ValueError):
            SimulatedLLM(extraction_noise=1.5)


class TestScoring:
    def test_relevance_range_and_order(self, llm):
        high = llm.relevance("Inception Nolan", "Inception was directed by Christopher Nolan")
        low = llm.relevance("Inception Nolan", "completely unrelated text body")
        assert 0.0 <= low < high <= 1.0

    def test_relevance_empty_query(self, llm):
        assert llm.relevance("", "text") == 0.0

    def test_authority_monotone_in_features(self, llm):
        weak = llm.authority({"agreement": 0.1, "degree": 0.1,
                              "type_consistency": 0.0, "path_support": 0.0})
        strong = llm.authority({"agreement": 0.9, "degree": 0.9,
                                "type_consistency": 1.0, "path_support": 1.0})
        assert strong > weak

    def test_authority_in_unit_interval(self, llm):
        value = llm.authority({"agreement": 1.0, "degree": 1.0,
                               "type_consistency": 1.0, "path_support": 1.0})
        assert 0.0 <= value <= 1.0


class TestGeneration:
    def test_answer_from_evidence(self, llm):
        answer = llm.generate_answer(
            "What is the release year of Inception?",
            ["Inception | release_year | 2010 | confidence=0.9 | source=s1"],
        )
        assert "2010" in answer

    def test_answer_dedupes_values(self, llm):
        answer = llm.generate_answer(
            "q",
            ["E | a | 2010 | c | s1", "E | a | 2010 | c | s2"],
        )
        assert answer == "2010"

    def test_no_evidence_answer(self, llm):
        answer = llm.generate_answer("my question", [])
        assert "my question" in answer

    def test_parametric_with_oracle(self):
        llm = SimulatedLLM(
            seed=0, knowledge={"E|a": {"v1"}}, knowledge_accuracy=1.0
        )
        assert llm.parametric_answer("E|a") == "v1"

    def test_parametric_hallucination(self):
        llm = SimulatedLLM(
            seed=0, knowledge={}, knowledge_accuracy=0.0,
            hallucination_pool=("made-up",),
        )
        assert llm.parametric_answer("E|a") == "made-up"

    def test_unknown_task_refusal(self, llm):
        out = llm.complete("### TASK: dance\n### END\n", stage=Stage.OTHER)
        assert "cannot" in out.text.lower()


class TestAccounting:
    def test_meter_accumulates(self, llm):
        before = llm.meter.calls
        llm.relevance("a", "b")
        llm.relevance("a", "c")
        assert llm.meter.calls == before + 2
        assert llm.meter.simulated_latency_s > 0.0

    def test_meter_by_stage(self, llm):
        llm.extract_entities("Inception was directed by Nolan.")
        assert llm.meter.by_stage["ner"].calls == 1

    def test_meter_stage_attribution(self, llm):
        llm.relevance("a", "b")
        mark = llm.meter.checkpoint()
        llm.relevance("a", "c")
        delta = llm.meter.delta(mark)
        assert delta["calls"] == 1
        assert delta["simulated_latency_s"] > 0.0


class TestDestyle:
    @pytest.mark.parametrize(
        "variant,canonical",
        [
            ("Nolan, Christopher", "Christopher Nolan"),
            ("$249.74", "249.74"),
            ("715,000", "715000"),
            ("Silent Horizon, The", "The Silent Horizon"),
            ("Christopher Nolan", "Christopher Nolan"),
            ("14:30", "14:30"),
            ("NYSE", "NYSE"),
        ],
    )
    def test_destyle(self, variant, canonical):
        assert _destyle(variant) == canonical
