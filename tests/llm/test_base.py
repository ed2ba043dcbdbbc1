"""Tests for the LLM client base: accounting and latency model."""

from __future__ import annotations

import pytest

from repro.llm import (
    LLMClient,
    LLMResponse,
    SimulatedLLM,
    Stage,
    UsageMeter,
    count_tokens,
)


class EchoLLM(LLMClient):
    """Minimal concrete client for testing the base accounting."""

    def _generate(self, prompt: str) -> str:
        return "echo " + prompt


class TestCountTokens:
    def test_words(self):
        assert count_tokens("one two three") == 3

    def test_empty(self):
        assert count_tokens("") == 0


class TestLatencyModel:
    def test_latency_grows_with_tokens(self):
        llm = EchoLLM(base_latency_s=0.01, latency_per_token_s=0.001)
        short = llm.complete("hi", stage=Stage.OTHER)
        long = llm.complete("a " * 100, stage=Stage.OTHER)
        assert long.latency_s > short.latency_s

    def test_latency_formula(self):
        llm = EchoLLM(base_latency_s=0.5, latency_per_token_s=0.1)
        response = llm.complete("one two", stage=Stage.OTHER)
        # prompt 2 tokens + completion 3 tokens ("echo one two").
        assert response.prompt_tokens == 2
        assert response.completion_tokens == 3
        assert response.latency_s == pytest.approx(0.5 + 0.1 * 5)


def call_counts(meter: UsageMeter) -> dict[str, int]:
    return {stage: usage.calls for stage, usage in meter.by_stage.items()}


class TestUsageMeter:
    def test_record_and_snapshot(self):
        meter = UsageMeter()
        meter.record(Stage.NER, LLMResponse("x", 10, 5, 0.2))
        meter.record(Stage.NER, LLMResponse("y", 1, 1, 0.1))
        meter.record(Stage.STD, LLMResponse("z", 2, 2, 0.1))
        snap = meter.snapshot()
        assert snap["calls"] == 3
        assert snap["prompt_tokens"] == 13
        assert snap["completion_tokens"] == 8
        assert snap["simulated_latency_s"] == pytest.approx(0.4)
        assert call_counts(meter) == {"ner": 2, "std": 1}

    def test_checkpoint_delta(self):
        meter = UsageMeter()
        meter.record(Stage.OTHER, LLMResponse("x", 1, 1, 0.1))
        mark = meter.checkpoint()
        meter.record(Stage.OTHER, LLMResponse("y", 2, 2, 0.2))
        delta = meter.delta(mark)
        assert delta["calls"] == 1
        assert delta["prompt_tokens"] == 2

    def test_merge_folds_totals_and_tasks(self):
        meter = UsageMeter()
        meter.record(Stage.NER, LLMResponse("x", 1, 2, 0.1))
        worker = UsageMeter()
        worker.record(Stage.NER, LLMResponse("y", 3, 4, 0.2))
        worker.record(Stage.STD, LLMResponse("z", 5, 6, 0.3))
        meter.merge(worker)
        assert meter.calls == 3
        assert meter.prompt_tokens == 9
        assert meter.completion_tokens == 12
        assert meter.simulated_latency_s == pytest.approx(0.6)
        assert call_counts(meter) == {"ner": 2, "std": 1}


#: every client shape the pipeline can hold, built fresh per case.
CLIENTS = {
    "simulated": lambda: SimulatedLLM(seed=0),
}


class TestStageIsRequired:
    PROMPT = "### TASK: parametric\n### INPUT\nInception|genre\n### END\n"

    @pytest.mark.parametrize("method", ["complete"])
    @pytest.mark.parametrize("client", sorted(CLIENTS))
    def test_call_without_stage_raises(self, client, method):
        llm = CLIENTS[client]()
        with pytest.raises(TypeError):
            getattr(llm, method)(self.PROMPT)
        assert llm.meter.calls == 0


class TestStageAttribution:
    def test_record_accumulates_per_stage(self):
        meter = UsageMeter()
        meter.record(Stage.NER, LLMResponse("x", 10, 5, 0.2))
        meter.record(Stage.NER, LLMResponse("y", 1, 1, 0.1))
        meter.record(Stage.SYNTHESIS, LLMResponse("z", 2, 2, 0.1))
        ner = meter.by_stage[Stage.NER.value]
        assert ner.calls == 2
        assert ner.prompt_tokens == 11
        assert ner.completion_tokens == 6
        assert ner.total_tokens == 17
        assert ner.simulated_latency_s == pytest.approx(0.3)
        assert Stage.AUTHORITY.value not in meter.by_stage

    def test_stage_snapshot_is_sorted_and_json_ready(self):
        meter = UsageMeter()
        meter.record(Stage.SYNTHESIS, LLMResponse("z", 2, 2, 0.1))
        meter.record(Stage.NER, LLMResponse("x", 1, 1, 0.1))
        snap = meter.stage_snapshot()
        assert list(snap) == ["ner", "synthesis"]
        assert snap["ner"]["calls"] == 1

    def test_checkpoint_and_stage_delta(self):
        meter = UsageMeter()
        meter.record(Stage.NER, LLMResponse("x", 10, 5, 0.2))
        mark = meter.checkpoint()
        meter.record(Stage.NER, LLMResponse("y", 1, 1, 0.1))
        meter.record(Stage.STD, LLMResponse("z", 2, 2, 0.1))
        delta = meter.stage_delta(mark)
        # Only the activity inside the window appears.
        assert set(delta) == {"ner", "std"}
        assert delta["ner"].calls == 1
        assert delta["ner"].prompt_tokens == 1
        assert delta["std"].calls == 1

    def test_stage_delta_excludes_quiescent_stages(self):
        meter = UsageMeter()
        meter.record(Stage.NER, LLMResponse("x", 10, 5, 0.2))
        mark = meter.checkpoint()
        meter.record(Stage.STD, LLMResponse("z", 2, 2, 0.1))
        assert set(meter.stage_delta(mark)) == {"std"}

    def test_checkpoint_is_immune_to_later_records(self):
        # StageUsage entries are immutable values: a checkpoint's view
        # can never change underneath its holder.
        meter = UsageMeter()
        meter.record(Stage.NER, LLMResponse("x", 10, 5, 0.2))
        mark = meter.checkpoint()
        before = mark.by_stage["ner"]
        meter.record(Stage.NER, LLMResponse("y", 1, 1, 0.1))
        assert mark.by_stage["ner"] is before
        assert before.calls == 1

    def test_merge_folds_stage_entries(self):
        meter = UsageMeter()
        meter.record(Stage.NER, LLMResponse("x", 1, 2, 0.1))
        worker = UsageMeter()
        worker.record(Stage.NER, LLMResponse("y", 3, 4, 0.2))
        worker.record(Stage.STD, LLMResponse("z", 5, 6, 0.3))
        meter.merge(worker)
        assert meter.by_stage[Stage.NER.value].calls == 2
        assert meter.by_stage[Stage.NER.value].prompt_tokens == 4
        assert meter.by_stage[Stage.STD.value].calls == 1


class TestDeterminism:
    def test_same_seed_same_everything(self):
        a = SimulatedLLM(seed=42)
        b = SimulatedLLM(seed=42)
        text = "Inception was directed by Christopher Nolan."
        assert a.complete(text, stage=Stage.OTHER).text == b.complete(text, stage=Stage.OTHER).text
        assert a.relevance("q", text) == b.relevance("q", text)
        assert a.authority({"agreement": 0.4}) == b.authority({"agreement": 0.4})
