"""``complete_many`` batch contract: identical to sequential ``complete``."""

from __future__ import annotations

import pytest

from repro.llm import LLMClient, SimulatedLLM, Stage
from repro.llm.caching import CachingLLM

PROMPTS = [
    "### TASK: relevance\n### QUERY: a\n### TEXT: b\n### END\n",
    "Inception was directed by Christopher Nolan.",
    "### TASK: relevance\n### QUERY: a\n### TEXT: b\n### END\n",  # duplicate
    "Heat was directed by Michael Mann.",
]


class EchoLLM(LLMClient):
    def _generate(self, prompt: str) -> str:
        return "echo " + prompt


def sequential_reference(make_llm):
    llm = make_llm()
    return llm, [llm.complete(p, stage=Stage.RELEVANCE) for p in PROMPTS]


class TestDefaultLoop:
    def test_matches_sequential(self):
        ref_llm, ref = sequential_reference(EchoLLM)
        llm = EchoLLM()
        batch = llm.complete_many(PROMPTS, stage=Stage.RELEVANCE)
        assert batch == ref
        assert llm.meter.snapshot() == ref_llm.meter.snapshot()
        assert llm.meter.by_stage == ref_llm.meter.by_stage


class TestSimulatedBatch:
    def test_matches_sequential(self):
        make = lambda: SimulatedLLM(seed=11)  # noqa: E731
        ref_llm, ref = sequential_reference(make)
        llm = make()
        batch = llm.complete_many(PROMPTS, stage=Stage.RELEVANCE)
        assert batch == ref
        assert llm.meter.snapshot() == ref_llm.meter.snapshot()


class TestCachingBatch:
    @staticmethod
    def _make(free_hits: bool = False) -> CachingLLM:
        return CachingLLM(SimulatedLLM(seed=11), free_hits=free_hits)

    def test_cold_cache_matches_sequential(self):
        ref_llm, ref = sequential_reference(self._make)
        llm = self._make()
        batch = llm.complete_many(PROMPTS, stage=Stage.RELEVANCE)
        assert batch == ref
        assert (llm.hits, llm.misses) == (ref_llm.hits, ref_llm.misses)
        assert llm.meter.snapshot() == ref_llm.meter.snapshot()

    def test_duplicate_prompt_is_one_miss_then_hits(self):
        llm = self._make()
        llm.complete_many([PROMPTS[0]] * 3, stage=Stage.RELEVANCE)
        assert llm.misses == 1
        assert llm.hits == 2
        assert len(llm) == 1

    def test_warm_cache_all_hits(self):
        llm = self._make()
        llm.complete_many(PROMPTS, stage=Stage.RELEVANCE)
        hits_before = llm.hits
        batch = llm.complete_many(PROMPTS, stage=Stage.RELEVANCE)
        assert llm.hits == hits_before + len(PROMPTS)
        # warm outputs must equal the cold ones
        cold = self._make().complete_many(PROMPTS, stage=Stage.RELEVANCE)
        assert [r.text for r in batch] == [r.text for r in cold]

    def test_free_hits_zero_latency_on_hits_only(self):
        llm = self._make(free_hits=True)
        batch = llm.complete_many([PROMPTS[0], PROMPTS[0]], stage=Stage.RELEVANCE)
        assert batch[0].latency_s > 0.0
        assert batch[1].latency_s == 0.0

    def test_mixed_warm_and_cold_matches_sequential(self):
        seq = self._make()
        seq.complete(PROMPTS[1], stage=Stage.RELEVANCE)
        ref = [seq.complete(p, stage=Stage.RELEVANCE) for p in PROMPTS]

        batched = self._make()
        batched.complete(PROMPTS[1], stage=Stage.RELEVANCE)
        batch = batched.complete_many(PROMPTS, stage=Stage.RELEVANCE)
        assert batch == ref
        assert (batched.hits, batched.misses) == (seq.hits, seq.misses)
        assert batched.meter.snapshot() == seq.meter.snapshot()


class TestSplit:
    def test_split_meters_are_independent_then_merge(self):
        parent = SimulatedLLM(seed=11)
        worker = parent.split()
        worker.complete(PROMPTS[1], stage=Stage.SYNTHESIS)
        assert parent.meter.calls == 0
        assert worker.meter.calls == 1
        parent.meter.merge(worker.meter)
        assert parent.meter.calls == 1
        assert set(parent.meter.by_stage) == {"synthesis"}
        assert parent.meter.by_stage["synthesis"].calls == 1

    def test_split_shares_cache_but_not_meter(self):
        parent = CachingLLM(SimulatedLLM(seed=11))
        worker = parent.split()
        worker.complete(PROMPTS[1], stage=Stage.OTHER)
        assert len(parent) == 1  # cache fill visible to the parent
        assert parent.meter.calls == 0

    def test_split_is_deterministic_clone(self):
        parent = SimulatedLLM(seed=11)
        worker = parent.split()
        assert (worker.complete(PROMPTS[1], stage=Stage.OTHER).text
                == parent.complete(PROMPTS[1], stage=Stage.OTHER).text)

    def test_split_rebinds_obs(self):
        from repro.obs import Observability

        parent_obs = Observability.enable()
        parent = CachingLLM(SimulatedLLM(seed=11), obs=parent_obs)
        worker_obs = parent_obs.split()
        worker = parent.split(obs=worker_obs)
        assert worker.obs is worker_obs
        assert parent.obs is parent_obs


@pytest.mark.parametrize("prompts", [[], ["single prompt"]])
def test_degenerate_batches(prompts):
    llm = SimulatedLLM(seed=11)
    assert [r.text for r in llm.complete_many(prompts, stage=Stage.OTHER)] == [
        llm.split().complete(p, stage=Stage.OTHER).text for p in prompts
    ]
