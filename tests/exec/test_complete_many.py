"""LLM worker views: ``split`` clones that the exec engine merges back.

A clone answers like its parent and shares its prompt cache, but
accounts into its own meter.
"""

from __future__ import annotations

from repro.llm import SimulatedLLM, Stage
from repro.llm.caching import CachingLLM

PROMPT = "Inception was directed by Christopher Nolan."


class TestSplit:
    def test_split_meters_are_independent_then_merge(self):
        parent = SimulatedLLM(seed=11)
        worker = parent.split()
        worker.complete(PROMPT, stage=Stage.SYNTHESIS)
        assert parent.meter.calls == 0
        assert worker.meter.calls == 1
        parent.meter.merge(worker.meter)
        assert parent.meter.calls == 1
        assert set(parent.meter.by_stage) == {"synthesis"}
        assert parent.meter.by_stage["synthesis"].calls == 1

    def test_split_shares_cache_but_not_meter(self):
        parent = CachingLLM(SimulatedLLM(seed=11))
        worker = parent.split()
        worker.complete(PROMPT, stage=Stage.OTHER)
        assert len(parent) == 1  # cache fill visible to the parent
        assert parent.meter.calls == 0

    def test_split_is_deterministic_clone(self):
        parent = SimulatedLLM(seed=11)
        worker = parent.split()
        assert (worker.complete(PROMPT, stage=Stage.OTHER).text
                == parent.complete(PROMPT, stage=Stage.OTHER).text)

    def test_split_rebinds_obs(self):
        from repro.obs import Observability

        parent_obs = Observability.enable()
        parent = CachingLLM(SimulatedLLM(seed=11), obs=parent_obs)
        worker_obs = parent_obs.split()
        worker = parent.split(obs=worker_obs)
        assert worker.obs is worker_obs
        assert parent.obs is parent_obs
