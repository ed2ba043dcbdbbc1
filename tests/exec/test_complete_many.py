"""LLM worker views: ``split`` clones that the exec engine merges back.

A clone answers like its parent but accounts into its own meter.
"""

from __future__ import annotations

from repro.llm import SimulatedLLM, Stage

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

    def test_split_is_deterministic_clone(self):
        parent = SimulatedLLM(seed=11)
        worker = parent.split()
        assert (worker.complete(PROMPT, stage=Stage.OTHER).text
                == parent.complete(PROMPT, stage=Stage.OTHER).text)
