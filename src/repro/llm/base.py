"""LLM client protocol and usage accounting.

The paper runs Llama3-8B-Instruct (and GPT-3.5-Turbo for the CoT baseline)
behind four oracle roles: knowledge extraction, relevance scoring, authority
scoring and answer synthesis.  :class:`LLMClient` is the narrow interface
all of those flow through; :class:`UsageMeter` accounts tokens and a
simulated latency so that "prompt time" (PT) comparisons in Table III have a
principled basis even though no real model is being called.

Every completion carries a :class:`~repro.llm.stage.Stage` tag naming the
pipeline stage that issued it.  The tag drives per-stage usage attribution
(:attr:`UsageMeter.by_stage`).  The tag is a required argument of
:meth:`LLMClient.complete`, passed through unchanged, so no call can
escape attribution.
"""

from __future__ import annotations

import copy
import json
import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.llm.stage import Stage


@dataclass(frozen=True, slots=True)
class LLMResponse:
    """One completion: generated text plus its accounted cost."""

    text: str
    prompt_tokens: int
    completion_tokens: int
    latency_s: float


def _to_ns(seconds: float) -> int:
    """An accounted latency as a whole number of nanoseconds.

    The meters add latencies up as these integers, so a total does not
    depend on the order or grouping of the additions: worker meters
    merged in any split add up to the sequential total exactly.
    """
    return round(seconds * 1e9)


@dataclass(frozen=True, slots=True)
class StageUsage:
    """Accumulated usage of one pipeline stage (immutable value).

    Immutability is what makes stage attribution race-free: the meter
    replaces whole entries instead of mutating them, so a checkpoint is a
    shallow dict copy whose values can never change underneath a reader.
    """

    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    #: summed :func:`_to_ns` of the stage's completion latencies
    latency_ns: int = 0

    @property
    def simulated_latency_s(self) -> float:
        return self.latency_ns / 1e9

    def plus(self, response: LLMResponse) -> "StageUsage":
        """A new entry with ``response`` folded in."""
        return StageUsage(
            calls=self.calls + 1,
            prompt_tokens=self.prompt_tokens + response.prompt_tokens,
            completion_tokens=(
                self.completion_tokens + response.completion_tokens
            ),
            latency_ns=self.latency_ns + _to_ns(response.latency_s),
        )

    def merged(self, other: "StageUsage") -> "StageUsage":
        """A new entry combining two stage accumulations."""
        return StageUsage(
            calls=self.calls + other.calls,
            prompt_tokens=self.prompt_tokens + other.prompt_tokens,
            completion_tokens=self.completion_tokens + other.completion_tokens,
            latency_ns=self.latency_ns + other.latency_ns,
        )

    def minus(self, since: "StageUsage") -> "StageUsage":
        """The delta accumulated since ``since``."""
        return StageUsage(
            calls=self.calls - since.calls,
            prompt_tokens=self.prompt_tokens - since.prompt_tokens,
            completion_tokens=self.completion_tokens - since.completion_tokens,
            latency_ns=self.latency_ns - since.latency_ns,
        )

    def snapshot(self) -> dict[str, float]:
        return {
            "calls": self.calls,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "simulated_latency_s": round(self.simulated_latency_s, 6),
        }

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass(frozen=True, slots=True)
class UsageCheckpoint:
    """Immutable point-in-time snapshot of a :class:`UsageMeter`.

    Stage-level attribution subtracts two checkpoints, so concurrent
    readers (the pipeline, the eval harness, a tracer) can each hold
    their own baseline without racing each other.  ``by_stage`` captures
    the per-stage entries at checkpoint time (the entries themselves are
    immutable :class:`StageUsage` values, so the copy is shallow and
    cheap).
    """

    calls: int
    prompt_tokens: int
    completion_tokens: int
    latency_ns: int
    by_stage: dict[str, StageUsage] = field(default_factory=dict)

    @property
    def simulated_latency_s(self) -> float:
        return self.latency_ns / 1e9


@dataclass(slots=True)
class UsageMeter:
    """Accumulated LLM usage across a pipeline run.

    ``by_stage`` maps stage-tag values to full :class:`StageUsage`
    accumulations (calls, tokens, simulated latency).  Windowed
    attribution subtracts :meth:`checkpoint` snapshots
    (:meth:`delta` / :meth:`stage_delta`), which concurrent workers can
    hold independently without racing each other.  Latency is summed in
    integer nanoseconds (``latency_ns``); ``simulated_latency_s`` is its
    read in seconds.
    """

    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    #: summed :func:`_to_ns` of every completion's latency
    latency_ns: int = 0
    by_stage: dict[str, StageUsage] = field(default_factory=dict)

    @property
    def simulated_latency_s(self) -> float:
        return self.latency_ns / 1e9

    def record(self, stage: Stage, response: LLMResponse) -> None:
        self.calls += 1
        self.prompt_tokens += response.prompt_tokens
        self.completion_tokens += response.completion_tokens
        self.latency_ns += _to_ns(response.latency_s)
        key = stage.value
        self.by_stage[key] = self.by_stage.get(key, StageUsage()).plus(
            response
        )

    def snapshot(self) -> dict[str, float]:
        return {
            "calls": self.calls,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "simulated_latency_s": round(self.simulated_latency_s, 6),
        }

    def stage_snapshot(self) -> dict[str, dict[str, float]]:
        """Per-stage totals in sorted stage order (JSON-ready)."""
        return {
            stage: self.by_stage[stage].snapshot()
            for stage in sorted(self.by_stage)
        }

    def checkpoint(self) -> UsageCheckpoint:
        """Mark the current totals; pair with :meth:`delta` /
        :meth:`stage_delta`."""
        return UsageCheckpoint(
            calls=self.calls,
            prompt_tokens=self.prompt_tokens,
            completion_tokens=self.completion_tokens,
            latency_ns=self.latency_ns,
            by_stage=dict(self.by_stage),
        )

    def delta(self, since: UsageCheckpoint) -> dict[str, float]:
        """Usage accumulated since ``since`` (same keys as ``snapshot``)."""
        return {
            "calls": self.calls - since.calls,
            "prompt_tokens": self.prompt_tokens - since.prompt_tokens,
            "completion_tokens": (
                self.completion_tokens - since.completion_tokens
            ),
            "simulated_latency_s": round(
                (self.latency_ns - since.latency_ns) / 1e9, 6
            ),
        }

    def stage_delta(self, since: UsageCheckpoint) -> dict[str, StageUsage]:
        """Per-stage usage accumulated since ``since``.

        Only stages with activity in the window appear.  Each reader
        subtracts its own checkpoint, so concurrent workers never race on
        stage counters.
        """
        deltas: dict[str, StageUsage] = {}
        for stage in sorted(self.by_stage):
            before = since.by_stage.get(stage, StageUsage())
            diff = self.by_stage[stage].minus(before)
            if diff.calls or diff.total_tokens:
                deltas[stage] = diff
        return deltas

    def merge(self, other: "UsageMeter") -> None:
        """Fold another meter's totals into this one.

        The exec engine gives each worker task a fresh meter (sums that
        start at zero are independent of completion order) and merges
        them back here in submit order, so parallel accounting matches
        the sequential run.
        """
        self.calls += other.calls
        self.prompt_tokens += other.prompt_tokens
        self.completion_tokens += other.completion_tokens
        self.latency_ns += other.latency_ns
        for stage in sorted(other.by_stage):
            self.by_stage[stage] = self.by_stage.get(
                stage, StageUsage()
            ).merged(other.by_stage[stage])


def count_tokens(text: str) -> int:
    """Cheap token estimate (whitespace words); adequate for cost modelling."""
    return len(text.split())


class LLMClient(ABC):
    """Abstract completion interface.

    Concrete implementations must be deterministic for a fixed construction
    seed: the whole reproduction depends on replayable runs.

    The public surface is :meth:`complete` (plus the semantic helpers
    below), which takes a ``stage`` tag.  Subclasses supply the text by
    overriding :meth:`_generate` and inherit tagging, accounting and the
    helper prompts unchanged.
    """

    def __init__(
        self,
        base_latency_s: float = 0.05,
        latency_per_token_s: float = 0.00002,
        wall_latency_scale: float = 0.0,
    ) -> None:
        self.base_latency_s = base_latency_s
        self.latency_per_token_s = latency_per_token_s
        #: when > 0, completions *sleep* ``latency_s * scale`` wall
        #: seconds, modelling an I/O-bound served model.  Accounted
        #: values are unchanged — only wall time is affected, which is
        #: what makes worker-pool speedups measurable offline
        #: (``benchmarks/test_scaling.py``).  0 (the default) disables
        #: the sleep entirely.
        self.wall_latency_scale = wall_latency_scale
        self.meter = UsageMeter()

    @abstractmethod
    def _generate(self, prompt: str) -> str:
        """Produce the completion text for ``prompt``."""

    def latency_for(self, prompt: str, text: str) -> float:
        """The accounted latency of one completion under this client's
        cost model."""
        return self.base_latency_s + self.latency_per_token_s * (
            count_tokens(prompt) + count_tokens(text)
        )

    def complete(self, prompt: str, stage: Stage) -> LLMResponse:
        """Run one completion and record its usage under ``stage``."""
        text = self._generate(prompt)
        latency = self.latency_for(prompt, text)
        if self.wall_latency_scale > 0.0:
            time.sleep(latency * self.wall_latency_scale)
        response = LLMResponse(
            text=text,
            prompt_tokens=count_tokens(prompt),
            completion_tokens=count_tokens(text),
            latency_s=latency,
        )
        self.meter.record(stage, response)
        return response

    # ------------------------------------------------------------------
    # semantic helpers (render prompt -> complete -> parse)
    #
    # These live on the base class so every client exposes the same
    # stage-tagged oracle roles.
    # ------------------------------------------------------------------
    def extract_entities(self, text: str) -> list[dict[str, str]]:
        """NER over ``text``; returns ``[{"name", "type"}, ...]``."""
        from repro.llm.prompts import render_ner_prompt

        response = self.complete(render_ner_prompt(text), stage=Stage.NER)
        return json.loads(response.text)

    def extract_triples(
        self, text: str, entity_list: list[str]
    ) -> list[list[str]]:
        """SPO extraction over ``text`` constrained to ``entity_list``."""
        from repro.llm.prompts import render_triple_prompt

        response = self.complete(
            render_triple_prompt(text, entity_list), stage=Stage.TRIPLE
        )
        return json.loads(response.text)

    def standardize(self, text: str, mentions: list[str]) -> dict[str, str]:
        """Entity standardization; returns ``mention -> canonical``."""
        from repro.llm.prompts import render_std_prompt

        response = self.complete(
            render_std_prompt(text, mentions), stage=Stage.STD
        )
        return json.loads(response.text)

    def relevance(self, query: str, text: str) -> float:
        """LLM relevance judgement of ``text`` for ``query`` in [0, 1]."""
        prompt = (
            "### TASK: relevance\n### QUERY\n" + query + "\n### INPUT\n"
            + text + "\n### END\n"
        )
        return float(self.complete(prompt, stage=Stage.RELEVANCE).text)

    def authority(self, features: dict[str, float]) -> float:
        """Raw authority judgement ``C_LLM(v)`` in [0, 1] from node
        features.

        An answer outside [0, 1] is clamped into it, and NaN counts as 0:
        MCC's prompt-free upper bound of ``C(v)`` assumes the range.
        """
        prompt = (
            "### TASK: authority\n### INPUT\n"
            + json.dumps(features, sort_keys=True)
            + "\n### END\n"
        )
        score = float(self.complete(prompt, stage=Stage.AUTHORITY).text)
        if math.isnan(score):
            return 0.0
        return min(1.0, max(0.0, score))

    def generate_answer(self, query: str, evidence_lines: list[str]) -> str:
        """Synthesize an answer string from ``entity | attribute | value``
        lines."""
        prompt = (
            "### TASK: answer\n### QUERY\n" + query + "\n### INPUT\n"
            + "\n".join(evidence_lines) + "\n### END\n"
        )
        return self.complete(prompt, stage=Stage.SYNTHESIS).text

    def parametric_answer(self, knowledge_key: str) -> str:
        """Closed-book answer for ``knowledge_key`` (``entity|attribute``)."""
        prompt = (
            "### TASK: parametric\n### INPUT\n" + knowledge_key + "\n### END\n"
        )
        return self.complete(prompt, stage=Stage.PARAMETRIC).text

    # ------------------------------------------------------------------
    # worker-view protocol
    # ------------------------------------------------------------------
    def split(self) -> "LLMClient":
        """A worker-local clone with a fresh :class:`UsageMeter`.

        The clone shares every read-only attribute (seed, lexicon) by
        reference — valid because clients must be deterministic and
        side-effect-free per prompt — but accounts into its own meter,
        which the exec engine later folds back via :meth:`absorb`.
        """
        clone = copy.copy(self)
        clone.meter = UsageMeter()
        return clone

    def absorb(self, worker: "LLMClient") -> None:
        """Fold a worker clone produced by :meth:`split` back in.

        Only usage is merged: every worker view starts from the parent's
        state at split time, which is what keeps ``jobs=1`` and
        ``jobs=4`` runs byte-identical regardless of task completion
        order.
        """
        self.meter.merge(worker.meter)


__all__ = [
    "LLMClient",
    "LLMResponse",
    "StageUsage",
    "UsageCheckpoint",
    "UsageMeter",
    "count_tokens",
]
