"""Simulated-LLM substrate: clients, prompts, extraction, generation.

Completions are stage-tagged: every completion names its pipeline
:class:`~repro.llm.stage.Stage`, and every client's
:class:`~repro.llm.base.UsageMeter` attributes calls, tokens and simulated
latency to it.
"""

from repro.llm.base import (
    LLMClient,
    LLMResponse,
    StageUsage,
    UsageCheckpoint,
    UsageMeter,
    count_tokens,
)
from repro.llm.extraction import ExtractionResult, SchemaFreeExtractor
from repro.llm.generation import EvidenceItem, generate_trustworthy_answer
from repro.llm.lexicon import BY_PREDICATE, RELATIONS, split_sentence, verbalize
from repro.llm.simulated import AUTHORITY_WEIGHTS, SimulatedLLM
from repro.llm.stage import Stage

__all__ = [
    "AUTHORITY_WEIGHTS",
    "BY_PREDICATE",
    "EvidenceItem",
    "ExtractionResult",
    "LLMClient",
    "LLMResponse",
    "RELATIONS",
    "SchemaFreeExtractor",
    "SimulatedLLM",
    "Stage",
    "StageUsage",
    "UsageCheckpoint",
    "UsageMeter",
    "count_tokens",
    "generate_trustworthy_answer",
    "split_sentence",
    "verbalize",
]
