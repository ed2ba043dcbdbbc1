"""Simulated-LLM substrate: clients, prompts, extraction, generation.

The transport layer is stage-tagged: every completion names its pipeline
:class:`~repro.llm.stage.Stage`, and the multi-backend gateway
(:mod:`repro.llm.gateway`) routes, meters and budgets per stage.
"""

from repro.llm.base import (
    LLMClient,
    LLMResponse,
    StageUsage,
    UsageCheckpoint,
    UsageMeter,
    count_tokens,
)
from repro.llm.caching import CachingLLM
from repro.llm.extraction import ExtractionResult, SchemaFreeExtractor
from repro.llm.gateway import (
    BackendError,
    BudgetExceededError,
    CircuitBreaker,
    GatewayError,
    GatewayEvent,
    LLMGateway,
    RoutingPolicy,
    ScriptedFlakyLLM,
    StagePolicy,
    build_gateway,
    parse_routing_spec,
)
from repro.llm.generation import EvidenceItem, generate_trustworthy_answer
from repro.llm.lexicon import BY_PREDICATE, RELATIONS, split_sentence, verbalize
from repro.llm.simulated import AUTHORITY_WEIGHTS, SimulatedLLM
from repro.llm.stage import STAGE_VALUES, Stage

__all__ = [
    "AUTHORITY_WEIGHTS",
    "BackendError",
    "BudgetExceededError",
    "BY_PREDICATE",
    "CachingLLM",
    "CircuitBreaker",
    "EvidenceItem",
    "ExtractionResult",
    "GatewayError",
    "GatewayEvent",
    "LLMClient",
    "LLMGateway",
    "LLMResponse",
    "RELATIONS",
    "RoutingPolicy",
    "STAGE_VALUES",
    "SchemaFreeExtractor",
    "ScriptedFlakyLLM",
    "SimulatedLLM",
    "Stage",
    "StagePolicy",
    "StageUsage",
    "UsageCheckpoint",
    "UsageMeter",
    "build_gateway",
    "count_tokens",
    "generate_trustworthy_answer",
    "parse_routing_spec",
    "split_sentence",
    "verbalize",
]
