"""Knowledge-graph substrate: triples, entities, graphs and JSON-LD storage."""

from repro.kg.graph import KnowledgeGraph
from repro.kg.schema import Schema
from repro.kg.temporal import TemporalStore, TimestampedClaim, latest_consensus
from repro.kg.storage import (
    JSONLD_CONTEXT,
    NormalizedRecord,
    make_jsonld,
    save_graph,
    triple_from_jsonld,
    triple_to_jsonld,
)
from repro.kg.triple import Entity, Provenance, Triple

__all__ = [
    "Schema",
    "Entity",
    "JSONLD_CONTEXT",
    "KnowledgeGraph",
    "NormalizedRecord",
    "Provenance",
    "TemporalStore",
    "TimestampedClaim",
    "Triple",
    "latest_consensus",
    "make_jsonld",
    "save_graph",
    "triple_from_jsonld",
    "triple_to_jsonld",
]
