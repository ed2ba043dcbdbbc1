"""Multi-level confidence computing (paper §III-D, Algorithm 1)."""

from repro.confidence.calibration import calibrate_history, consensus_values
from repro.confidence.explain import explain, explain_decision
from repro.confidence.graph_level import graph_confidence
from repro.confidence.history import HistoryStore, SourceHistory
from repro.confidence.mcc import GroupDecision, MCCResult, mcc
from repro.confidence.node_level import NodeAssessment, NodeScorer
from repro.confidence.similarity import (
    EPSILON,
    entropy,
    mutual_information,
    similarity,
    value_distribution,
)

__all__ = [
    "EPSILON",
    "calibrate_history",
    "consensus_values",
    "explain",
    "explain_decision",
    "GroupDecision",
    "HistoryStore",
    "MCCResult",
    "NodeAssessment",
    "NodeScorer",
    "SourceHistory",
    "entropy",
    "graph_confidence",
    "mcc",
    "mutual_information",
    "similarity",
    "value_distribution",
]
