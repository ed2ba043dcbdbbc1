"""Decision audit trail: why MCC/MKLGP kept or dropped each value.

Hallucination mitigation is only trustworthy if it is explainable: for
every candidate value the pipeline filters, the audit log records *which*
confidence level fired (graph fast-path, node threshold, fallback
promotion, skipped fast-path member), the threshold it was compared
against and the score it got (for a node rejected on its upper bound,
without its authority prompt, that bound).  The per-query slice is
surfaced on :attr:`repro.core.answer.RetrievalResult.audit` and folded
into trace exports, so "why did MCC drop this value" is answerable
without a debugger.

Events carry only deterministic fields — no wall-clock timestamps — so
audit trails are byte-comparable across seeded runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable

#: the confidence level that produced a decision.
LEVEL_GRAPH = "graph"
LEVEL_NODE = "node"
LEVEL_FALLBACK = "fallback"
LEVEL_FAST_PATH = "fast_path"

ACTION_KEPT = "kept"
ACTION_DROPPED = "dropped"

#: machine-readable decision codes (:attr:`AuditEvent.code`): *which* MCC
#: test fired, so downstream analysis (``repro.obs.diagnose``) can bucket
#: rejections without parsing the human-readable ``reason`` string.
CODE_GRAPH_FAST_PATH = "GRAPH_FAST_PATH"
CODE_GRAPH_CONFLICT = "GRAPH_CONFLICT"
CODE_NODE_ABOVE_THRESHOLD = "NODE_ABOVE_THRESHOLD"
CODE_NODE_BELOW_THRESHOLD = "NODE_BELOW_THRESHOLD"
#: rejected on the upper bound of C(v), its authority prompt skipped.
CODE_NODE_BOUND_BELOW_THRESHOLD = "NODE_BOUND_BELOW_THRESHOLD"
CODE_FALLBACK_PROMOTED = "FALLBACK_PROMOTED"
CODE_FAST_PATH_AGREES = "FAST_PATH_AGREES"
CODE_FAST_PATH_DISAGREES = "FAST_PATH_DISAGREES"
CODE_CONSENSUS_KEPT = "CONSENSUS_KEPT"
CODE_FAST_PATH_CAP = "FAST_PATH_CAP"

#: every code an :class:`AuditEvent` may carry ("" means "unenriched").
AUDIT_CODES = frozenset({
    CODE_GRAPH_FAST_PATH,
    CODE_GRAPH_CONFLICT,
    CODE_NODE_ABOVE_THRESHOLD,
    CODE_NODE_BELOW_THRESHOLD,
    CODE_NODE_BOUND_BELOW_THRESHOLD,
    CODE_FALLBACK_PROMOTED,
    CODE_FAST_PATH_AGREES,
    CODE_FAST_PATH_DISAGREES,
    CODE_CONSENSUS_KEPT,
    CODE_FAST_PATH_CAP,
})


@dataclass(frozen=True, slots=True)
class AuditEvent:
    """One filtering decision about one candidate value (or group)."""

    #: pipeline stage that decided (``mcc.graph``, ``mcc.node``, ...).
    stage: str
    #: ``kept`` or ``dropped``.
    action: str
    #: the claim key ``entity|attribute`` the decision belongs to.
    key: str
    #: the candidate value decided on ("" for group-level events).
    value: str
    #: source asserting the value ("" for group-level events).
    source_id: str
    #: which confidence level fired (graph / node / fallback / fast_path).
    level: str
    #: threshold the score was compared against (None when not threshold
    #: based, e.g. fast-path skips).
    threshold: float | None
    #: the score that drove the decision (None when none was computed).
    score: float | None
    #: human-readable one-liner for traces and CLI output.
    reason: str = ""
    #: machine-readable decision code (one of :data:`AUDIT_CODES`): the
    #: specific MCC test that fired, stable across reason-string rewording.
    code: str = ""
    #: signed distance from the deciding threshold, ``score - threshold``
    #: rounded to 6 decimals (None when the decision was not threshold
    #: based, e.g. fast-path membership).
    margin: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "action": self.action,
            "key": self.key,
            "value": self.value,
            "source_id": self.source_id,
            "level": self.level,
            "threshold": self.threshold,
            "score": self.score,
            "reason": self.reason,
            "code": self.code,
            "margin": self.margin,
        }


class AuditLog:
    """Append-only event collector with cheap per-query slicing."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[AuditEvent] = []

    def record(self, event: AuditEvent) -> None:
        self.events.append(event)

    def extend(self, events: Iterable[AuditEvent]) -> None:
        self.events.extend(events)

    def mark(self) -> int:
        """Position marker; pair with :meth:`since` to slice one query."""
        return len(self.events)

    def since(self, mark: int) -> list[AuditEvent]:
        return self.events[mark:]

    def __len__(self) -> int:
        return len(self.events)

    def dropped(self) -> list[AuditEvent]:
        return [e for e in self.events if e.action == ACTION_DROPPED]

    def kept(self) -> list[AuditEvent]:
        return [e for e in self.events if e.action == ACTION_KEPT]

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(e.to_dict(), sort_keys=True) for e in self.events
        ) + ("\n" if self.events else "")


class NoopAuditLog:
    """Disabled audit log: records nothing, slices to nothing."""

    enabled = False

    events: tuple[AuditEvent, ...] = ()

    def record(self, event: AuditEvent) -> None:
        return None

    def extend(self, events: Iterable[AuditEvent]) -> None:
        return None

    def mark(self) -> int:
        return 0

    def since(self, mark: int) -> list[AuditEvent]:
        return []

    def __len__(self) -> int:
        return 0

    def dropped(self) -> list[AuditEvent]:
        return []

    def kept(self) -> list[AuditEvent]:
        return []

    def to_jsonl(self) -> str:
        return ""


NOOP_AUDIT = NoopAuditLog()
