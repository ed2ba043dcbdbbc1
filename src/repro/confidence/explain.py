"""Human-readable explanations of MCC decisions.

Trustworthy answers in critical domains (the paper motivates finance and
law) need to be *auditable*: this module renders a
:class:`~repro.confidence.mcc.MCCResult` as a plain-text report showing,
for every candidate node, the consistency / authority breakdown and the
verdict — the evidence trail behind a generated answer.
"""

from __future__ import annotations

from repro.confidence.mcc import GroupDecision, MCCResult
from repro.confidence.node_level import NodeAssessment


def explain_assessment(assessment: NodeAssessment, verdict: str) -> str:
    """One line per scored node: value, verdict, score components.

    A node rejected on its upper bound, without its authority prompt,
    shows ``C(v)`` and ``Auth_LLM`` as bounds (``≤``).
    """
    rel = "≤" if assessment.bound else "="
    return (
        f"  [{verdict:>8s}] {assessment.value!r} from {assessment.source_id}: "
        f"C(v){rel}{assessment.confidence:.2f} "
        f"(S_n={assessment.consistency:.2f}, "
        f"Auth_LLM{rel}{assessment.auth_llm:.2f}, "
        f"Auth_hist={assessment.auth_hist:.2f})"
    )


def explain_decision(decision: GroupDecision) -> str:
    """Render one homologous group's decision."""
    entity, attribute = decision.group.key
    lines = [f"group ({entity!r}, {attribute!r}): "
             f"{len(decision.group.members)} claims from "
             f"{len(decision.group.sources())} sources"]
    if decision.graph_conf is not None:
        route = "fast path" if decision.fast_path else "full scrutiny"
        lines.append(
            f"  graph confidence C(G)={decision.graph_conf:.2f} -> {route}"
        )
    else:
        lines.append("  graph-level check disabled")
    for assessment in decision.accepted:
        lines.append(explain_assessment(assessment, "ACCEPTED"))
    for assessment in decision.rejected:
        lines.append(explain_assessment(assessment, "rejected"))
    return "\n".join(lines)


def explain(result: MCCResult) -> str:
    """Render a whole MCC pass (one block per group)."""
    if not result.decisions:
        return "no candidate groups — nothing to adjudicate"
    blocks = [explain_decision(d) for d in result.decisions]
    summary = (
        f"{len(result.decisions)} group(s), "
        f"{len(result.accepted_assessments())} value(s) accepted, "
        f"{len(result.lvs)} claim(s) set aside, "
        f"{result.nodes_scored} node(s) scored"
    )
    return "\n".join(blocks + [summary])
