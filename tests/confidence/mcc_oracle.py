"""The prompt-everything MCC pass (test oracle).

Production :func:`repro.confidence.mcc.mcc` rejects a node whose upper
bound of ``C(v)``, with ``Auth_LLM`` at its maximum, does not clear θ
without asking the judge, unless the group's fallback needs the node's
exact ``C(v)``.  :func:`mcc` here is the pass before that change: it
prompts every assessed node and keeps its exact ``C(v)``.  Property
tests diff production against it with exact equality.
"""

from __future__ import annotations

from repro.confidence.graph_level import graph_confidence
from repro.confidence.mcc import (
    GroupDecision,
    MCCResult,
    _consensus_ranked,
    _emit_node_audit,
    _node_event,
)
from repro.confidence.node_level import NodeAssessment, NodeScorer
from repro.kg.triple import Triple
from repro.linegraph.homologous import HomologousGroup
from repro.obs.audit import (
    ACTION_DROPPED,
    ACTION_KEPT,
    CODE_CONSENSUS_KEPT,
    CODE_FAST_PATH_CAP,
    CODE_GRAPH_CONFLICT,
    CODE_GRAPH_FAST_PATH,
    LEVEL_GRAPH,
    AuditEvent,
)
from repro.obs.context import NOOP, Observability
from repro.util import normalize_value


def mcc(
    groups: list[HomologousGroup],
    scorer: NodeScorer,
    node_threshold: float = 0.7,
    graph_threshold: float = 0.5,
    enable_graph_level: bool = True,
    enable_node_level: bool = True,
    fast_path_nodes: int = 2,
    fallback_best: bool = True,
    hedge_margin: float = 0.15,
    obs: Observability | None = None,
) -> MCCResult:
    """Run Algorithm 1 over ``groups``; returns accepted/rejected nodes.

    ``fast_path_nodes`` caps how many consensus-ranked nodes a
    high-confidence group assesses individually.  With ``fallback_best``
    (the default), a group whose every node fails θ still surfaces its
    best-confidence node: "for subgraphs with low confidence, more nodes
    need to be extracted to ensure the robustness of the overall
    retrieval" (paper §IV-C) — an empty answer is never the trustworthy
    choice when candidates exist.

    With an enabled ``obs`` bundle the pass emits ``mcc.graph`` /
    ``mcc.node`` spans, confidence metrics, and one audit event per
    candidate recording whether it was kept or dropped, by which level,
    and at what score vs. threshold.
    """
    obs = obs if obs is not None else NOOP
    metrics = obs.metrics
    result = MCCResult()
    # Every caller passes the one group of a single (entity, attribute) key.
    for group in groups:
        key = f"{group.snode.entity}|{group.snode.name}"
        graph_conf: float | None = None
        fast_path = False
        if enable_graph_level:
            with obs.tracer.span("mcc.graph", key=key) as gspan:
                graph_conf = graph_confidence(group)
                group.snode.confidence = graph_conf
                fast_path = graph_conf >= graph_threshold
                if gspan.enabled:
                    gspan.set(
                        graph_conf=round(graph_conf, 6),
                        fast_path=fast_path,
                        members=len(group.members),
                    )
            metrics.histogram("mcc.graph_conf").observe(graph_conf)
            metrics.counter(
                "mcc.fast_path" if fast_path else "mcc.full_scrutiny"
            ).inc()
            if obs.audit.enabled:
                obs.audit.record(AuditEvent(
                    stage="mcc.graph", action=ACTION_KEPT, key=key,
                    value="", source_id="", level=LEVEL_GRAPH,
                    threshold=graph_threshold, score=graph_conf,
                    reason=(
                        "consistent group: fast path (top consensus nodes "
                        "only)" if fast_path
                        else "conflicted group: full node-level scrutiny"
                    ),
                    code=(
                        CODE_GRAPH_FAST_PATH if fast_path
                        else CODE_GRAPH_CONFLICT
                    ),
                    margin=round(graph_conf - graph_threshold, 6),
                ))
        metrics.histogram("mcc.group_size").observe(len(group.members))

        decision = GroupDecision(group=group, graph_conf=graph_conf, fast_path=fast_path)

        if not enable_node_level:
            # Ablation: no node-level scoring.  A consistent group answers
            # from its top consensus nodes (the fast path needs no node
            # scrutiny anyway); a conflicted group cannot be adjudicated —
            # every claimed value is surfaced, unresolved.  "Graph-level
            # filtering alone cannot resolve local conflicts" (§IV-C).
            ranked_members = _consensus_ranked(group)
            if fast_path:
                kept = ranked_members[:max(1, fast_path_nodes)]
                dropped = ranked_members[len(kept):]
                result.lvs.extend(dropped)
            else:
                kept = ranked_members
                dropped = []
            decision.accepted = [
                NodeAssessment(
                    triple=m, consistency=1.0, auth_llm=0.5, auth_hist=0.5,
                    authority=0.5, confidence=1.5,
                )
                for m in kept
            ]
            if obs.audit.enabled:
                for member in kept:
                    obs.audit.record(_node_event(
                        ACTION_KEPT, key, member, LEVEL_GRAPH, None, None,
                        "kept by consensus rank (node-level scoring "
                        "disabled)",
                        CODE_CONSENSUS_KEPT,
                    ))
                for member in dropped:
                    obs.audit.record(_node_event(
                        ACTION_DROPPED, key, member, LEVEL_GRAPH, None, None,
                        "beyond fast-path cap (node-level scoring disabled)",
                        CODE_FAST_PATH_CAP,
                    ))
            result.decisions.append(decision)
            continue

        members = _consensus_ranked(group)
        if fast_path:
            to_assess = members[:max(1, fast_path_nodes)]
            skipped = members[len(to_assess):]
        else:
            to_assess = members
            skipped = []

        with obs.tracer.span("mcc.node", key=key) as nspan:
            table = scorer.group_table(group)
            for member in to_assess:
                assessment = scorer.assess(member, table)
                result.nodes_scored += 1
                if assessment.confidence > node_threshold:
                    decision.accepted.append(assessment)
                else:
                    decision.rejected.append(assessment)
                    result.lvs.append(member)
            if nspan.enabled:
                nspan.set(
                    assessed=len(to_assess), skipped=len(skipped),
                    accepted=len(decision.accepted),
                    rejected=len(decision.rejected),
                )

        promoted_ids: set[int] = set()
        if not decision.accepted and decision.rejected and fallback_best:
            # Low-confidence subgraph: "more nodes need to be extracted to
            # ensure the robustness of the overall retrieval" (§IV-C).
            # When no node clears θ, surface the best node — and hedge with
            # every node within ``hedge_margin`` of it, because picking one
            # side of a near-tie on weak evidence is exactly how wrong
            # answers get confidently asserted.
            best_conf = max(a.confidence for a in decision.rejected)
            promoted = [
                a for a in decision.rejected
                if a.confidence >= best_conf - hedge_margin
            ]
            for assessment in promoted:
                decision.rejected.remove(assessment)
                decision.accepted.append(assessment)
            promoted_ids = {id(a) for a in promoted}
            promoted_triples = {id(a.triple) for a in promoted}
            result.lvs = [t for t in result.lvs if id(t) not in promoted_triples]
            metrics.counter("mcc.fallback_promotions").inc(len(promoted))

        skipped_kept: list[Triple] = []
        skipped_dropped: list[Triple] = []
        if decision.accepted:
            # Fast-path members that agree with an accepted value inherit
            # acceptance implicitly (they carry no extra information), but
            # disagreeing skipped members are surfaced as rejected.
            accepted_values = {normalize_value(a.value) for a in decision.accepted}
            for member in skipped:
                if normalize_value(member.obj) not in accepted_values:
                    result.lvs.append(member)
                    skipped_dropped.append(member)
                else:
                    skipped_kept.append(member)
        else:
            result.lvs.extend(skipped)
            skipped_dropped.extend(skipped)

        metrics.counter("mcc.accepted").inc(len(decision.accepted))
        metrics.counter("mcc.rejected").inc(
            len(decision.rejected) + len(skipped_dropped)
        )
        if obs.audit.enabled:
            _emit_node_audit(
                obs, key, decision, promoted_ids, skipped_kept,
                skipped_dropped, node_threshold,
            )

        result.decisions.append(decision)
    return result
