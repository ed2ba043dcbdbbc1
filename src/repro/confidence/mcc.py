"""Multi-level Confidence Computing — Algorithm 1 of the paper.

``mcc()`` runs the two-stage, coarse-to-fine pass over candidate
homologous groups:

1. **Graph level** (Eq. 7): groups whose claims already agree clear the
   graph threshold and take the *fast path* — only their top consensus
   nodes are individually assessed (the paper: "for subgraphs with high
   confidence, only 1-2 nodes are required").  Conflicted groups get full
   node-level scrutiny.
2. **Node level** (Eqs. 8–11): each scrutinized node's ``C(v)`` is compared
   against the node threshold θ; survivors join ``SVs``, the rest fall to
   the isolated set ``LVs`` exactly as in Algorithm 1's loop.  The
   group-wide inputs of those equations are computed once per group
   (:meth:`~repro.confidence.node_level.NodeScorer.group_table`).  A node
   whose upper bound of ``C(v)``, with ``Auth_LLM`` at its maximum, does
   not clear θ is rejected without its authority prompt, unless nothing
   in its group clears θ and the fallback must rank the group by exact
   ``C(v)``.  The decisions are Algorithm 1's; the rejected node keeps
   its bound as its ``confidence``.  Each distinct authority prompt is
   sent once per group: nodes with equal features, as the sources that
   claim one value mostly have, share the judge's answer.  Definition
   4's edge weight ``w_i`` of a member is its source credibility, which
   the group table reads from the history; nothing writes weights onto
   the group.

Both stages can be disabled independently for the Table III ablations
(``w/o Graph Level`` / ``w/o Node Level`` / ``w/o MCC``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.confidence.graph_level import graph_confidence
from repro.confidence.node_level import (
    AuthorityAnswers,
    NodeAssessment,
    NodeScorer,
)
from repro.kg.triple import Triple
from repro.linegraph.homologous import HomologousGroup
from repro.obs.audit import (
    ACTION_DROPPED,
    ACTION_KEPT,
    CODE_CONSENSUS_KEPT,
    CODE_FALLBACK_PROMOTED,
    CODE_FAST_PATH_AGREES,
    CODE_FAST_PATH_CAP,
    CODE_FAST_PATH_DISAGREES,
    CODE_GRAPH_CONFLICT,
    CODE_GRAPH_FAST_PATH,
    CODE_NODE_ABOVE_THRESHOLD,
    CODE_NODE_BELOW_THRESHOLD,
    CODE_NODE_BOUND_BELOW_THRESHOLD,
    LEVEL_FALLBACK,
    LEVEL_FAST_PATH,
    LEVEL_GRAPH,
    LEVEL_NODE,
    AuditEvent,
)
from repro.obs.context import NOOP, Observability
from repro.util import normalize_value


@dataclass(slots=True)
class GroupDecision:
    """Outcome of MCC for one homologous group."""

    group: HomologousGroup
    graph_conf: float | None
    fast_path: bool
    accepted: list[NodeAssessment] = field(default_factory=list)
    rejected: list[NodeAssessment] = field(default_factory=list)

    def accepted_values(self) -> dict[str, float]:
        """Distinct accepted values with their best supporting confidence."""
        best: dict[str, float] = {}
        for assessment in self.accepted:
            key = normalize_value(assessment.value)
            if assessment.confidence > best.get(key, float("-inf")):
                best[key] = assessment.confidence
        return best


@dataclass(slots=True)
class MCCResult:
    """Aggregate outcome of one MCC pass: ``SVs`` and ``LVs``."""

    decisions: list[GroupDecision] = field(default_factory=list)
    lvs: list[Triple] = field(default_factory=list)
    nodes_scored: int = 0

    @property
    def svs(self) -> list[HomologousGroup]:
        return [d.group for d in self.decisions if d.accepted]

    def accepted_assessments(self) -> list[NodeAssessment]:
        return [a for d in self.decisions for a in d.accepted]


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
            # S_n and Auth_hist need no prompt.  A node whose upper bound
            # of C(v) does not clear θ is rejected whatever the judge
            # answers.
            partial = []
            deferred = []
            for member in to_assess:
                s_n = scorer.consistency(member, table)
                a_hist = scorer.auth_hist(member, table)
                partial.append((member, s_n, a_hist))
                deferred.append(
                    scorer.upper_bound(s_n, a_hist) <= node_threshold
                )
            # Prompt the nodes that may clear θ first.  The deferred ones
            # are prompted only if none did and the fallback ranks the
            # group by exact C(v).
            order = sorted(range(len(partial)), key=deferred.__getitem__)
            assessed: dict[int, NodeAssessment] = {}
            # Each distinct prompt goes to the judge once per group.
            answers: AuthorityAnswers = {}
            prompted = 0
            any_accepted = False
            for i in order:
                member, s_n, a_hist = partial[i]
                if not deferred[i] or (fallback_best and not any_accepted):
                    assessment = scorer.complete(
                        member, table, s_n, a_hist, answers
                    )
                    prompted += 1
                    if assessment.confidence > node_threshold:
                        any_accepted = True
                else:
                    assessment = scorer.bounded(member, s_n, a_hist)
                assessed[i] = assessment
            # Accepted and rejected keep the to-assess order.
            bound_rejected = 0
            for i, member in enumerate(to_assess):
                assessment = assessed[i]
                result.nodes_scored += 1
                if assessment.confidence > node_threshold:
                    decision.accepted.append(assessment)
                else:
                    decision.rejected.append(assessment)
                    result.lvs.append(member)
                    if assessment.bound:
                        bound_rejected += 1
            shared = prompted - len(answers)
            metrics.counter("mcc.bound_rejected").inc(bound_rejected)
            metrics.counter("mcc.shared_prompts").inc(shared)
            if nspan.enabled:
                nspan.set(
                    assessed=len(to_assess), skipped=len(skipped),
                    accepted=len(decision.accepted),
                    rejected=len(decision.rejected),
                    bound_rejected=bound_rejected, shared=shared,
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


def _node_event(
    action: str,
    key: str,
    member: Triple,
    level: str,
    threshold: float | None,
    score: float | None,
    reason: str,
    code: str,
) -> AuditEvent:
    """One candidate-level audit event (``value`` identifies the claim).

    ``margin`` is derived, not passed: threshold-based decisions carry
    ``score - threshold``; membership decisions (fast-path skips,
    consensus ranks) carry None.
    """
    margin = (
        round(score - threshold, 6)
        if score is not None and threshold is not None
        else None
    )
    return AuditEvent(
        stage="mcc.node", action=action, key=key, value=member.obj,
        source_id=member.source_id(), level=level, threshold=threshold,
        score=score, reason=reason, code=code, margin=margin,
    )


def _emit_node_audit(
    obs: Observability,
    key: str,
    decision: GroupDecision,
    promoted_ids: set[int],
    skipped_kept: list[Triple],
    skipped_dropped: list[Triple],
    node_threshold: float,
) -> None:
    """Exactly one audit event per group member, after the decision is
    final — so a fallback-promoted node records one *kept* event, not a
    drop followed by a promotion."""
    for assessment in decision.accepted:
        promoted = id(assessment) in promoted_ids
        obs.audit.record(_node_event(
            ACTION_KEPT, key, assessment.triple,
            LEVEL_FALLBACK if promoted else LEVEL_NODE,
            node_threshold, round(assessment.confidence, 6),
            (
                "below θ but best of a low-confidence subgraph "
                "(fallback/hedge promotion)" if promoted
                else "C(v) cleared the node threshold θ"
            ),
            CODE_FALLBACK_PROMOTED if promoted else CODE_NODE_ABOVE_THRESHOLD,
        ))
    for assessment in decision.rejected:
        obs.audit.record(_node_event(
            ACTION_DROPPED, key, assessment.triple, LEVEL_NODE,
            node_threshold, round(assessment.confidence, 6),
            (
                "upper bound of C(v) below the node threshold θ "
                "(authority prompt skipped)" if assessment.bound
                else "C(v) below the node threshold θ"
            ),
            (
                CODE_NODE_BOUND_BELOW_THRESHOLD if assessment.bound
                else CODE_NODE_BELOW_THRESHOLD
            ),
        ))
    for member in skipped_kept:
        obs.audit.record(_node_event(
            ACTION_KEPT, key, member, LEVEL_FAST_PATH, None, None,
            "fast-path skip: agrees with an accepted value",
            CODE_FAST_PATH_AGREES,
        ))
    for member in skipped_dropped:
        obs.audit.record(_node_event(
            ACTION_DROPPED, key, member, LEVEL_FAST_PATH, None, None,
            "fast-path skip: disagrees with every accepted value",
            CODE_FAST_PATH_DISAGREES,
        ))


def _consensus_ranked(group: HomologousGroup) -> list[Triple]:
    """Group members ordered by value consensus (most-agreed first).

    Ties break deterministically on source id so runs are replayable.
    """
    counts = Counter(normalize_value(m.obj) for m in group.members)
    return sorted(
        group.members,
        key=lambda m: (-counts[normalize_value(m.obj)], m.source_id(), m.obj),
    )
