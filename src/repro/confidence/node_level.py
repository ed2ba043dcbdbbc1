"""Node-level confidence (stage 2 of MCC; Eqs. 8–11 of the paper).

For each candidate node (one source's claim inside a homologous group) the
scorer combines:

* **consistency** ``S_n(v)`` (Eq. 8) — mean mutual-information similarity
  to the other claims about the same attribute;
* **LLM authority** ``Auth_LLM(v)`` (Eq. 10) — a sigmoid over the simulated
  expert LLM's credibility judgement ``C_LLM(v)``, which itself integrates
  the node's global influence (entity degree), local connection strength
  (within-group agreement), entity-type information and multi-step path
  support, mirroring the PTCA recipe the paper cites;
* **historical authority** ``Auth_hist(v)`` (Eq. 11) — the source's track
  record blended with the current query's consensus.

``A(v) = α·Auth_LLM + (1-α)·Auth_hist`` (Eq. 9) and the final node
confidence is ``C(v) = S_n(v) + A(v)`` (Algorithm 1, line 6), compared
against the paper's node threshold θ = 0.7.

Most inputs of these equations belong to the group, not to the node:
each member's source credibility, each value's weighted support, each
source's consensus and the claims around the group's subjects.
:meth:`NodeScorer.group_table` computes them once per group as a
:class:`GroupTable`, which every node assessed against the group reads.
The table adds each float up over the members in group order, as a
pass over the members for each node would, so the scores are exactly
those of that per-node pass.

Only ``Auth_LLM`` needs a prompt.  The judge's ``C_LLM`` lies in
[0, 1], so ``Auth_LLM`` is at most :attr:`NodeScorer.auth_llm_max` and
:meth:`NodeScorer.upper_bound` bounds ``C(v)`` from ``S_n`` and
``Auth_hist`` alone, through the same float expression as ``C(v)``.
``mcc()`` completes a node's assessment with its prompt
(:meth:`NodeScorer.complete`) only when the bound leaves the decision
open; otherwise it records the bound (:meth:`NodeScorer.bounded`).

The prompt carries the node's features and nothing else, and every
source that claims the same value in a group usually has the same
features.  ``mcc()`` passes :meth:`NodeScorer.complete` one
:data:`AuthorityAnswers` memo per group, so each distinct prompt goes
to the judge once per group and its ``Auth_LLM`` is reused.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from repro.confidence.history import HistoryStore
from repro.confidence.similarity import similarity
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.kg.schema import Schema
from repro.linegraph.homologous import HomologousGroup
from repro.llm.base import LLMClient
from repro.obs.context import NOOP, Observability
from repro.util import normalize_value

#: A subject's live claims counted by object and by ``(predicate,
#: object)``, and the live claims whose object it is, counted by subject.
ClaimCounts = tuple[Counter[str], Counter[tuple[str, str]], Counter[str]]

#: ``Auth_LLM`` by authority prompt, each prompt keyed by the items of
#: the feature dict that :meth:`~repro.llm.base.LLMClient.authority`
#: renders.
AuthorityAnswers = dict[tuple[tuple[str, float], ...], float]


@dataclass(frozen=True, slots=True)
class NodeAssessment:
    """Full score breakdown for one candidate node."""

    triple: Triple
    consistency: float
    auth_llm: float
    auth_hist: float
    authority: float
    confidence: float
    #: True when the node was rejected without its authority prompt:
    #: ``auth_llm`` is then Eq. 10's maximum, and ``authority`` and
    #: ``confidence`` are upper bounds of ``A(v)`` and ``C(v)``.
    bound: bool = False

    @property
    def value(self) -> str:
        return self.triple.obj

    @property
    def source_id(self) -> str:
        return self.triple.source_id()


@dataclass(frozen=True, slots=True)
class GroupTable:
    """The group-wide inputs of Eqs. 8–11 for one homologous group.

    Built by :meth:`NodeScorer.group_table` and only read afterwards.
    ``sources`` and ``credibility`` run parallel to ``members``.
    """

    members: list[Triple]
    sources: list[str]
    #: each member's historical source credibility ``Pr^h(D)``
    credibility: list[float]
    #: credibility-weighted support per normalized value, and its total
    support: dict[str, float]
    total_weight: float
    #: Eq. 11's ``Σ Pr(v_p)`` over each source's claims in the group
    consensus: dict[str, float]
    #: claim counts of each member subject
    claims: dict[str, ClaimCounts]


class NodeScorer:
    """Computes ``C(v)`` for candidate nodes of a homologous group.

    :meth:`assess` scores a node exactly.  ``mcc()`` takes the same steps
    one at a time: :meth:`consistency` and :meth:`auth_hist`, which need
    no prompt, then :meth:`upper_bound`, and :meth:`complete` (the
    prompt) or :meth:`bounded` (no prompt) as the bound decides.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        llm: LLMClient,
        history: HistoryStore,
        alpha: float = 0.5,
        beta: float = 0.5,
        schema: Schema | None = None,
        obs: Observability | None = None,
    ) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if beta <= 0.0:
            raise ValueError("beta must be positive")
        self.graph = graph
        self.llm = llm
        self.history = history
        self.alpha = alpha
        self.beta = beta
        self.schema = schema or Schema.default()
        self.obs = obs if obs is not None else NOOP
        self._max_degree = max((graph.degree(e.eid) for e in graph.entities()),
                               default=1) or 1
        #: ``Auth_LLM`` of the judge's highest score, ``C_LLM = 1``
        self.auth_llm_max = self._squash(1.0)

    def group_table(self, group: HomologousGroup) -> GroupTable:
        """The group-wide inputs of Eqs. 8–11 for ``group``, computed once
        for all of its nodes."""
        members = group.members
        sources = [m.source_id() for m in members]
        credibility = [self.history.credibility(s) for s in sources]
        norms = [normalize_value(m.obj) for m in members]
        support: dict[str, float] = {}
        total_weight = 0.0
        for norm, weight in zip(norms, credibility):
            support[norm] = support.get(norm, 0.0) + weight
            total_weight += weight
        # Pr(v_p) of each claim: the consensus probability of its value.
        counts = Counter(norms)
        pr_v: dict[str, list[float]] = {}
        for norm, source in zip(norms, sources):
            pr_v.setdefault(source, []).append(counts[norm] / len(members))
        subjects = dict.fromkeys(m.subject for m in members)
        return GroupTable(
            members=members,
            sources=sources,
            credibility=credibility,
            support=support,
            total_weight=total_weight,
            consensus={source: sum(terms) for source, terms in pr_v.items()},
            claims={s: self._claim_counts(s) for s in subjects},
        )

    def _claim_counts(self, subject: str) -> ClaimCounts:
        claims = self.graph.by_subject(subject)
        return (
            Counter(t.obj for t in claims),
            Counter((t.predicate, t.obj) for t in claims),
            Counter(t.subject for t in self.graph.by_object(subject)),
        )

    # ------------------------------------------------------------------
    # Eq. 8 — consistency
    # ------------------------------------------------------------------
    def consistency(self, triple: Triple, table: GroupTable) -> float:
        """``S_n(v)``: credibility-weighted mean similarity to group peers.

        Definition 4 attaches a weight ``w_i`` to every homologous edge,
        "the weight of node v_i in the data confidence calculation"; here
        the weight of a peer is its source's historical credibility, so a
        clique of low-credibility copycats cannot vote itself consistent.
        """
        own_source = triple.source_id()
        has_peers = False
        total = 0.0
        weight_sum = 0.0
        for peer, source, weight in zip(
            table.members, table.sources, table.credibility
        ):
            if peer is triple:
                continue
            has_peers = True
            if source == own_source:
                # Values asserted *together by one source* are complementary
                # claims of a multi-valued attribute, not contradictions —
                # a source listing two directors is not disagreeing with
                # itself.
                sim = 1.0
            else:
                sim = similarity([triple.obj], [peer.obj])
            total += weight * sim
            weight_sum += weight
        if not has_peers:
            return 1.0
        if weight_sum == 0.0:
            return 0.0
        return total / weight_sum

    # ------------------------------------------------------------------
    # Eq. 10 — LLM authority
    # ------------------------------------------------------------------
    def _node_features(self, triple: Triple, table: GroupTable) -> dict[str, float]:
        # Global influence: how connected the claimed value is elsewhere.
        degree = self.graph.degree(triple.obj)
        norm_degree = math.log1p(degree) / math.log1p(self._max_degree)
        # Local connection strength: within-group agreement on this value,
        # weighted by each claimant's credibility (Definition 4's w_i) so a
        # clique of weak copycats does not read as strong local support.
        agreement = (
            table.support.get(normalize_value(triple.obj), 0.0)
            / table.total_weight
            if table.total_weight else 0.0
        )
        # Entity-type information: does the value look like the kind the
        # relation schema expects (a year predicate should point at a year)?
        type_consistency = self.schema.check(triple.predicate, triple.obj)
        # Multi-step path support: corroborating statements that also
        # mention the value in connection with the subject's neighborhood —
        # the subject's other predicates pointing at the value, and the
        # value pointing back at the subject.
        counts = table.claims.get(triple.subject)
        if counts is None:  # a triple scored against a group it is not in
            counts = self._claim_counts(triple.subject)
        by_object, by_predicate_object, referrers = counts
        corroboration = (
            by_object[triple.obj]
            - by_predicate_object[(triple.predicate, triple.obj)]
            + referrers[triple.obj]
        )
        path_support = min(1.0, corroboration / 3.0)
        return {
            "degree": norm_degree,
            "agreement": agreement,
            "type_consistency": type_consistency,
            "path_support": path_support,
        }

    def auth_llm(
        self, triple: Triple, table: GroupTable,
        answers: AuthorityAnswers | None = None,
    ) -> float:
        """``Auth_LLM(v)`` (Eq. 10): sigmoid-squashed expert judgement.

        The judge answers the same prompt the same way, so a node whose
        prompt is already in ``answers`` takes that answer without a
        prompt; a new prompt's answer is added to ``answers``.
        """
        features = self._node_features(triple, table)
        if answers is None:
            answers = {}
        # The key stands for the prompt's content.  ``_node_features``
        # builds its keys in one order, and no feature can be -0.0 (equal
        # to 0.0 but rendered apart) or NaN (unequal to itself), so two
        # keys are equal exactly when the rendered prompts are.
        key = tuple(features.items())
        a_llm = answers.get(key)
        if a_llm is None:
            a_llm = answers[key] = self._squash(self.llm.authority(features))
        return a_llm

    def _squash(self, raw: float) -> float:
        # Center at 0.5 so the sigmoid spreads scores on both sides of
        # its midpoint, as the paper's mean-centering of C_LLM intends.
        return 1.0 / (1.0 + math.exp(-self.beta * (raw - 0.5) * 8.0))

    # ------------------------------------------------------------------
    # Eq. 11 — historical authority
    # ------------------------------------------------------------------
    def auth_hist(self, triple: Triple, table: GroupTable) -> float:
        """``Auth_hist(v)`` (Eq. 11): history blended with query consensus."""
        source = triple.source_id()
        h = self.history.historical_entities(source)
        prior = self.history.credibility(source)
        consensus_sum = table.consensus.get(source, 0.0)
        return (h * prior + consensus_sum) / (h + len(table.members))

    # ------------------------------------------------------------------
    # Eq. 9 + Algorithm 1 line 6
    # ------------------------------------------------------------------
    def assess(self, triple: Triple, table: GroupTable) -> NodeAssessment:
        """Full node assessment ``C(v) = S_n(v) + A(v)``."""
        return self.complete(
            triple, table,
            self.consistency(triple, table), self.auth_hist(triple, table),
        )

    def upper_bound(self, s_n: float, a_hist: float) -> float:
        """``C(v)`` with ``Auth_LLM`` at its maximum, without a prompt.

        Every float operation of ``C(v)`` is monotone in its inputs, so
        no answer of the judge gives the node a higher ``C(v)``.
        """
        return self._combine(s_n, self.auth_llm_max, a_hist)[1]

    def complete(
        self, triple: Triple, table: GroupTable, s_n: float, a_hist: float,
        answers: AuthorityAnswers | None = None,
    ) -> NodeAssessment:
        """The exact assessment of a node whose ``S_n`` and ``Auth_hist``
        are known: asks the judge for ``Auth_LLM``, unless ``answers``
        already holds the answer to the node's prompt."""
        return self._assessment(
            triple, s_n, self.auth_llm(triple, table, answers), a_hist,
            bound=False,
        )

    def bounded(
        self, triple: Triple, s_n: float, a_hist: float
    ) -> NodeAssessment:
        """The assessment of a node rejected on its :meth:`upper_bound`,
        without a prompt."""
        return self._assessment(
            triple, s_n, self.auth_llm_max, a_hist, bound=True
        )

    def _combine(
        self, s_n: float, a_llm: float, a_hist: float
    ) -> tuple[float, float]:
        """Eq. 9's ``A(v)`` and Algorithm 1's ``C(v) = S_n(v) + A(v)``."""
        authority = self.alpha * a_llm + (1.0 - self.alpha) * a_hist
        return authority, s_n + authority

    def _assessment(
        self, triple: Triple, s_n: float, a_llm: float, a_hist: float,
        bound: bool,
    ) -> NodeAssessment:
        authority, confidence = self._combine(s_n, a_llm, a_hist)
        metrics = self.obs.metrics
        metrics.counter("confidence.node.assessed").inc()
        if not bound:
            metrics.histogram("confidence.node.c_v").observe(confidence)
        return NodeAssessment(
            triple=triple,
            consistency=s_n,
            auth_llm=a_llm,
            auth_hist=a_hist,
            authority=authority,
            confidence=confidence,
            bound=bound,
        )
