"""Audit-trail tests: every filtered candidate is accounted for, once."""

from __future__ import annotations

from collections import Counter

from repro.confidence.history import HistoryStore
from repro.confidence.mcc import mcc
from repro.confidence.node_level import (
    AuthorityAnswers,
    GroupTable,
    NodeScorer,
)
from repro.core import MultiRAG, MultiRAGConfig
from repro.exec import Query
from repro.kg import KnowledgeGraph, Provenance, Triple
from repro.linegraph.homologous import HomologousGroup, HomologousNode
from repro.llm import SimulatedLLM
from repro.obs import (
    ACTION_DROPPED,
    ACTION_KEPT,
    AuditLog,
    Observability,
)
from repro.obs.audit import (
    AUDIT_CODES,
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
)

from tests.conftest import make_sources


class StubScorer(NodeScorer):
    """Gives each value a fixed ``C(v)``; lets tests steer MCC.

    ``S_n`` is the value's score and both authorities are 0, so the
    exact ``C(v)`` is the score.  Its upper bound is the score plus
    ``α·auth_llm_max`` (0.4405 at the default α and β): a node whose
    score is further than that below θ is rejected on its bound.
    """

    def __init__(self, scores: dict[str, float]) -> None:
        super().__init__(KnowledgeGraph(), SimulatedLLM(seed=0), HistoryStore())
        self.scores = scores

    def consistency(self, triple: Triple, table: GroupTable) -> float:
        return self.scores[triple.obj]

    def auth_hist(self, triple: Triple, table: GroupTable) -> float:
        return 0.0

    def auth_llm(self, triple: Triple, table: GroupTable,
                 answers: AuthorityAnswers | None = None) -> float:
        return 0.0


def make_group(values_by_source: list[tuple[str, str]]) -> HomologousGroup:
    members = [
        Triple("E", "attr", value,
               Provenance(source_id=source, domain="d", fmt="csv"))
        for source, value in values_by_source
    ]
    snode = HomologousNode(name="attr", entity="E", meta={},
                           num=len(members))
    return HomologousGroup(key=("E", "attr"), snode=snode, members=members)


def enabled_obs() -> Observability:
    return Observability(audit=AuditLog())


def node_events(obs: Observability) -> list:
    return [e for e in obs.audit.events if e.stage == "mcc.node"]


class TestMCCAuditCompleteness:
    def test_one_event_per_member(self):
        group = make_group(
            [("s1", "2010"), ("s2", "2010"), ("s3", "2011"), ("s4", "2012")]
        )
        obs = enabled_obs()
        scorer = StubScorer({"2010": 1.2, "2011": 0.4, "2012": 0.3})
        mcc([group], scorer, enable_graph_level=False, obs=obs)
        events = node_events(obs)
        assert len(events) == len(group.members)
        per_claim = Counter((e.source_id, e.value) for e in events)
        assert all(count == 1 for count in per_claim.values())

    def test_every_dropped_candidate_has_exactly_one_drop_event(self):
        group = make_group(
            [("s1", "2010"), ("s2", "2010"), ("s3", "2011"), ("s4", "2012")]
        )
        obs = enabled_obs()
        scorer = StubScorer({"2010": 1.2, "2011": 0.4, "2012": 0.3})
        result = mcc([group], scorer, enable_graph_level=False, obs=obs)
        drops = Counter(
            (e.source_id, e.value) for e in obs.audit.dropped()
            if e.stage == "mcc.node"
        )
        lvs = Counter((t.source_id(), t.obj) for t in result.lvs)
        assert drops == lvs

    def test_threshold_and_score_recorded_on_node_decisions(self):
        group = make_group([("s1", "2010"), ("s2", "2011")])
        obs = enabled_obs()
        scorer = StubScorer({"2010": 1.2, "2011": 0.4})
        mcc([group], scorer, node_threshold=0.7,
            enable_graph_level=False, obs=obs)
        by_value = {e.value: e for e in node_events(obs)}
        kept, dropped = by_value["2010"], by_value["2011"]
        assert kept.action == ACTION_KEPT and kept.level == LEVEL_NODE
        assert dropped.action == ACTION_DROPPED
        assert kept.threshold == dropped.threshold == 0.7
        assert kept.score == 1.2 and dropped.score == 0.4

    def test_fallback_promotion_logged_as_single_kept_event(self):
        group = make_group([("s1", "2010"), ("s2", "2011")])
        obs = enabled_obs()
        scorer = StubScorer({"2010": 0.6, "2011": 0.2})  # nobody clears θ
        result = mcc([group], scorer, node_threshold=0.7,
                     enable_graph_level=False, obs=obs)
        assert result.decisions[0].accepted  # fallback fired
        best = [e for e in node_events(obs) if e.value == "2010"]
        assert len(best) == 1
        assert best[0].action == ACTION_KEPT
        assert best[0].level == LEVEL_FALLBACK

    def test_fast_path_skips_are_labelled(self):
        group = make_group(
            [("s1", "2010"), ("s2", "2010"), ("s3", "2010"), ("s4", "1999")]
        )
        obs = enabled_obs()
        scorer = StubScorer({"2010": 1.2, "1999": 0.1})
        mcc([group], scorer, graph_threshold=0.0, fast_path_nodes=2,
            obs=obs)
        skipped = [e for e in node_events(obs)
                   if e.level == LEVEL_FAST_PATH]
        assert skipped
        by_action = {e.value: e.action for e in skipped}
        assert by_action.get("2010") == ACTION_KEPT  # agrees with accepted
        assert by_action.get("1999") == ACTION_DROPPED  # disagrees

    def test_graph_level_emits_one_group_event(self):
        group = make_group([("s1", "2010"), ("s2", "2010")])
        obs = enabled_obs()
        mcc([group], StubScorer({"2010": 1.2}), obs=obs)
        group_events = [e for e in obs.audit.events if e.stage == "mcc.graph"]
        assert len(group_events) == 1
        assert group_events[0].key == "E|attr"
        assert group_events[0].level == LEVEL_GRAPH
        assert group_events[0].value == ""

    def test_node_level_ablation_uses_graph_level_events(self):
        group = make_group([("s1", "2010"), ("s2", "2010"), ("s3", "2010")])
        obs = enabled_obs()
        mcc([group], StubScorer({}), enable_node_level=False,
            graph_threshold=0.0, fast_path_nodes=2, obs=obs)
        events = node_events(obs)
        assert len(events) == len(group.members)
        assert all(e.level == LEVEL_GRAPH for e in events)
        assert Counter(e.action for e in events) == Counter(
            {ACTION_KEPT: 2, ACTION_DROPPED: 1}
        )


class TestAuditCodes:
    """Every decision carries a machine-readable code + threshold margin."""

    def test_every_mcc_event_carries_a_registered_code(self):
        group = make_group(
            [("s1", "2010"), ("s2", "2010"), ("s3", "2011"), ("s4", "2012")]
        )
        obs = enabled_obs()
        scorer = StubScorer({"2010": 1.2, "2011": 0.4, "2012": 0.3})
        mcc([group], scorer, obs=obs)
        assert obs.audit.events
        assert all(e.code in AUDIT_CODES for e in obs.audit.events)

    def test_threshold_decisions_record_signed_margin(self):
        group = make_group([("s1", "2010"), ("s2", "2011")])
        obs = enabled_obs()
        scorer = StubScorer({"2010": 1.2, "2011": 0.4})
        mcc([group], scorer, node_threshold=0.7,
            enable_graph_level=False, obs=obs)
        by_value = {e.value: e for e in node_events(obs)}
        kept, dropped = by_value["2010"], by_value["2011"]
        assert kept.code == CODE_NODE_ABOVE_THRESHOLD
        assert kept.margin == round(1.2 - 0.7, 6)
        assert dropped.code == CODE_NODE_BELOW_THRESHOLD
        assert dropped.margin == round(0.4 - 0.7, 6)

    def test_graph_event_code_and_margin(self):
        agreeing = make_group([("s1", "2010"), ("s2", "2010")])
        obs = enabled_obs()
        mcc([agreeing], StubScorer({"2010": 1.2}),
            graph_threshold=0.5, obs=obs)
        graph = [e for e in obs.audit.events if e.stage == "mcc.graph"][0]
        assert graph.code == CODE_GRAPH_FAST_PATH
        assert graph.margin == round(graph.score - 0.5, 6)

        conflicted = make_group([("s1", "2010"), ("s2", "1999")])
        obs2 = enabled_obs()
        mcc([conflicted], StubScorer({"2010": 1.2, "1999": 1.1}),
            graph_threshold=0.99, obs=obs2)
        graph2 = [e for e in obs2.audit.events if e.stage == "mcc.graph"][0]
        assert graph2.code == CODE_GRAPH_CONFLICT
        assert graph2.margin is not None and graph2.margin < 0

    def test_bound_rejection_records_its_bound(self):
        group = make_group([("s1", "2010"), ("s2", "2011")])
        obs = enabled_obs()
        scorer = StubScorer({"2010": 1.2, "2011": 0.1})
        result = mcc([group], scorer, node_threshold=0.7,
                     enable_graph_level=False, obs=obs)
        (rejected,) = result.decisions[0].rejected
        assert rejected.bound
        bound = scorer.upper_bound(0.1, 0.0)
        assert rejected.confidence == bound
        dropped = [e for e in node_events(obs) if e.value == "2011"][0]
        assert dropped.action == ACTION_DROPPED
        assert dropped.level == LEVEL_NODE
        assert dropped.code == CODE_NODE_BOUND_BELOW_THRESHOLD
        assert dropped.score == round(bound, 6)
        assert dropped.margin == round(round(bound, 6) - 0.7, 6) <= 0
        assert "prompt skipped" in dropped.reason

    def test_fallback_promotion_code(self):
        group = make_group([("s1", "2010"), ("s2", "2011")])
        obs = enabled_obs()
        scorer = StubScorer({"2010": 0.6, "2011": 0.2})
        mcc([group], scorer, node_threshold=0.7,
            enable_graph_level=False, obs=obs)
        best = [e for e in node_events(obs) if e.value == "2010"][0]
        assert best.code == CODE_FALLBACK_PROMOTED
        assert best.margin == round(0.6 - 0.7, 6)  # kept despite deficit

    def test_fast_path_skip_codes_have_no_margin(self):
        group = make_group(
            [("s1", "2010"), ("s2", "2010"), ("s3", "2010"), ("s4", "1999")]
        )
        obs = enabled_obs()
        scorer = StubScorer({"2010": 1.2, "1999": 0.1})
        mcc([group], scorer, graph_threshold=0.0, fast_path_nodes=2,
            obs=obs)
        skipped = {e.value: e for e in node_events(obs)
                   if e.level == LEVEL_FAST_PATH}
        assert skipped["2010"].code == CODE_FAST_PATH_AGREES
        assert skipped["1999"].code == CODE_FAST_PATH_DISAGREES
        assert skipped["2010"].margin is None
        assert skipped["1999"].margin is None

    def test_node_level_ablation_codes(self):
        group = make_group([("s1", "2010"), ("s2", "2010"), ("s3", "2010")])
        obs = enabled_obs()
        mcc([group], StubScorer({}), enable_node_level=False,
            graph_threshold=0.0, fast_path_nodes=2, obs=obs)
        codes = Counter(e.code for e in node_events(obs))
        assert codes == Counter(
            {CODE_CONSENSUS_KEPT: 2, CODE_FAST_PATH_CAP: 1}
        )

    def test_code_and_margin_serialized(self):
        group = make_group([("s1", "2010"), ("s2", "2011")])
        obs = enabled_obs()
        mcc([group], StubScorer({"2010": 1.2, "2011": 0.4}),
            enable_graph_level=False, obs=obs)
        dumped = obs.audit.to_jsonl()
        assert '"code": "NODE_ABOVE_THRESHOLD"' in dumped
        assert '"margin":' in dumped


class TestPipelineAudit:
    def test_query_surfaces_its_own_audit_slice(self):
        obs = Observability.enable()
        rag = MultiRAG(MultiRAGConfig(extraction_noise=0.0), obs=obs)
        rag.ingest(make_sources())
        first = rag.run(Query.key("Inception", "release_year"))
        second = rag.run(Query.key("Heat", "directed_by"))
        assert first.audit and second.audit
        # Slices are per query, not cumulative.
        assert all(e.key == "Inception|release_year" for e in first.audit)
        assert all(e.key == "Heat|directed_by" for e in second.audit)

    def test_audit_accounts_for_every_considered_candidate(self):
        obs = Observability.enable()
        rag = MultiRAG(MultiRAGConfig(extraction_noise=0.0), obs=obs)
        rag.ingest(make_sources())
        result = rag.run(Query.key("Inception", "release_year"))
        assert result.mcc is not None
        members = [
            m for d in result.mcc.decisions for m in d.group.members
        ]
        per_member = Counter(
            (e.source_id, e.value) for e in result.audit
            if e.stage == "mcc.node"
        )
        assert sum(per_member.values()) == len(members)
        dropped = Counter(
            (e.source_id, e.value) for e in result.audit
            if e.stage == "mcc.node" and e.action == ACTION_DROPPED
        )
        assert dropped == Counter(
            (t.source_id(), t.obj) for t in result.mcc.lvs
        )

    def test_disabled_observability_leaves_audit_empty(self):
        rag = MultiRAG(MultiRAGConfig(extraction_noise=0.0))
        rag.ingest(make_sources())
        result = rag.run(Query.key("Inception", "release_year"))
        assert result.audit == []
