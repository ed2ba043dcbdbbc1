"""Property-based tests for MCC invariants (Algorithm 1)."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.confidence import HistoryStore, NodeScorer, mcc
from repro.kg import Entity, KnowledgeGraph, Provenance, Triple
from repro.linegraph import HomologousGroup, HomologousNode, match_homologous
from repro.llm import SimulatedLLM
from tests.confidence.node_oracle import OracleScorer

claims = st.lists(
    st.tuples(
        st.sampled_from(["s1", "s2", "s3", "s4"]),
        st.sampled_from(["E1", "E2"]),
        st.sampled_from(["attr1", "attr2"]),
        st.sampled_from(["v1", "v2", "v3"]),
    ),
    min_size=1, max_size=20,
)

thresholds = st.floats(min_value=0.0, max_value=2.0)


def setup(claim_list):
    graph = KnowledgeGraph()
    for source, entity, attribute, value in claim_list:
        graph.add_triple(
            Triple(entity, attribute, value, Provenance(source_id=source))
        )
    groups = match_homologous(graph).groups
    scorer = NodeScorer(graph, SimulatedLLM(seed=0), HistoryStore())
    return groups, scorer


class TestMCCInvariants:
    @given(claims, thresholds)
    @settings(max_examples=80, deadline=None)
    def test_accepted_and_rejected_partition_assessed(self, claim_list, theta):
        groups, scorer = setup(claim_list)
        result = mcc(groups, scorer, node_threshold=theta)
        for decision in result.decisions:
            assessed = len(decision.accepted) + len(decision.rejected)
            assert assessed <= len(decision.group.members)
            # No node appears in both lists.
            accepted_ids = {id(a.triple) for a in decision.accepted}
            rejected_ids = {id(a.triple) for a in decision.rejected}
            assert not accepted_ids & rejected_ids

    @given(claims)
    @settings(max_examples=80, deadline=None)
    def test_nonempty_groups_always_answer_with_fallback(self, claim_list):
        groups, scorer = setup(claim_list)
        result = mcc(groups, scorer, node_threshold=1.99, fallback_best=True)
        for decision in result.decisions:
            assert decision.accepted

    @given(claims, thresholds)
    @settings(max_examples=80, deadline=None)
    def test_confidences_bounded(self, claim_list, theta):
        groups, scorer = setup(claim_list)
        result = mcc(groups, scorer, node_threshold=theta)
        for assessment in result.accepted_assessments():
            assert 0.0 <= assessment.confidence <= 2.0

    @given(claims)
    @settings(max_examples=50, deadline=None)
    def test_deterministic(self, claim_list):
        groups1, scorer1 = setup(claim_list)
        groups2, scorer2 = setup(claim_list)
        r1 = mcc(groups1, scorer1)
        r2 = mcc(groups2, scorer2)
        assert [
            sorted(a.value for a in d.accepted) for d in r1.decisions
        ] == [
            sorted(a.value for a in d.accepted) for d in r2.decisions
        ]

    @given(claims)
    @settings(max_examples=50, deadline=None)
    def test_stricter_threshold_never_accepts_more(self, claim_list):
        groups1, scorer1 = setup(claim_list)
        groups2, scorer2 = setup(claim_list)
        loose = mcc(groups1, scorer1, node_threshold=0.5, fallback_best=False)
        strict = mcc(groups2, scorer2, node_threshold=1.5, fallback_best=False)
        assert len(strict.accepted_assessments()) <= len(
            loose.accepted_assessments()
        )


# ----------------------------------------------------------------------
# production node-level scoring against the per-node oracle
# ----------------------------------------------------------------------
ORACLE_SOURCES = ["s1", "s2", "s3", "s4"]
# "Ann Lee" is both a value and a subject, so Eq. 10's path support sees
# values that point back at the subject; "Comedy"/" comedy" normalize
# alike; "rel" is a predicate the schema does not declare.
ORACLE_NAMES = ["E1", "E2", "Ann Lee"]
ORACLE_PREDICATES = ["release_year", "genre", "directed_by", "rel"]
ORACLE_VALUES = ["2010", "2011", "Comedy", " comedy", "Ann Lee", "E1"]

oracle_claims = st.lists(
    st.tuples(
        st.sampled_from(ORACLE_SOURCES),
        st.sampled_from(ORACLE_NAMES),
        st.sampled_from(ORACLE_PREDICATES),
        st.sampled_from(ORACLE_VALUES),
    ),
    min_size=1, max_size=25,
)

oracle_history = st.tuples(
    st.integers(min_value=0, max_value=60),
    st.sampled_from([0.0, 0.5, 0.8]),
    st.lists(
        st.tuples(
            st.sampled_from(ORACLE_SOURCES),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=40),
        ),
        max_size=4,
    ),
)

# Member positions into the graph's live triples; repeats allowed.
extra_groups = st.lists(
    st.lists(st.integers(min_value=0, max_value=24), min_size=1, max_size=8),
    max_size=4,
)

mcc_options = st.fixed_dictionaries({
    "node_threshold": st.floats(min_value=0.0, max_value=2.0),
    "graph_threshold": st.floats(min_value=0.0, max_value=1.0),
    "enable_graph_level": st.booleans(),
    "fast_path_nodes": st.integers(min_value=1, max_value=3),
    "fallback_best": st.booleans(),
    "hedge_margin": st.floats(min_value=0.0, max_value=0.5),
})


def as_group(members: list[Triple]) -> HomologousGroup:
    """A query-time group over ``members``, as the pipeline wraps a
    candidate set (members may differ in subject and predicate)."""
    first = members[0]
    group = HomologousGroup(
        key=first.key(),
        snode=HomologousNode(name=first.predicate, entity=first.subject,
                             num=len(members)),
        members=list(members),
    )
    for member in members:
        group.set_weight(member, 1.0)
    return group


def oracle_setup(claim_list, removals, history_spec, positions):
    graph = KnowledgeGraph()
    for source, entity, attribute, value in claim_list:
        graph.add_triple(
            Triple(entity, attribute, value, Provenance(source_id=source))
        )
        graph.add_entity(Entity(eid=entity, name=entity))
    stored = list(graph.triples())
    for idx in dict.fromkeys(removals):
        if idx < len(stored):
            assert graph.remove_triple(stored[idx])
    init_entities, init_credibility, seeds = history_spec
    history = HistoryStore(init_entities=init_entities,
                           init_credibility=init_credibility)
    for source, a, b in seeds:
        history.seed(source, min(a, b), max(a, b))
    live = list(graph.triples())

    def groups() -> list[HomologousGroup]:
        """Fresh groups on every call (``mcc`` writes into them)."""
        built = match_homologous(graph).groups
        for picks in positions:
            if live:
                built.append(as_group([live[i % len(live)] for i in picks]))
        return built

    return graph, history, live, groups


# A tombstoned claim, a non-neutral history, a single-member group and a
# multi-subject group whose values point back at their subjects.
ORACLE_EXAMPLE = dict(
    claim_list=[
        ("s1", "E1", "release_year", "2010"),
        ("s2", "E1", "release_year", "2011"),
        ("s1", "E1", "genre", "2010"),
        ("s1", "E1", "directed_by", "Ann Lee"),
        ("s3", "Ann Lee", "rel", "E1"),
        ("s1", "E1", "release_year", " comedy"),
    ],
    removals=[2],
    history_spec=(50, 0.5, [("s1", 30, 40), ("s2", 5, 40)]),
    positions=[[0], [0, 2, 3, 4]],
)


class TestNodeLevelOracle:
    @given(oracle_claims, st.lists(st.integers(0, 24), max_size=6),
           oracle_history, extra_groups)
    @example(**ORACLE_EXAMPLE)
    @settings(max_examples=150, deadline=None)
    def test_every_score_equals_the_per_node_oracle(
        self, claim_list, removals, history_spec, positions
    ):
        graph, history, live, groups = oracle_setup(
            claim_list, removals, history_spec, positions
        )
        scorer = NodeScorer(graph, SimulatedLLM(seed=0), history)
        oracle = OracleScorer(graph, SimulatedLLM(seed=0), history)
        assert scorer._max_degree == oracle._max_degree
        for group in groups():
            table = scorer.group_table(group)
            # Every member, and a live triple the group does not hold.
            outsiders = [t for t in live
                         if not any(t is m for m in group.members)]
            for triple in group.members + outsiders[:1]:
                assert scorer._node_features(triple, table) == \
                    oracle._node_features(triple, group)
                assert scorer.assess(triple, table) == \
                    oracle.assess(triple, group)
        assert scorer.llm.meter.snapshot() == oracle.llm.meter.snapshot()

    @given(oracle_claims, st.lists(st.integers(0, 24), max_size=6),
           oracle_history, extra_groups, mcc_options)
    @example(**ORACLE_EXAMPLE, options={
        "node_threshold": 0.7, "graph_threshold": 0.5,
        "enable_graph_level": True, "fast_path_nodes": 1,
        "fallback_best": True, "hedge_margin": 0.15,
    })
    @settings(max_examples=150, deadline=None)
    def test_mcc_decisions_equal_the_per_node_oracle(
        self, claim_list, removals, history_spec, positions, options
    ):
        graph, history, _, groups = oracle_setup(
            claim_list, removals, history_spec, positions
        )
        results = [
            mcc(groups(), scorer_cls(graph, SimulatedLLM(seed=0), history),
                **options)
            for scorer_cls in (NodeScorer, OracleScorer)
        ]
        production, expected = (
            (
                [(d.group.members, d.graph_conf, d.fast_path, d.accepted,
                  d.rejected) for d in result.decisions],
                result.lvs,
                result.nodes_scored,
            )
            for result in results
        )
        assert production == expected
