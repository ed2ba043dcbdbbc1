"""Property-based tests for MCC invariants (Algorithm 1)."""

from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.confidence import HistoryStore, NodeScorer, mcc
from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets import make_movies
from repro.exec import Query
from repro.kg import Entity, KnowledgeGraph, Provenance, Triple
from repro.linegraph import HomologousGroup, HomologousNode, match_homologous
from repro.llm import SimulatedLLM
from repro.llm.stage import Stage
from tests.confidence.mcc_oracle import mcc as oracle_mcc
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
    return HomologousGroup(
        key=first.key(),
        snode=HomologousNode(name=first.predicate, entity=first.subject,
                             num=len(members)),
        members=list(members),
    )


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


# ----------------------------------------------------------------------
# production MCC against the prompt-everything oracle
# ----------------------------------------------------------------------
alphas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
betas = st.floats(min_value=0.05, max_value=4.0)

# Two groups (E1 release_year: 2010 twice, 2011, Comedy; E2 genre:
# Comedy twice, 2011) under a non-neutral history.  At α = β = 0.5 their
# exact C(v) are 0.993/0.982/0.480/0.246 and 0.916/0.926/0.587, and no
# upper bound exceeds 1.111.
SKIP_EXAMPLE = dict(
    claim_list=[
        ("s1", "E1", "release_year", "2010"),
        ("s2", "E1", "release_year", "2011"),
        ("s3", "E1", "release_year", "Comedy"),
        ("s4", "E1", "release_year", "2010"),
        ("s2", "E2", "genre", "Comedy"),
        ("s3", "E2", "genre", " comedy"),
        ("s1", "E2", "genre", "2011"),
    ],
    removals=[],
    history_spec=(50, 0.5, [("s1", 30, 40), ("s3", 5, 40)]),
    positions=[],
)
SKIP_OPTIONS = dict(
    graph_threshold=0.5, enable_graph_level=False, fast_path_nodes=2,
    hedge_margin=0.0,
)


def authority_calls(scorer: NodeScorer) -> int:
    usage = scorer.llm.meter.by_stage.get(Stage.AUTHORITY.value)
    return usage.calls if usage else 0


class TestPromptSkipOracle:
    @given(oracle_claims, st.lists(st.integers(0, 24), max_size=6),
           oracle_history, extra_groups, mcc_options, alphas, betas)
    # Every node bound-rejected (θ above every bound): with the fallback
    # every node is prompted and the group answers by exact C(v) ...
    @example(**SKIP_EXAMPLE, alpha=0.5, beta=0.5,
             options=dict(SKIP_OPTIONS, node_threshold=1.99,
                          fallback_best=True))
    # ... and without it none is.
    @example(**SKIP_EXAMPLE, alpha=0.5, beta=0.5,
             options=dict(SKIP_OPTIONS, node_threshold=1.99,
                          fallback_best=False))
    # α = 0: the bound is C(v) itself.
    @example(**SKIP_EXAMPLE, alpha=0.0, beta=0.5,
             options=dict(SKIP_OPTIONS, node_threshold=0.7,
                          fallback_best=True))
    # E2's Comedy from s2 has C(v) = θ exactly: prompted (its bound
    # clears θ) and rejected, beside an accepted and a bound-rejected
    # node.
    @example(**SKIP_EXAMPLE, alpha=0.5, beta=0.5,
             options=dict(SKIP_OPTIONS, node_threshold=0.9158046426347001,
                          fallback_best=True))
    # α = 0 and E1's 2011 from s2 has C(v) = θ exactly, so its bound is
    # θ too: rejected without a prompt.
    @example(**SKIP_EXAMPLE, alpha=0.0, beta=0.5,
             options=dict(SKIP_OPTIONS, node_threshold=0.4675925925925926,
                          fallback_best=True))
    # The two 2010 claims come first in to-assess order but come from
    # sources with no track record: their bounds (0.448) do not clear θ,
    # while 2011 (C(v) = 0.861) does.  They must not be prompted.
    @example(
        claim_list=[("s1", "E1", "release_year", "2010"),
                    ("s2", "E1", "release_year", "2010"),
                    ("s3", "E1", "release_year", "2011")],
        removals=[], positions=[],
        history_spec=(0, 0.5, [("s1", 0, 40), ("s2", 0, 40),
                               ("s3", 40, 40)]),
        alpha=0.5, beta=0.5,
        options=dict(SKIP_OPTIONS, node_threshold=0.5, fallback_best=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_mcc_equals_the_prompt_everything_oracle(
        self, claim_list, removals, history_spec, positions, options,
        alpha, beta,
    ):
        graph, history, _, groups = oracle_setup(
            claim_list, removals, history_spec, positions
        )
        scorers = [
            NodeScorer(graph, SimulatedLLM(seed=0), history,
                       alpha=alpha, beta=beta)
            for _ in range(2)
        ]
        got_groups, expected_groups = groups(), groups()
        got = mcc(got_groups, scorers[0], **options)
        expected = oracle_mcc(expected_groups, scorers[1], **options)

        assert got.lvs == expected.lvs
        assert got.nodes_scored == expected.nodes_scored
        assert len(got.decisions) == len(expected.decisions)
        theta = options["node_threshold"]
        per_node = OracleScorer(graph, SimulatedLLM(seed=0), history)
        distinct_prompts = 0
        for g, e in zip(got.decisions, expected.decisions):
            assert (g.group.members, g.graph_conf, g.fast_path) == \
                (e.group.members, e.graph_conf, e.fast_path)
            assert g.accepted == e.accepted
            assert len(g.rejected) == len(e.rejected)
            # A node is left unprompted exactly when its bound is ≤ θ and
            # the fallback does not need it: some node cleared θ, or the
            # fallback is off.
            cleared = any(a.confidence > theta for a in e.accepted)
            for got_node, oracle_node in zip(g.rejected, e.rejected):
                assert got_node.bound == (
                    scorers[0].upper_bound(oracle_node.consistency,
                                           oracle_node.auth_hist) <= theta
                    and (cleared or not options["fallback_best"])
                )
                if not got_node.bound:
                    assert got_node == oracle_node
                    continue
                assert got_node.triple is oracle_node.triple
                assert got_node.consistency == oracle_node.consistency
                assert got_node.auth_hist == oracle_node.auth_hist
                assert oracle_node.confidence <= got_node.confidence <= theta
                if alpha == 0.0:
                    assert got_node.confidence == oracle_node.confidence
            # The prompts of the nodes production had to prompt, as
            # ``LLMClient.authority`` renders them.
            distinct_prompts += len({
                json.dumps(per_node._node_features(a.triple, g.group),
                           sort_keys=True)
                for a in g.accepted + g.rejected if not a.bound
            })
        # Each distinct prompt is sent once per group.
        assert authority_calls(scorers[0]) == distinct_prompts


def test_movies_run_matches_the_prompt_everything_oracle(monkeypatch):
    """A seeded Movies run with history updates on gives the same
    answers, texts, stage values and final history under the oracle."""
    dataset = make_movies(scale=1.0, seed=5, n_queries=150)

    def run() -> tuple[list, dict, int]:
        rag = MultiRAG(MultiRAGConfig(seed=3))
        rag.ingest(dataset.raw_sources())
        results = [rag.run(Query.key(q.entity, q.attribute))
                   for q in dataset.queries]
        return (
            [(r.answers, r.generated_text, r.stage_values) for r in results],
            rag.history.export_state(),
            rag.llm.meter.by_stage[Stage.AUTHORITY.value].calls,
        )

    got, got_history, got_calls = run()
    monkeypatch.setattr("repro.core.pipeline.mcc", oracle_mcc)
    expected, expected_history, expected_calls = run()
    assert got == expected
    assert got_history == expected_history
    assert got_calls < expected_calls
