"""Runtime contract validators (``repro.contracts``).

Real pipeline artifacts must validate; fabricated corruptions of the
same structures must raise :class:`ContractViolation`.
"""

from __future__ import annotations

import pytest

from repro.contracts import (
    check_mcc_result,
    check_mlg,
    check_node_confidence,
    check_ranked_answers,
    check_unit_interval,
)
from repro.core import MultiRAG, MultiRAGConfig
from repro.errors import ContractViolation
from repro.exec import Query
from repro.linegraph.mlg import MultiSourceLineGraph


class TestScalarBounds:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0, 1])
    def test_unit_interval_accepts(self, value):
        assert check_unit_interval(value) == float(value)

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan"),
                                       float("inf"), "0.5", None, True])
    def test_unit_interval_rejects(self, value):
        with pytest.raises(ContractViolation):
            check_unit_interval(value)

    @pytest.mark.parametrize("value", [0.0, 1.5, 2.0])
    def test_node_confidence_accepts(self, value):
        assert check_node_confidence(value) == value

    @pytest.mark.parametrize("value", [-0.01, 2.01, float("nan")])
    def test_node_confidence_rejects(self, value):
        with pytest.raises(ContractViolation):
            check_node_confidence(value)


class TestMCCResult:
    def test_real_result_validates(self, pipeline):
        result = pipeline.run(Query.key("Inception", "release_year"))
        assert result.mcc is not None
        assert check_mcc_result(result.mcc) is result.mcc

    def test_accepted_in_lvs_rejected(self, pipeline):
        result = pipeline.run(Query.key("Inception", "release_year"))
        mcc = result.mcc
        accepted = mcc.accepted_assessments()[0]
        mcc.lvs.append(accepted.triple)
        with pytest.raises(ContractViolation, match="disjoint"):
            check_mcc_result(mcc)

    def test_accepted_and_rejected_overlap_rejected(self, pipeline):
        mcc = pipeline.run(Query.key("Inception", "release_year")).mcc
        decision = next(d for d in mcc.decisions if d.accepted)
        decision.rejected.append(decision.accepted[0])
        with pytest.raises(ContractViolation, match="accepted and rejected"):
            check_mcc_result(mcc)

    def test_inflated_nodes_scored_rejected(self, pipeline):
        mcc = pipeline.run(Query.key("Inception", "release_year")).mcc
        mcc.nodes_scored = 10_000
        with pytest.raises(ContractViolation, match="nodes_scored"):
            check_mcc_result(mcc)

    def test_out_of_range_graph_conf_rejected(self, pipeline):
        mcc = pipeline.run(Query.key("Inception", "release_year")).mcc
        mcc.decisions[0].graph_conf = 1.7
        with pytest.raises(ContractViolation, match="graph_conf"):
            check_mcc_result(mcc)


class TestMLG:
    @pytest.fixture()
    def mlg(self, tiny_graph):
        return MultiSourceLineGraph(tiny_graph)

    def test_real_mlg_validates(self, mlg):
        assert check_mlg(mlg) is mlg

    def test_wrong_num_rejected(self, mlg):
        mlg.groups[0].snode.num += 1
        with pytest.raises(ContractViolation, match="snode.num"):
            check_mlg(mlg)

    def test_empty_group_rejected(self, mlg):
        group = mlg.groups[0]
        group.members.clear()
        with pytest.raises(ContractViolation, match="no members"):
            check_mlg(mlg)

    def test_foreign_member_rejected(self, mlg):
        first, second = mlg.groups[0], mlg.groups[1]
        first.members.append(second.members[0])
        first.snode.num = len(first.members)
        with pytest.raises(ContractViolation, match="member with key"):
            check_mlg(mlg)

    def test_unindexed_group_rejected(self, mlg):
        group = mlg.groups[0]
        del mlg._group_by_key[group.key]
        with pytest.raises(ContractViolation, match="key index"):
            check_mlg(mlg)

    def test_isolated_collision_rejected(self, mlg):
        mlg.isolated.append(mlg.groups[0].members[0])
        with pytest.raises(ContractViolation, match="collides"):
            check_mlg(mlg)


class TestRankedAnswers:
    class _Answer:
        def __init__(self, confidence: float) -> None:
            self.confidence = confidence

    def test_sorted_validates(self):
        answers = [self._Answer(1.4), self._Answer(0.9), self._Answer(0.9)]
        assert check_ranked_answers(answers) == answers

    def test_unsorted_rejected(self):
        with pytest.raises(ContractViolation, match="sorted"):
            check_ranked_answers([self._Answer(0.5), self._Answer(0.9)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolation):
            check_ranked_answers([self._Answer(2.5)])


class TestDebugContractsMode:
    def test_pipeline_runs_clean_under_contracts(self, sources):
        rag = MultiRAG(MultiRAGConfig(extraction_noise=0.0,
                                      debug_contracts=True))
        rag.ingest(sources)
        result = rag.run(Query.key("Inception", "release_year"))
        assert result.answers

    def test_default_config_leaves_contracts_off(self):
        assert MultiRAGConfig().debug_contracts is False
