"""Tests for graph-level confidence (Eq. 7)."""

from __future__ import annotations

import pytest

from repro.confidence import graph_confidence
from repro.kg import Provenance, Triple
from repro.linegraph import HomologousGroup, HomologousNode


def group_of(values: list[str], key=("E", "attr")) -> HomologousGroup:
    members = [
        Triple(key[0], key[1], v, Provenance(source_id=f"s{i}"))
        for i, v in enumerate(values)
    ]
    snode = HomologousNode(name=key[1], entity=key[0], num=len(members))
    return HomologousGroup(key=key, snode=snode, members=members)


class TestGraphConfidence:
    def test_unanimous_group(self):
        assert graph_confidence(group_of(["2010", "2010", "2010"])) == 1.0

    def test_fully_conflicted_group(self):
        assert graph_confidence(group_of(["2010", "2011"])) == 0.0

    def test_majority_agreement_between(self):
        conf = graph_confidence(group_of(["2010", "2010", "2011"]))
        assert 0.0 < conf < 1.0
        assert conf == pytest.approx(1 / 3)

    def test_singleton_group(self):
        assert graph_confidence(group_of(["2010"])) == 1.0

    def test_more_agreement_higher_confidence(self):
        low = graph_confidence(group_of(["a", "b", "c"]))
        high = graph_confidence(group_of(["a", "a", "b"]))
        assert high > low

