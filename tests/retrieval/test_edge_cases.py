"""Edge-case behaviour of the retrieval indexes.

Empty corpora, empty or stopword-only queries, ``k`` exceeding the index
size and single-document corpora must all degrade gracefully — and
identically in the fast production BM25 and the naive test oracle
(``tests/hotpath_oracle.py``).
"""

from __future__ import annotations

import pytest

from repro.retrieval import BM25Index
from repro.retrieval.vector_index import VectorIndex
from tests import hotpath_oracle as oracle


@pytest.fixture(params=["fast", "naive"])
def bm25_impl(request, monkeypatch):
    """``fast``: production BM25; ``naive``: the oracle patched in."""
    if request.param == "naive":
        monkeypatch.setattr(BM25Index, "search", oracle.bm25_search)
        monkeypatch.setattr(BM25Index, "score", oracle.bm25_score)
    return request.param


class TestBM25EdgeCases:
    def test_empty_corpus(self, bm25_impl):
        index = BM25Index[str]().build([], [])
        assert index.search("anything at all", k=5) == []

    def test_empty_query(self, bm25_impl):
        index = BM25Index[str]().build(["a"], ["one document here"])
        assert index.search("", k=5) == []

    def test_stopword_only_query(self, bm25_impl):
        index = BM25Index[str]().build(["a"], ["one document here"])
        assert index.search("the and of is", k=5) == []

    def test_k_exceeds_corpus(self, bm25_impl):
        index = BM25Index[str]().build(
            ["a", "b"], ["alpha beta gamma", "alpha delta epsilon"]
        )
        hits = index.search("alpha", k=50)
        assert len(hits) == 2

    def test_k_zero(self, bm25_impl):
        index = BM25Index[str]().build(["a"], ["alpha beta"])
        assert index.search("alpha", k=0) == []

    def test_single_doc_corpus(self, bm25_impl):
        index = BM25Index[str]().build(["only"], ["the solitary document"])
        hits = index.search("solitary document", k=3)
        assert [h.item for h in hits] == ["only"]
        assert hits[0].score > 0.0

    def test_single_doc_no_match(self, bm25_impl):
        index = BM25Index[str]().build(["only"], ["the solitary document"])
        assert index.search("unrelated words", k=3) == []

    def test_score_unknown_doc_or_term(self, bm25_impl):
        index = BM25Index[str]().build(["a"], ["alpha beta"])
        assert index.score("gamma", 0) == 0.0


class TestVectorIndexEdgeCases:
    def test_empty_corpus(self):
        index = VectorIndex[str]().build([], [])
        assert index.search("anything", k=5) == []

    def test_empty_query(self):
        index = VectorIndex[str]().build(["a"], ["one document here"])
        assert index.search("", k=5) == []

    def test_stopword_only_query(self):
        index = VectorIndex[str]().build(["a"], ["one document here"])
        assert index.search("the and of is", k=5) == []

    def test_k_exceeds_corpus(self):
        index = VectorIndex[str]().build(
            ["a", "b"], ["alpha beta gamma", "alpha delta epsilon"]
        )
        hits = index.search("alpha", k=50)
        assert len(hits) == 2

    def test_k_zero(self):
        index = VectorIndex[str]().build(["a"], ["alpha beta"])
        assert index.search("alpha", k=0) == []

    def test_single_doc_corpus(self):
        index = VectorIndex[str]().build(["only"], ["the solitary document"])
        hits = index.search("solitary document", k=3)
        assert [h.item for h in hits] == ["only"]
        assert hits[0].score > 0.0
