"""Property tests: the query hot path equals the naive test oracle.

Random small corpora and queries, compared with ``==`` on exact floats
against ``tests/hotpath_oracle.py``: BM25 search and scoring over
``k`` = 0 and ``k`` past the corpus size, repeated and unseen terms,
empty and stopword-only queries, non-ASCII text and exact score ties;
tokenization, value distributions and similarity both right after
``perf.clear_caches()`` and again from a warm cache.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.perf as perf
from repro.confidence.similarity import similarity, value_distribution
from repro.retrieval.bm25 import BM25Index
from repro.retrieval.tokenize import STOPWORDS, tokenize
from tests import hotpath_oracle as oracle

#: a small shared vocabulary so documents and queries overlap; compound
#: tokens, mixed case and non-ASCII words included
VOCAB = [
    "alpha", "beta", "Gamma", "delta", "ca-981", "14:30", "o'neil",
    "v1.2", "café", "Ünïcode", "лямбда", "東京", "naïve", "x",
]
STOPWORD_LIST = sorted(STOPWORDS)[:8]

unseen = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x4FF),
    min_size=1, max_size=8,
)
words = st.one_of(
    st.sampled_from(VOCAB), st.sampled_from(STOPWORD_LIST), unseen
)
texts = st.lists(words, max_size=12).map(" ".join)
queries = st.one_of(
    texts,
    st.just(""),
    st.lists(st.sampled_from(STOPWORD_LIST), min_size=1, max_size=4)
    .map(" ".join),
    # repeated terms exercise the accumulation order
    st.tuples(st.sampled_from(VOCAB), st.integers(2, 4))
    .map(lambda pair: " ".join([pair[0]] * pair[1])),
)
# one- and two-word documents over three words: equal lengths and
# document frequencies give equal impacts, so exact score ties (broken
# by insertion order) are common
tiny_words = st.sampled_from(["alpha", "beta", "gamma"])
tiny_docs = st.lists(
    st.lists(tiny_words, min_size=1, max_size=2).map(" ".join),
    max_size=6,
)
tiny_queries = st.lists(tiny_words, max_size=4).map(" ".join)
value_lists = st.lists(
    st.one_of(st.sampled_from(VOCAB), texts, st.just("")), max_size=4
)


def _hits(hits):
    return [(hit.item, hit.score) for hit in hits]


class TestBM25MatchesOracle:
    @given(
        docs=st.one_of(st.lists(texts, max_size=12), tiny_docs),
        query=st.one_of(queries, tiny_queries),
        k=st.integers(0, 20),
        k1=st.sampled_from([0.0, 0.9, 1.5, 2.4]),
        b=st.sampled_from([0.0, 0.5, 0.75, 1.0]),
    )
    # a document first reached at a later query token ties the kth-best
    # partial score exactly; it must not be pruned, since it wins the
    # tie on insertion order
    @example(docs=["beta", "alpha"], query="alpha beta", k=1, k1=1.5,
             b=0.75)
    @settings(max_examples=300, deadline=None)
    def test_search_and_score(self, docs, query, k, k1, b):
        items = [f"d{i}" for i in range(len(docs))]
        index = BM25Index[str](k1=k1, b=b).build(items, docs)
        assert _hits(index.search(query, k)) == _hits(
            oracle.bm25_search(index, query, k)
        )
        for doc_id in range(len(docs)):
            assert index.score(query, doc_id) == oracle.bm25_score(
                index, query, doc_id
            )


class TestMemosMatchOracle:
    @given(text=st.one_of(texts, queries, unseen), drop=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_tokenize(self, text, drop):
        expected = oracle.tokenize(text, drop)
        perf.clear_caches()
        assert tokenize(text, drop) == expected
        assert tokenize(text, drop) == expected  # warm

    @given(values=value_lists)
    @settings(max_examples=200, deadline=None)
    def test_value_distribution(self, values):
        expected = oracle.value_distribution(values)
        perf.clear_caches()
        assert value_distribution(values) == expected
        assert value_distribution(values) == expected  # warm

    @given(values_i=value_lists, values_j=value_lists)
    @settings(max_examples=200, deadline=None)
    def test_similarity(self, values_i, values_j):
        expected = oracle.similarity(values_i, values_j)
        perf.clear_caches()
        assert similarity(values_i, values_j) == expected
        assert similarity(values_i, values_j) == expected  # warm
        # the swapped pair is a separate memo entry
        assert similarity(values_j, values_i) == oracle.similarity(
            values_j, values_i
        )
