"""Property tests: the query hot path equals the naive test oracle.

Random small corpora and queries, compared with ``==`` on exact floats
against ``tests/hotpath_oracle.py``: BM25 and TF-IDF search (and BM25
scoring) over ``k`` = 0 and ``k`` past the corpus size, repeated and
unseen terms, empty and stopword-only queries, non-ASCII text and exact
score ties; tokenization, value distributions and similarity both right
after ``perf.clear_caches()`` and again from a warm cache.  Two TF-IDF
properties pin exact ties: chunks holding the same terms in another
token order, and chunks whose terms differ but whose weights are the
same multiset, score exactly equal.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.perf as perf
from repro.confidence.similarity import similarity, value_distribution
from repro.retrieval.bm25 import BM25Index
from repro.retrieval.tokenize import STOPWORDS, tokenize
from repro.retrieval.vector_index import VectorIndex
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


def _scores(index, query: str, n: int) -> dict:
    return {hit.item: hit.score for hit in index.search(query, n)}


class TestDenseMatchesOracle:
    @given(
        docs=st.one_of(st.lists(texts, max_size=12), tiny_docs),
        query=st.one_of(queries, tiny_queries),
        k=st.integers(0, 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_search(self, docs, query, k):
        items = [f"d{i}" for i in range(len(docs))]
        index = VectorIndex[str]().build(items, docs)
        assert _hits(index.search(query, k)) == _hits(
            oracle.dense_search(index, query, k)
        )

    @given(
        tokens=st.lists(st.sampled_from(VOCAB), min_size=1, max_size=10),
        others=st.lists(texts, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_token_order_does_not_change_scores(self, tokens, others, data):
        """Two chunks holding the same tokens in another order."""
        shuffled = data.draw(st.permutations(tokens))
        query = " ".join(data.draw(
            st.lists(st.sampled_from(tokens), min_size=1, max_size=4)
        ))
        docs = others + [" ".join(tokens), " ".join(shuffled)]
        items = [f"d{i}" for i in range(len(others))] + ["a", "b"]
        index = VectorIndex[str]().build(items, docs)
        scores = _scores(index, query, len(docs))
        # no hits at all when no query token is indexed
        assert scores.get("a") == scores.get("b")
        assert _hits(index.search(query, len(docs))) == _hits(
            oracle.dense_search(index, query, len(docs))
        )

    @given(
        tfs=st.lists(st.integers(1, 4), min_size=1, max_size=8),
        # vocabulary words only: an unseen word could be ``a3``
        others=st.lists(
            st.lists(st.sampled_from(VOCAB), max_size=12).map(" ".join),
            max_size=6,
        ),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_equal_weight_multisets_score_equal(self, tfs, others, data):
        """Chunk ``b`` renames chunk ``a``'s terms (``a3`` -> ``b3``, each
        in one chunk only, so with equal idf) and shuffles its tokens: its
        weights are ``a``'s multiset on other terms.  A query asking the
        same of both gets exactly equal scores, whatever its token
        order."""
        tokens_a = [f"a{i}" for i, tf in enumerate(tfs) for _ in range(tf)]
        tokens_b = data.draw(st.permutations(
            [t.replace("a", "b") for t in tokens_a]
        ))
        asked = data.draw(st.lists(
            st.tuples(st.integers(0, len(tfs) - 1), st.integers(1, 3)),
            min_size=1, max_size=4,
        ))
        query = data.draw(st.permutations(
            [f"{side}{i}" for i, repeat in asked for side in "ab"
             for _ in range(repeat)]
        ))
        docs = others + [" ".join(tokens_a), " ".join(tokens_b)]
        items = [f"d{i}" for i in range(len(others))] + ["a", "b"]
        index = VectorIndex[str]().build(items, docs)
        scores = _scores(index, " ".join(query), len(docs))
        assert scores["a"] == scores["b"]


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
