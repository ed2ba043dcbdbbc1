"""Production/oracle output identity for the query hot path.

Every hot-path optimization (BM25 and TF-IDF scored term-at-a-time over
per-posting weights, tokenizer memoization) must produce *byte-identical
output* to the naive code kept in ``tests/hotpath_oracle.py``:
identical hit lists, identical float scores.  These tests pin the
contract on randomized corpora so a future "optimization" that drifts by
one ULP fails loudly.  TF-IDF search is also cross-checked against the
dense ``matrix @ q`` product it replaced, on small Movies, Flights and
HotpotQA-like corpora: the same hits in the same order, scores within
``1e-12`` relative.
"""

from __future__ import annotations

import random

import pytest

import repro.perf as perf
from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets import make_flights, make_hotpotqa_like, make_movies
from repro.retrieval import BM25Index, VectorIndex
from repro.retrieval.tokenize import tokenize
from tests import hotpath_oracle as oracle
from tests.retrieval import index_oracle

WORDS = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "лямбда", "mu", "nu", "xi", "omicron", "pi", "rho",
    "sigma", "tau", "upsilon",
]


def _corpus(rng: random.Random, n_docs: int) -> list[str]:
    return [
        " ".join(rng.choices(WORDS, k=rng.randint(3, 30)))
        for _ in range(n_docs)
    ]


def _queries(rng: random.Random, n: int) -> list[str]:
    queries = [" ".join(rng.choices(WORDS, k=rng.randint(1, 6))) for _ in range(n)]
    # repeated terms and unseen terms exercise the accumulation order
    queries += ["alpha alpha beta", "unseen12345 alpha", "", "the of and"]
    return queries


@pytest.fixture()
def corpus():
    rng = random.Random(1234)
    texts = _corpus(rng, 300)
    items = [f"d{i}" for i in range(len(texts))]
    return items, texts, _queries(rng, 60)


def _search_all(search, queries, k):
    return [[(h.item, h.score) for h in search(q, k)] for q in queries]


class TestBM25Identity:
    @pytest.mark.parametrize("k", [1, 3, 10, 1000])
    def test_search_identical(self, corpus, k):
        items, texts, queries = corpus
        index = BM25Index[str]().build(items, texts)
        production = _search_all(index.search, queries, k)
        naive = _search_all(
            lambda q, k: oracle.bm25_search(index, q, k), queries, k
        )
        assert production == naive  # floats compared exactly, on purpose

    def test_score_identical(self, corpus):
        items, texts, queries = corpus
        index = BM25Index[str]().build(items, texts)
        for query in queries[:20]:
            for doc_id in range(0, len(items), 17):
                assert index.score(query, doc_id) == oracle.bm25_score(
                    index, query, doc_id
                )


class TestDenseIdentity:
    @pytest.mark.parametrize("k", [1, 3, 10, 1000])
    def test_search_identical(self, corpus, k):
        items, texts, queries = corpus
        index = VectorIndex[str]().build(items, texts)
        production = _search_all(index.search, queries, k)
        naive = _search_all(
            lambda q, k: oracle.dense_search(index, q, k), queries, k
        )
        assert production == naive  # floats compared exactly, on purpose


def _corpus_queries(name: str) -> tuple[list, list[str]]:
    """Chunks of a small bench-like corpus, and its keyword questions
    plus 50 chunk texts as queries."""
    if name == "hotpot":
        dataset = make_hotpotqa_like(n_queries=40, seed=0)
        sources = dataset.sources
        keys = {(str(q.hops[0][0]), q.hops[0][1]) for q in dataset.queries}
    else:
        make = make_movies if name == "movies" else make_flights
        dataset = make(scale=0.5, seed=0)
        sources = dataset.raw_sources()
        keys = {(entity, attribute)
                for entity, record in dataset.truth.items()
                for attribute, values in record.items() if values}
    rag = MultiRAG.from_config(MultiRAGConfig(seed=0))
    rag.ingest(sources)
    chunks = rag.retriever.chunks
    questions = [f"{e} {a.replace('_', ' ')}" for e, a in sorted(keys)]
    rng = random.Random(5)
    return chunks, questions + [c.text for c in rng.sample(chunks, 50)]


class TestDenseMatchesMatrixProduct:
    @pytest.mark.parametrize("name", ["movies", "flights", "hotpot"])
    def test_same_hits_as_matrix_product(self, name):
        chunks, queries = _corpus_queries(name)
        ids = [c.chunk_id for c in chunks]
        index = VectorIndex[str]().build(ids, [c.text for c in chunks])
        matrix = index_oracle.tfidf_matrix(
            index._vectorizer, [c.text for c in chunks]
        )
        for query in queries:
            for k in (5, 30, len(ids) // 2):
                got = [(h.item, h.score) for h in index.search(query, k)]
                want = index_oracle.matrix_search(index, matrix, query, k)
                assert [i for i, _ in got] == [i for i, _ in want]
                for (_, a), (_, b) in zip(got, want):
                    assert a == pytest.approx(b, rel=1e-12, abs=0.0)


class TestTokenizeCache:
    def test_cached_equals_uncached(self):
        texts = ["Hello, World! 123", "the and of", "", "Ünïcode tëxt"]
        for text in texts:
            for drop_stopwords in (True, False):
                assert tokenize(text, drop_stopwords) == oracle.tokenize(
                    text, drop_stopwords
                )

    def test_cache_returns_fresh_lists(self):
        first = tokenize("alpha beta gamma")
        second = tokenize("alpha beta gamma")
        assert first == second
        first.append("mutated")
        assert tokenize("alpha beta gamma") == second

    def test_clear_caches_resets(self):
        tokenize("cache me")
        perf.clear_caches()
        assert tokenize("cache me") == ["cache", "me"]
