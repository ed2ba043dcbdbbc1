"""Naive reference implementations of the query hot path (test oracle).

Production memoizes :func:`repro.retrieval.tokenize.tokenize` and the
similarity functions of :mod:`repro.confidence.similarity`, and answers
:meth:`repro.retrieval.bm25.BM25Index.search` and
:meth:`repro.retrieval.vector_index.VectorIndex.search` term-at-a-time
from per-posting weights.  The functions here are the unoptimized
originals: no cache, BM25 rescoring every candidate through the
per-term loop, re-tokenizing the query per candidate, and TF-IDF
computing each chunk's cosine in Python loops from its raw term counts.
Candidates come from scanning the term-count table, not the postings
production reads.  Identity tests diff production against them with
exact float equality, and ``benchmarks/test_perf_hotpath.py`` patches
them in as its baseline.

Each function takes the same arguments as the production function it
mirrors, with the index passed first for the index methods, so it can
stand in for it under ``unittest.mock.patch``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Sequence

import numpy as np

from repro.confidence.similarity import entropy, mutual_information
from repro.retrieval.bm25 import BM25Index
from repro.retrieval.tokenize import _TOKEN_RE, STOPWORDS
from repro.retrieval.vector_index import SearchHit, VectorIndex
from repro.util import normalize_value


def tokenize(text: str, drop_stopwords: bool = True) -> list[str]:
    """Lower-case word tokens of ``text``, recomputed on every call."""
    tokens = _TOKEN_RE.findall(text.lower())
    if drop_stopwords:
        return [t for t in tokens if t not in STOPWORDS]
    return tokens


def value_distribution(values: Sequence[str]) -> dict[str, float]:
    """Token probability distribution of a node's attribute-value set."""
    counts: Counter[str] = Counter()
    for value in values:
        tokens = tokenize(normalize_value(value), drop_stopwords=False)
        counts.update(tokens if tokens else [normalize_value(value)])
    total = sum(counts.values())
    if total == 0:
        return {}
    return {token: count / total for token, count in counts.items()}


def similarity(values_i: Sequence[str], values_j: Sequence[str]) -> float:
    """Normalized similarity ``S(v_i, v_j)`` (Eq. 5), clamped to [0, 1]."""
    norm_i = {normalize_value(v) for v in values_i}
    norm_j = {normalize_value(v) for v in values_j}
    dist_i = value_distribution(list(values_i))
    dist_j = value_distribution(list(values_j))
    h_i = entropy(dist_i)
    h_j = entropy(dist_j)
    if h_i + h_j == 0.0:
        return 1.0 if norm_i == norm_j and norm_i else 0.0
    info = mutual_information(dist_i, dist_j)
    score = 2.0 * info / (h_i + h_j)
    return max(0.0, min(1.0, score))


def bm25_score(index: BM25Index, query: str, doc_id: int) -> float:
    """BM25 score of one indexed document, term by term from the raw
    term frequencies."""
    counts = index._doc_tokens[doc_id]
    length = index._doc_len[doc_id]
    score = 0.0
    for term in tokenize(query):
        tf = counts.get(term, 0)
        if tf == 0:
            continue
        idf = index._idf.get(term, 0.0)
        denom = tf + index.k1 * (1 - index.b + index.b * length / (index._avg_len or 1.0))
        score += idf * tf * (index.k1 + 1) / denom
    return score


def bm25_search(index: BM25Index, query: str, k: int = 5) -> list[SearchHit]:
    """Top-``k`` items by BM25 score: every candidate scored, full sort.

    Deliberately re-tokenizes the query once per candidate inside
    :func:`bm25_score`, the cost the production search removes.
    """
    tokens = tokenize(query)
    candidates = [
        doc_id
        for doc_id, counts in enumerate(index._doc_tokens[:len(index._doc_len)])
        if any(term in counts for term in tokens)
    ]
    scored = sorted(
        ((bm25_score(index, query, d), d) for d in candidates),
        key=lambda pair: (-pair[0], pair[1]),
    )
    return [SearchHit(index._items[d], s) for s, d in scored[:k]]


def tfidf_weights(
    counts: Mapping[str, int], vocabulary: Mapping[str, int], idf
) -> dict[int, float]:
    """One text's L2-normalized TF-IDF weights by vocabulary column:
    ``(1 + log tf) * idf``, divided by the square root of the exactly
    rounded sum of the squared weights."""
    raw = {
        vocabulary[term]: (1.0 + math.log(tf)) * idf[vocabulary[term]]
        for term, tf in counts.items()
        if term in vocabulary
    }
    norm = math.sqrt(math.fsum(w * w for w in raw.values()))
    return {col: w / norm for col, w in raw.items()}


def dense_search(index: VectorIndex, query: str, k: int = 5) -> list[SearchHit]:
    """Top-``k`` items by cosine similarity, one chunk at a time.

    Weights every chunk from its row of the term-count table and the
    query from its tokens, and sums each chunk's products in ascending
    vocabulary-column order; the top-``k`` is selected with the
    production selection code over the same score vector.
    """
    n = len(index._items)
    if not n or k <= 0:
        return []
    vectorizer = index._vectorizer
    vocabulary, idf = vectorizer.vocabulary, vectorizer.idf
    q = tfidf_weights(Counter(tokenize(query)), vocabulary, idf)
    if not q:
        return []
    scores = []
    for counts in index._table.counts[:n]:
        row = tfidf_weights(counts, vocabulary, idf)
        score = 0.0
        for col in sorted(q):
            if col in row:
                score += row[col] * q[col]
        scores.append(score)
    scores = np.array(scores, dtype=np.float64)
    k = min(k, n)
    top = np.argpartition(-scores, k - 1)[:k]
    top = top[np.argsort(-scores[top])]
    return [SearchHit(index._items[i], float(scores[i])) for i in top]
