"""Reference builds of the retrieval indexes (test oracle).

Production indexes grow by folding: :meth:`TermTable.fold` reads each
new chunk's term counts once, into array entries grouped by term, and
:meth:`BM25Index.fold` and :meth:`TfidfVectorizer.fold` recompute one
weight per posting from them, vectorized.  The functions here build the
same per-term postings the textbook way, from the texts: every text is
tokenized and counted again, BM25 impacts come from the per-posting
loop over the count table, and TF-IDF weights from a literal per-chunk
transcription of the weighting (``1 + log tf``, times idf, divided by
``sqrt(fsum(squares))``).  Identity tests diff production against them
with ``==`` on exact floats.

:func:`bm25_state` and :func:`dense_state` are the views of a
production index that identity tests compare; :func:`bm25_build` and
:func:`tfidf_build` return the same views built from texts.
:func:`tfidf_matrix` and :func:`matrix_search` are the dense corpus
matrix and the ``matrix @ q`` search that production used before it
scored over postings, kept only to cross-check hits.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

import numpy as np

from repro.errors import StateError
from repro.retrieval.tokenize import tokenize
from repro.retrieval.vectorizer import TfidfVectorizer
from tests.hotpath_oracle import tfidf_weights


def bm25_build(texts: list[str], k1: float = 1.5, b: float = 0.75) -> tuple:
    """:func:`bm25_state` of a BM25 index over ``texts``, built by the
    textbook per-posting loop."""
    doc_tokens = [Counter(tokenize(text)) for text in texts]
    doc_len = [sum(counts.values()) for counts in doc_tokens]
    postings: dict[str, list[int]] = defaultdict(list)
    for doc_id, counts in enumerate(doc_tokens):
        for term in counts:
            postings[term].append(doc_id)
    n = len(texts)
    avg_len = (sum(doc_len) / n) if n else 0.0
    idf = {
        term: math.log(1 + (n - len(docs) + 0.5) / (len(docs) + 0.5))
        for term, docs in postings.items()
    }
    avg = avg_len or 1.0
    impacts = []
    for term, docs in postings.items():
        per_doc = []
        for doc_id in docs:
            tf = doc_tokens[doc_id].get(term, 0)
            denom = tf + k1 * (1 - b + b * doc_len[doc_id] / avg)
            per_doc.append((doc_id, idf[term] * tf * (k1 + 1) / denom))
        impacts.append((term, per_doc))
    return (
        [list(counts.items()) for counts in doc_tokens],
        doc_len,
        avg_len,
        list(idf.items()),
        impacts,
    )


def bm25_state(index) -> tuple:
    """A BM25 index's folded state, every order included: its term
    counts, lengths, average length, idf, and each term's postings as
    ``(doc id, impact)`` pairs."""
    n = len(index._doc_len)
    table = index._table
    postings = []
    for term, tid in table.term_ids.items():
        lo, hi = table.span(tid)
        postings.append((term, list(zip(
            table.docs[lo:hi].tolist(), index._weights[lo:hi].tolist()
        ))))
    return (
        [list(c.items()) for c in index._doc_tokens[:n]],
        index._doc_len,
        index._avg_len,
        list(index._idf.items()),
        postings,
    )


def tfidf_build(texts: list[str], min_df: int = 1) -> tuple:
    """:func:`dense_state` of a TF-IDF index over ``texts``, each chunk
    weighted on its own by :func:`tests.hotpath_oracle.tfidf_weights`."""
    rows = [Counter(tokenize(text)) for text in texts]
    doc_freq: Counter[str] = Counter()
    for counts in rows:
        doc_freq.update(counts.keys())
    terms = sorted(t for t, df in doc_freq.items() if df >= min_df)
    vocabulary = {term: i for i, term in enumerate(terms)}
    n_docs = max(len(texts), 1)
    idf = np.array(
        [math.log((1 + n_docs) / (1 + doc_freq[t])) + 1.0 for t in terms],
        dtype=np.float64,
    )
    postings: list[tuple[list[int], list[float]]] = [([], []) for _ in terms]
    for doc_id, counts in enumerate(rows):
        for col, weight in tfidf_weights(counts, vocabulary, idf).items():
            postings[col][0].append(doc_id)
            postings[col][1].append(weight)
    return (
        list(vocabulary.items()),
        idf.dtype, idf.shape, idf.tobytes(),
        [(term, docs, np.array(weights, dtype=np.float64).tobytes())
         for term, (docs, weights) in zip(terms, postings)],
    )


def dense_state(index) -> tuple:
    """A dense index's vocabulary (in column order), the bytes of its
    IDF vector, and each vocabulary term's postings: doc ids and the
    bytes of their weights."""
    vectorizer = index._vectorizer
    table = index._table
    postings = []
    for term in vectorizer.vocabulary:
        lo, hi = table.span(table.term_ids[term])
        postings.append((
            term, table.docs[lo:hi].tolist(), index._weights[lo:hi].tobytes()
        ))
    return (
        list(vectorizer.vocabulary.items()),
        vectorizer.idf.dtype, vectorizer.idf.shape, vectorizer.idf.tobytes(),
        postings,
    )


def tfidf_matrix(self: TfidfVectorizer, texts: list[str]) -> np.ndarray:
    """The dense L2-normalized TF-IDF rows of ``texts`` as
    ``TfidfVectorizer.transform`` computed them before postings: a
    row norm from ``np.linalg.norm``."""
    if not self._fitted:
        raise StateError("vectorizer must be fit before transform")
    matrix = np.zeros((len(texts), len(self.vocabulary)), dtype=np.float64)
    for row, text in enumerate(texts):
        counts = Counter(tokenize(text))
        for term, count in counts.items():
            col = self.vocabulary.get(term)
            if col is not None:
                matrix[row, col] = 1.0 + math.log(count)
    matrix *= self.idf
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


def matrix_search(index, matrix: np.ndarray, query: str, k: int = 5) -> list:
    """``VectorIndex.search`` as it was before postings: ``matrix @ q``
    over the corpus matrix, the query embedded by :func:`tfidf_matrix`.
    Returns ``(item, score)`` pairs."""
    if not index._items or k <= 0:
        return []
    qvec = tfidf_matrix(index._vectorizer, [query])[0]
    if not np.any(qvec):
        return []
    scores = matrix @ qvec
    k = min(k, len(index._items))
    top = np.argpartition(-scores, k - 1)[:k]
    top = top[np.argsort(-scores[top])]
    return [(index._items[i], float(scores[i])) for i in top]
