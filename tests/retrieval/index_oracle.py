"""One-shot reference builds of the retrieval indexes (test oracle).

Production indexes grow by folding: :meth:`BM25Index.fold`,
:meth:`TfidfVectorizer.fold` and :meth:`MultiSourceRetriever.build` read
each new chunk once and recompute the corpus-wide floats from cached
integer statistics.  The functions here are the builds they replaced,
kept verbatim: every text is tokenized and counted again, and BM25
impacts come from the per-posting loop over the count table.  Identity
tests diff the fold against them with ``==`` on exact floats.

Each build function takes the object it builds first, in place of
``self``.  :func:`bm25_state` and :func:`dense_state` are the views of
an index that identity tests compare.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

import numpy as np

from repro.errors import StateError
from repro.retrieval.bm25 import BM25Index
from repro.retrieval.chunking import Chunk
from repro.retrieval.retriever import MultiSourceRetriever
from repro.retrieval.tokenize import tokenize
from repro.retrieval.vector_index import VectorIndex
from repro.retrieval.vectorizer import TfidfVectorizer


def bm25_build(self: BM25Index, items: list, texts: list[str]) -> BM25Index:
    if len(items) != len(texts):
        raise ValueError("items and texts must have equal length")
    self._items = list(items)
    self._doc_tokens = []
    self._doc_len = []
    self._postings = defaultdict(list)
    for doc_id, text in enumerate(texts):
        counts = Counter(tokenize(text))
        self._doc_tokens.append(counts)
        self._doc_len.append(sum(counts.values()))
        for term in counts:
            self._postings[term].append(doc_id)
    n = len(texts)
    self._avg_len = (sum(self._doc_len) / n) if n else 0.0
    self._idf = {
        term: math.log(1 + (n - len(docs) + 0.5) / (len(docs) + 0.5))
        for term, docs in self._postings.items()
    }
    bm25_rebuild_impacts(self)
    return self


def bm25_rebuild_impacts(self: BM25Index) -> None:
    self._impacts = {}
    self._max_impact = {}
    avg = self._avg_len or 1.0
    k1 = self.k1
    b = self.b
    for term, docs in self._postings.items():
        idf = self._idf.get(term, 0.0)
        per_doc: dict[int, float] = {}
        for doc_id in docs:
            tf = self._doc_tokens[doc_id].get(term, 0)
            length = self._doc_len[doc_id]
            denom = tf + k1 * (1 - b + b * length / avg)
            per_doc[doc_id] = idf * tf * (k1 + 1) / denom
        self._impacts[term] = per_doc
        self._max_impact[term] = max(per_doc.values()) if per_doc else 0.0


def tfidf_fit(self: TfidfVectorizer, texts: list[str]) -> TfidfVectorizer:
    """Learn vocabulary and IDF weights from ``texts``."""
    doc_freq: Counter[str] = Counter()
    for text in texts:
        doc_freq.update(set(tokenize(text)))
    terms = sorted(t for t, df in doc_freq.items() if df >= self.min_df)
    self.vocabulary = {term: i for i, term in enumerate(terms)}
    n_docs = max(len(texts), 1)
    self.idf = np.array(
        [math.log((1 + n_docs) / (1 + doc_freq[t])) + 1.0 for t in terms],
        dtype=np.float64,
    )
    self._fitted = True
    return self


def tfidf_transform(self: TfidfVectorizer, texts: list[str]) -> np.ndarray:
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


def retriever_build(chunks: list[Chunk], mode: str = "hybrid") -> MultiSourceRetriever:
    """A retriever over ``chunks`` with both indexes built one-shot.

    The dense half is ``VectorIndex.build`` as it was:
    ``fit_transform`` (``fit`` then ``transform``) over every text, no
    matrix for an empty corpus.
    """
    texts = [c.text for c in chunks]
    retriever = MultiSourceRetriever(mode=mode)
    retriever._chunks = list(chunks)
    dense: VectorIndex[Chunk] = VectorIndex()
    dense._items = list(chunks)
    if texts:
        vectorizer = dense._vectorizer
        dense._matrix = tfidf_transform(tfidf_fit(vectorizer, texts), texts)
    retriever._dense = dense
    retriever._sparse = bm25_build(BM25Index(), list(chunks), texts)
    retriever._built = True
    return retriever


def bm25_state(index) -> tuple:
    """A BM25 index's folded state, every dict order included: its term
    counts, lengths, average length, postings, idf, impacts and max
    impacts."""
    n = len(index._doc_len)
    return (
        [list(c.items()) for c in index._doc_tokens[:n]],
        index._doc_len,
        index._avg_len,
        [(term, list(docs)) for term, docs in index._postings.items()],
        list(index._idf.items()),
        [(term, list(per_doc.items()))
         for term, per_doc in index._impacts.items()],
        list(index._max_impact.items()),
    )


def dense_state(index) -> tuple:
    """A dense index's vocabulary (in column order), and the bytes of its
    IDF vector and matrix."""
    vectorizer = index._vectorizer
    matrix = index._matrix
    return (
        vectorizer._fitted,
        list(vectorizer.vocabulary.items()),
        vectorizer.idf.dtype, vectorizer.idf.shape, vectorizer.idf.tobytes(),
        None if matrix is None
        else (matrix.dtype, matrix.shape, matrix.tobytes()),
    )
