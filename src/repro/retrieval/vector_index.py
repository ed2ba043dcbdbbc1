"""Exact cosine top-k index over TF-IDF embeddings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, TypeVar

import numpy as np

from repro.retrieval.term_table import TermTable
from repro.retrieval.tokenize import term_counts
from repro.retrieval.vectorizer import TfidfVectorizer

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class SearchHit(Generic[T]):
    """One retrieval hit: the stored item plus its similarity score."""

    item: T
    score: float


class VectorIndex(Generic[T]):
    """Dense retrieval index: items embedded by a shared TF-IDF vectorizer.

    Stores one L2-normalized TF-IDF weight per posting of a
    :class:`TermTable` and scores term-at-a-time: a query adds each of
    its terms' postings, weighted by the query's own weight for the
    term, into one score array, in ascending vocabulary-column order.
    Exact and deterministic; a query touches only the postings of its
    own terms.
    """

    def __init__(self) -> None:
        self._vectorizer = TfidfVectorizer()
        self._items: list[T] = []
        self._table = TermTable()
        #: one weight per posting, aligned with ``self._table.docs``
        self._weights = np.empty(0, dtype=np.float64)
        #: vocabulary column -> term id in the table
        self._col_tids: list[int] = []

    def build(self, items: list[T], texts: list[str]) -> "VectorIndex[T]":
        """Index ``items``; ``texts[i]`` is the embeddable text of ``items[i]``."""
        if len(items) != len(texts):
            raise ValueError("items and texts must have equal length")
        return self.fold(items, TermTable().fold(term_counts(texts)))

    def fold(self, items: list[T], table: TermTable) -> "VectorIndex[T]":
        """Index ``items``, whose term counts ``table`` holds, one row each
        (see :meth:`TfidfVectorizer.fold`)."""
        if len(items) != table.n_docs:
            raise ValueError("items and the table's rows must have equal length")
        self._items = list(items)
        self._table = table
        self._weights = self._vectorizer.fold(table)
        self._col_tids = [table.term_ids[t] for t in self._vectorizer.vocabulary]
        return self

    def __len__(self) -> int:
        return len(self._items)

    def search(self, query: str, k: int = 5) -> list[SearchHit[T]]:
        """Top-``k`` items by cosine similarity to ``query``.

        Raises:
            StateError: if the index was built without fitting the
                vectorizer.
        """
        if not self._items or k <= 0:
            return []
        qvec = self._vectorizer.transform_one(query)
        cols = np.flatnonzero(qvec)
        if not len(cols):
            # Empty or out-of-vocabulary query (e.g. stopwords only):
            # every cosine is 0, so "top-k" would be arbitrary tie-break
            # order.  No signal means no hits.
            return []
        table = self._table
        scores = np.zeros(len(self._items), dtype=np.float64)
        for col in cols.tolist():
            lo, hi = table.span(self._col_tids[col])
            scores[table.docs[lo:hi]] += self._weights[lo:hi] * qvec[col]
        k = min(k, len(self._items))
        top = np.argpartition(-scores, k - 1)[:k]
        top = top[np.argsort(-scores[top])]
        return [SearchHit(self._items[i], float(scores[i])) for i in top]
