"""Brute-force cosine top-k index over TF-IDF embeddings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Mapping, Sequence, TypeVar

import numpy as np

from repro.retrieval.vectorizer import TfidfVectorizer

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class SearchHit(Generic[T]):
    """One retrieval hit: the stored item plus its similarity score."""

    item: T
    score: float


class VectorIndex(Generic[T]):
    """Dense retrieval index: items embedded by a shared TF-IDF vectorizer.

    Brute-force matrix-vector scoring — exact, deterministic, and fast
    enough for the corpus sizes of this reproduction (tens of thousands of
    chunks).
    """

    def __init__(self) -> None:
        self._vectorizer = TfidfVectorizer()
        self._items: list[T] = []
        self._matrix: np.ndarray | None = None

    def build(self, items: list[T], texts: list[str]) -> "VectorIndex[T]":
        """Index ``items``; ``texts[i]`` is the embeddable text of ``items[i]``."""
        if len(items) != len(texts):
            raise ValueError("items and texts must have equal length")
        self._items = list(items)
        self._matrix = self._vectorizer.fit_transform(texts) if texts else None
        return self

    def fold(
        self, items: list[T], counts: Sequence[Mapping[str, int]]
    ) -> "VectorIndex[T]":
        """Bring the index up to ``items``, whose term counts are ``counts``.

        ``counts`` is the whole term-count table (see
        :meth:`TfidfVectorizer.fold`); an empty corpus has no matrix.
        """
        if len(items) != len(counts):
            raise ValueError("items and counts must have equal length")
        self._items = list(items)
        self._matrix = self._vectorizer.fold(counts) if counts else None
        return self

    def __len__(self) -> int:
        return len(self._items)

    def search(self, query: str, k: int = 5) -> list[SearchHit[T]]:
        """Top-``k`` items by cosine similarity to ``query``.

        Raises:
            StateError: if the index was built without fitting the
                vectorizer.
        """
        if self._matrix is None or not self._items or k <= 0:
            return []
        qvec = self._vectorizer.transform_one(query)
        if not np.any(qvec):
            # Empty or out-of-vocabulary query (e.g. stopwords only):
            # every cosine is 0, so "top-k" would be arbitrary tie-break
            # order.  No signal means no hits.
            return []
        scores = self._matrix @ qvec
        k = min(k, len(self._items))
        top = np.argpartition(-scores, k - 1)[:k]
        top = top[np.argsort(-scores[top])]
        return [SearchHit(self._items[i], float(scores[i])) for i in top]
