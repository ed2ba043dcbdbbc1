"""Okapi BM25 index — the sparse-retrieval substrate.

Several baselines (Standard RAG, IRCoT, MetaRAG) retrieve with BM25 in the
original papers; implementing it here keeps the comparison honest.

The index keeps one impact per posting of its :class:`TermTable`, the
float the textbook per-candidate loop (kept as the test oracle in
``tests/hotpath_oracle.py``) adds for that ``(term, doc)``:
``idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * length / avg))``,
evaluated elementwise in numpy with the same operations in the same
order.  A search allocates one score array and adds each query token's
postings into it term-at-a-time, in query-token order, repeats included,
so every document's running sum adds the same floats in the same order
as the oracle: scores are bit-identical.  The top-``k`` is taken over
the documents a query term touched, by ``(-score, doc id)``.

Indexing is a fold: the table appends the new documents' entries, then
idf and impacts are recomputed, vectorized, for the whole corpus, since
both depend on N and the mean document length.  The result equals the
textbook build, which ``tests/retrieval/index_oracle.py`` keeps as the
test oracle.
"""

from __future__ import annotations

import math
from typing import Generic, Mapping, Sequence, TypeVar

import numpy as np

from repro.retrieval.term_table import TermTable
from repro.retrieval.tokenize import term_counts, tokenize
from repro.retrieval.vector_index import SearchHit

T = TypeVar("T")


class BM25Index(Generic[T]):
    """Classic Okapi BM25 with the usual ``k1``/``b`` parameters.

    The index grows by folding a growing :class:`TermTable` in
    (:meth:`fold`); a one-shot :meth:`build` folds every document onto a
    new table.
    """

    def __init__(self, k1: float = 1.5, b: float = 0.75) -> None:
        if k1 < 0:
            raise ValueError("k1 must be non-negative")
        if not 0.0 <= b <= 1.0:
            raise ValueError("b must lie in [0, 1]")
        self.k1 = k1
        self.b = b
        self._items: list[T] = []
        self._table = TermTable()
        #: the term-count table, one row per document in document order;
        #: rows past ``len(self._doc_len)`` are not folded in yet.
        self._doc_tokens: Sequence[Mapping[str, int]] = []
        self._doc_len: list[int] = []
        self._avg_len = 0.0
        #: term -> idf, terms in first-seen order
        self._idf: dict[str, float] = {}
        #: one impact per posting, aligned with ``self._table.docs``
        self._weights = np.empty(0, dtype=np.float64)

    def build(self, items: list[T], texts: list[str]) -> "BM25Index[T]":
        """Index ``items`` anew; ``texts[i]`` is the text of ``items[i]``."""
        if len(items) != len(texts):
            raise ValueError("items and texts must have equal length")
        return self.fold(items, TermTable().fold(term_counts(texts)))

    def fold(self, items: list[T], table: TermTable) -> "BM25Index[T]":
        """Index ``items``, whose term counts ``table`` holds, one row each.

        Document lengths, idf and impacts all depend on N or the mean
        length, so they are recomputed from the table's entries, each
        float with the textbook build's expression.
        """
        if len(items) != table.n_docs:
            raise ValueError("items and the table's rows must have equal length")
        k1 = self.k1
        b = self.b
        running = np.concatenate(([0], np.cumsum(table.tfs)))
        lengths = running[table.row_starts[1:]] - running[table.row_starts[:-1]]
        n = len(lengths)
        self._avg_len = (int(lengths.sum()) / n) if n else 0.0
        avg = self._avg_len or 1.0
        doc_freq = np.diff(table.offsets)
        idf = [math.log(1 + (n - df + 0.5) / (df + 0.5))
               for df in doc_freq.tolist()]
        tfs = table.tfs[table.order]
        length_norm = k1 * (1 - b + b * lengths / avg)
        self._weights = (
            np.repeat(np.array(idf, dtype=np.float64), doc_freq) * tfs
            * (k1 + 1) / (tfs + length_norm[table.docs])
        )
        self._items = list(items)
        self._table = table
        self._doc_tokens = table.counts
        self._doc_len = lengths.tolist()
        self._idf = dict(zip(table.term_ids, idf))
        return self

    def __len__(self) -> int:
        return len(self._items)

    def score(self, query: str, doc_id: int) -> float:
        """BM25 score of one indexed document against ``query``.

        Sums the document's impacts for the query's tokens in query
        order (repeated tokens count once per occurrence).
        """
        table = self._table
        score = 0.0
        for term in tokenize(query):
            tid = table.term_ids.get(term)
            if tid is None:
                continue
            lo, hi = table.span(tid)
            at = lo + int(np.searchsorted(table.docs[lo:hi], doc_id))
            if at < hi and table.docs[at] == doc_id:
                score += float(self._weights[at])
        return score

    def search(self, query: str, k: int = 5) -> list[SearchHit[T]]:
        """Top-``k`` items by BM25 score, ties broken by insertion order.

        Adds each query token's impacts into a fresh score array, in
        query token order, and ranks the documents any token touched.
        """
        tokens = tokenize(query)
        if k <= 0 or not tokens or not self._items:
            return []
        table = self._table
        scores = np.zeros(len(self._items), dtype=np.float64)
        touched = np.zeros(len(self._items), dtype=bool)
        for term in tokens:
            tid = table.term_ids.get(term)
            if tid is None:
                continue
            lo, hi = table.span(tid)
            docs = table.docs[lo:hi]
            scores[docs] += self._weights[lo:hi]
            touched[docs] = True
        candidates = np.flatnonzero(touched)
        # candidates ascend, so a stable sort breaks ties by doc id
        top = candidates[np.argsort(-scores[candidates], kind="stable")[:k]]
        return [
            SearchHit(self._items[d], s)
            for d, s in zip(top.tolist(), scores[top].tolist())
        ]
