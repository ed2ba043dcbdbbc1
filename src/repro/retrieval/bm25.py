"""Okapi BM25 index — the sparse-retrieval substrate.

Several baselines (Standard RAG, IRCoT, MetaRAG) retrieve with BM25 in the
original papers; implementing it here keeps the comparison honest.

Search scores against per-``(term, doc)`` impact tables precomputed at
index time, accumulates term-at-a-time in query token order, prunes
docs that provably cannot reach the top-``k`` via per-suffix
max-impact bounds (WAND-style), and selects the top-``k`` with a heap
instead of a full sort.

Scores are bit-identical to the textbook per-candidate loop (kept as
the test oracle in ``tests/hotpath_oracle.py``): an impact is the same
float expression ``idf * tf * (k1 + 1) / denom`` that loop evaluates,
and each document's running sum adds impacts in the same query-token
order, so every intermediate float matches.  The pruning bound is itself
a float sum in that same order, and IEEE-754 addition is monotone under
correct rounding, so a pruned document's true score is always ``<`` the
strict threshold.

Indexing is a fold: new documents append only their integer statistics,
then idf and impacts are recomputed for the whole corpus, since both
depend on N and the mean document length.  The result equals the
one-shot build, which ``tests/retrieval/index_oracle.py`` keeps as the
test oracle.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from typing import Generic, Mapping, Sequence, TypeVar

from repro.retrieval.tokenize import term_counts, tokenize
from repro.retrieval.vector_index import SearchHit

T = TypeVar("T")


class BM25Index(Generic[T]):
    """Classic Okapi BM25 with the usual ``k1``/``b`` parameters.

    The index grows by folding documents in (:meth:`fold`); a one-shot
    :meth:`build` is the fold of every document onto an empty index.
    """

    def __init__(self, k1: float = 1.5, b: float = 0.75) -> None:
        if k1 < 0:
            raise ValueError("k1 must be non-negative")
        if not 0.0 <= b <= 1.0:
            raise ValueError("b must lie in [0, 1]")
        self.k1 = k1
        self.b = b
        self._clear()

    def _clear(self) -> None:
        self._items: list[T] = []
        #: the term-count table, one row per document in document order;
        #: rows past ``len(self._doc_len)`` are not folded in yet.
        self._doc_tokens: Sequence[Mapping[str, int]] = []
        self._doc_len: list[int] = []
        #: running sum of ``_doc_len``
        self._total_len = 0
        self._avg_len = 0.0
        self._postings: dict[str, list[int]] = defaultdict(list)
        self._idf: dict[str, float] = {}
        #: term -> {doc_id: impact}, doc ids ascending (insertion order).
        self._impacts: dict[str, dict[int, float]] = {}
        self._max_impact: dict[str, float] = {}

    def build(self, items: list[T], texts: list[str]) -> "BM25Index[T]":
        """Index ``items`` anew; ``texts[i]`` is the text of ``items[i]``."""
        if len(items) != len(texts):
            raise ValueError("items and texts must have equal length")
        self._clear()
        return self.fold(items, term_counts(texts))

    def fold(
        self, items: list[T], counts: Sequence[Mapping[str, int]]
    ) -> "BM25Index[T]":
        """Bring the index up to ``items``, whose term counts are ``counts``.

        ``counts`` is the whole term-count table, the one this index last
        folded with more rows appended (the index keeps it); rows already
        folded in are not read again.  The new rows append their integer
        statistics: postings, document lengths and the running length
        total.  Every idf and impact depends on N and the mean length, so
        those are recomputed over all postings, with the one-shot build's
        float expressions, so every float equals that build's.
        """
        if len(items) != len(counts):
            raise ValueError("items and counts must have equal length")
        postings = self._postings
        doc_len = self._doc_len
        for doc_id in range(len(doc_len), len(counts)):
            row = counts[doc_id]
            length = sum(row.values())
            doc_len.append(length)
            self._total_len += length
            for term in row:
                postings[term].append(doc_id)
        self._items = list(items)
        self._doc_tokens = counts
        n = len(doc_len)
        self._avg_len = (self._total_len / n) if n else 0.0
        self._idf = {
            term: math.log(1 + (n - len(docs) + 0.5) / (len(docs) + 0.5))
            for term, docs in postings.items()
        }
        self._rebuild_impacts()
        return self

    def _rebuild_impacts(self) -> None:
        """Recompute the per-``(term, doc)`` impact tables.

        A pure function of the term-count table, the integer statistics,
        ``_idf`` and ``_avg_len``.  Each impact is the float the textbook
        per-candidate term loop contributes, ``idf * tf * (k1 + 1) /
        (tf + k1 * (1 - b + b * length / avg))``; the length term is
        evaluated once per document, which rounds exactly the same.
        """
        k1 = self.k1
        b = self.b
        avg = self._avg_len or 1.0
        k1_plus_1 = k1 + 1
        length_norm = [k1 * (1 - b + b * length / avg) for length in self._doc_len]
        doc_tokens = self._doc_tokens
        impacts: dict[str, dict[int, float]] = {}
        max_impact: dict[str, float] = {}
        for term, docs in self._postings.items():
            idf = self._idf.get(term, 0.0)
            per_doc: dict[int, float] = {}
            for doc_id in docs:
                tf = doc_tokens[doc_id][term]
                per_doc[doc_id] = idf * tf * k1_plus_1 / (tf + length_norm[doc_id])
            impacts[term] = per_doc
            max_impact[term] = max(per_doc.values()) if per_doc else 0.0
        self._impacts = impacts
        self._max_impact = max_impact

    def __len__(self) -> int:
        return len(self._items)

    def score(self, query: str, doc_id: int) -> float:
        """BM25 score of one indexed document against ``query``.

        Sums the precomputed impacts of the query's tokens in query
        order (repeated tokens count once per occurrence).
        """
        score = 0.0
        for term in tokenize(query):
            impact = self._impacts.get(term)
            if impact is None:
                continue
            imp = impact.get(doc_id)
            if imp is not None:
                score += imp
        return score

    def search(self, query: str, k: int = 5) -> list[SearchHit[T]]:
        """Top-``k`` items by BM25 score, ties broken by insertion order.

        Accumulates each document's score term-at-a-time in query token
        order, skips *new* documents once no unseen document's best-case
        score — the forward float sum of the remaining terms' max
        impacts — can strictly beat the current kth-best partial score,
        and takes the top-``k`` with a heap.
        """
        tokens = tokenize(query)
        if k <= 0 or not tokens or not self._items:
            return []
        # bounds[i]: best-case score of a doc first reached at token i,
        # summed forward in the same order its real score would be, so
        # monotone IEEE rounding guarantees true-score <= bound.
        n_tok = len(tokens)
        max_imp = [self._max_impact.get(t, 0.0) for t in tokens]
        bounds = [0.0] * n_tok
        for i in range(n_tok):
            acc = 0.0
            for j in range(i, n_tok):
                acc += max_imp[j]
            bounds[i] = acc
        scores: dict[int, float] = {}
        get_score = scores.get
        for i, term in enumerate(tokens):
            impact = self._impacts.get(term)
            if not impact:
                continue
            allow_new = True
            if len(scores) >= k and i > 0:
                # kth-largest partial score; any doc not yet seen can
                # reach at most bounds[i], and at least k docs will
                # finish >= threshold, so strict < means provably out.
                threshold = heapq.nlargest(k, scores.values())[-1]
                if bounds[i] < threshold:
                    allow_new = False
            if allow_new:
                for doc_id, imp in impact.items():
                    scores[doc_id] = get_score(doc_id, 0.0) + imp
            else:
                for doc_id, imp in impact.items():
                    if doc_id in scores:
                        scores[doc_id] += imp
        top = heapq.nsmallest(
            k, scores.items(), key=lambda pair: (-pair[1], pair[0])
        )
        return [SearchHit(self._items[d], s) for d, s in top]
