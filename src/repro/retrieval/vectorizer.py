"""TF-IDF vectorization over a chunk corpus (pure numpy, no sklearn).

This is the dense-retrieval stand-in: cosine similarity over L2-normalized
TF-IDF vectors.  It is deterministic and dependency-light while exhibiting
the property the experiments need — lexically related chunks score high,
unrelated chunks score near zero.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from repro.errors import StateError
from repro.retrieval.tokenize import term_counts, tokenize


class TfidfVectorizer:
    """Fit a vocabulary + IDF table on a corpus, then embed texts.

    The corpus side is a fold (:meth:`fold`): each document's term counts
    are read once, into cached ``(row, term, 1 + log tf)`` entries, and
    the corpus matrix is a numpy scatter of those entries, an IDF
    multiply and a row normalization.  :meth:`fit` and
    :meth:`fit_transform` fold every text onto an empty vectorizer;
    :meth:`transform` embeds queries.
    """

    def __init__(self, min_df: int = 1) -> None:
        if min_df < 1:
            raise ValueError("min_df must be >= 1")
        self.min_df = min_df
        self._clear()

    def _clear(self) -> None:
        self.vocabulary: dict[str, int] = {}
        self.idf: np.ndarray = np.empty(0)
        self._fitted = False
        #: term -> term id, in first-seen order (not the column order)
        self._term_ids: dict[str, int] = {}
        #: rows of the term-count table folded in so far
        self._n_docs = 0
        #: one entry per folded (row, term): its row, term id and
        #: ``1 + log tf`` weight, in row order
        self._rows = np.empty(0, dtype=np.intp)
        self._tids = np.empty(0, dtype=np.intp)
        self._weights = np.empty(0, dtype=np.float64)

    def fit(self, texts: list[str]) -> "TfidfVectorizer":
        """Learn vocabulary and IDF weights from ``texts`` anew."""
        self._clear()
        self._refit(term_counts(texts))
        return self

    def fold(self, counts: Sequence[Mapping[str, int]]) -> np.ndarray:
        """Refit on the term-count table ``counts`` and embed its rows.

        ``counts`` has one row per corpus document: the table this
        vectorizer last folded, with more rows appended.  Only the new
        rows are read, into cached entries.  Vocabulary, IDF and every
        matrix row depend on the whole corpus, so they are recomputed
        from the cached entries, each matrix entry with the expressions
        of :meth:`transform`, and the matrix equals the one-shot
        ``fit(texts).transform(texts)`` bit for bit.
        """
        self._refit(counts)
        ids = self._term_ids
        columns = np.full(len(ids), -1, dtype=np.intp)
        columns[np.array([ids[t] for t in self.vocabulary], dtype=np.intp)] = (
            np.arange(len(self.vocabulary), dtype=np.intp)
        )
        cols = columns[self._tids]
        kept = cols >= 0
        matrix = np.zeros((self._n_docs, len(self.vocabulary)), dtype=np.float64)
        matrix[self._rows[kept], cols[kept]] = self._weights[kept]
        return self._normalized(matrix)

    def _refit(self, counts: Sequence[Mapping[str, int]]) -> None:
        """Append the cached entries of ``counts``' new rows, then refit
        vocabulary and IDF over every cached entry."""
        new = counts[self._n_docs:]
        ids = self._term_ids
        for term in dict.fromkeys(chain.from_iterable(new)):
            if term not in ids:
                ids[term] = len(ids)
        tids = np.fromiter(
            map(ids.__getitem__, chain.from_iterable(new)), dtype=np.intp
        )
        tfs = np.fromiter(
            chain.from_iterable(row.values() for row in new), dtype=np.intp
        )
        rows = np.repeat(
            np.arange(self._n_docs, len(counts), dtype=np.intp),
            np.array([len(row) for row in new], dtype=np.intp),
        )
        # each tf's weight is the float transform() computes for it
        top = int(tfs.max()) if len(tfs) else 0
        log_tf = np.array(
            [0.0] + [1.0 + math.log(tf) for tf in range(1, top + 1)],
            dtype=np.float64,
        )
        self._rows = np.concatenate((self._rows, rows))
        self._tids = np.concatenate((self._tids, tids))
        self._weights = np.concatenate((self._weights, log_tf[tfs]))
        self._n_docs = len(counts)

        doc_freq = np.bincount(self._tids, minlength=len(ids)).tolist()
        terms = sorted(
            t for t, df in zip(ids, doc_freq) if df >= self.min_df
        )
        self.vocabulary = {term: i for i, term in enumerate(terms)}
        n_docs = max(len(counts), 1)
        self.idf = np.array(
            [math.log((1 + n_docs) / (1 + doc_freq[ids[t]])) + 1.0
             for t in terms],
            dtype=np.float64,
        )
        self._fitted = True

    def transform(self, texts: list[str]) -> np.ndarray:
        """Embed ``texts`` as rows of an L2-normalized TF-IDF matrix.

        Raises:
            StateError: if called before :meth:`fit`.
        """
        if not self._fitted:
            raise StateError("vectorizer must be fit before transform")
        matrix = np.zeros((len(texts), len(self.vocabulary)), dtype=np.float64)
        for row, text in enumerate(texts):
            counts = Counter(tokenize(text))
            for term, count in counts.items():
                col = self.vocabulary.get(term)
                if col is not None:
                    matrix[row, col] = 1.0 + math.log(count)
        return self._normalized(matrix)

    def _normalized(self, matrix: np.ndarray) -> np.ndarray:
        """IDF-weight the raw ``1 + log tf`` rows of ``matrix`` and scale
        each row to unit L2 norm, in place; returns ``matrix``."""
        matrix *= self.idf
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        matrix /= norms
        return matrix

    def transform_one(self, text: str) -> np.ndarray:
        """Embed a single text as a 1-D L2-normalized TF-IDF vector.

        Deliberately routed through :meth:`transform` so the single-query
        hot path produces bit-identical floats to the batch path (numpy's
        1-D ``norm`` uses a different reduction than the ``axis=1`` form,
        so a hand-rolled single-vector variant would not be safe).

        Raises:
            StateError: if called before :meth:`fit`.
        """
        return self.transform([text])[0]

    def fit_transform(self, texts: list[str]) -> np.ndarray:
        """Fit on ``texts`` anew and embed them."""
        self._clear()
        return self.fold(term_counts(texts))
