"""TF-IDF vectorization over a chunk corpus (pure numpy, no sklearn).

This is the dense-retrieval stand-in: cosine similarity over L2-normalized
TF-IDF vectors.  It is deterministic and dependency-light while exhibiting
the property the experiments need — lexically related chunks score high,
unrelated chunks score near zero.

A text's weight for a vocabulary term is ``(1 + log tf) * idf``, divided
by the row norm: the square root of the exactly rounded sum
(``math.fsum``) of the row's squared weights.  The exact sum makes a
norm depend only on the multiset of a row's weights, not on the order it
is summed in, so texts with equal weight multisets score exactly equal.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from repro.errors import StateError
from repro.retrieval.term_table import TermTable
from repro.retrieval.tokenize import term_counts, tokenize


class TfidfVectorizer:
    """Fit a vocabulary + IDF table on a corpus, then embed texts.

    The corpus side is a fold (:meth:`fold`): vocabulary, IDF and one
    normalized weight per posting of a :class:`TermTable`, computed
    vectorized from the table's entries.  :meth:`fit` and
    :meth:`fit_transform` fit on a table of every text; :meth:`transform`
    embeds texts as dense rows, queries included.
    """

    def __init__(self, min_df: int = 1) -> None:
        if min_df < 1:
            raise ValueError("min_df must be >= 1")
        self.min_df = min_df
        self.vocabulary: dict[str, int] = {}
        self.idf: np.ndarray = np.empty(0)
        self._fitted = False

    def fit(self, texts: list[str]) -> "TfidfVectorizer":
        """Learn vocabulary and IDF weights from ``texts`` anew."""
        self._refit(TermTable().fold(term_counts(texts)))
        return self

    def fold(self, table: TermTable) -> np.ndarray:
        """Refit on ``table`` and weight its postings.

        Returns one weight per posting, aligned with ``table.docs``: the
        float :meth:`transform` puts in that document's row and the
        posting's column (0 for a term outside the vocabulary).
        """
        idf = self._refit(table)
        tfs = table.tfs
        top = int(tfs.max()) if len(tfs) else 0
        log_tf = np.array(
            [0.0] + [1.0 + math.log(tf) for tf in range(1, top + 1)],
            dtype=np.float64,
        )
        raw = log_tf[tfs] * idf[table.tids]
        squares = (raw * raw).tolist()
        starts = table.row_starts.tolist()
        norms = np.sqrt(np.array(
            [math.fsum(squares[lo:hi]) for lo, hi in zip(starts, starts[1:])],
            dtype=np.float64,
        ))
        # a row with no vocabulary term has no weight to scale
        norms[norms == 0.0] = 1.0
        return (raw / norms[table.rows])[table.order]

    def _refit(self, table: TermTable) -> np.ndarray:
        """Fit vocabulary and IDF on ``table``; returns the IDF by term
        id (0 for a term outside the vocabulary)."""
        ids = table.term_ids
        doc_freq = np.diff(table.offsets).tolist()
        terms = sorted(
            t for t, df in zip(ids, doc_freq) if df >= self.min_df
        )
        self.vocabulary = {term: i for i, term in enumerate(terms)}
        n_docs = max(table.n_docs, 1)
        self.idf = np.array(
            [math.log((1 + n_docs) / (1 + doc_freq[ids[t]])) + 1.0
             for t in terms],
            dtype=np.float64,
        )
        self._fitted = True
        by_tid = np.zeros(len(ids), dtype=np.float64)
        by_tid[np.array([ids[t] for t in terms], dtype=np.intp)] = self.idf
        return by_tid

    def transform(self, texts: list[str]) -> np.ndarray:
        """Embed ``texts`` as rows of an L2-normalized TF-IDF matrix.

        Raises:
            StateError: if called before :meth:`fit`.
        """
        if not self._fitted:
            raise StateError("vectorizer must be fit before transform")
        matrix = np.zeros((len(texts), len(self.vocabulary)), dtype=np.float64)
        for row, text in enumerate(texts):
            cols: list[int] = []
            weights = []
            for term, count in Counter(tokenize(text)).items():
                col = self.vocabulary.get(term)
                if col is not None:
                    cols.append(col)
                    weights.append((1.0 + math.log(count)) * self.idf[col])
            if cols:
                norm = math.sqrt(math.fsum(w * w for w in weights))
                matrix[row, cols] = [w / norm for w in weights]
        return matrix

    def transform_one(self, text: str) -> np.ndarray:
        """Embed a single text as a 1-D L2-normalized TF-IDF vector.

        Raises:
            StateError: if called before :meth:`fit`.
        """
        return self.transform([text])[0]

    def fit_transform(self, texts: list[str]) -> np.ndarray:
        """Fit on ``texts`` anew and embed them."""
        return self.fit(texts).transform(texts)
