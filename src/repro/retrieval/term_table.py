"""The term-count table in array form, shared by both retrieval indexes.

The term-count table has one row of term counts per document (see
:func:`repro.retrieval.tokenize.term_counts`).  A :class:`TermTable`
reads each new row once, into one entry per ``(row, term)``: its row,
term id and term frequency.  The entries are also grouped by term, which
makes them the postings of an inverted index: the documents holding a
term, ascending.  BM25 and the TF-IDF index each keep one float weight
per posting, aligned with :attr:`TermTable.docs`, and score a query
term-at-a-time over those slices.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, Sequence

import numpy as np


class TermTable:
    """Entries of the term-count table, in row order and grouped by term.

    Grows by folding (:meth:`fold`) into a new table: rows already read
    are not read again, and new entries are appended after the old ones.
    A table is not changed once folded, so indexes and worker views can
    share it.
    """

    def __init__(self) -> None:
        #: the term-count table last folded; rows past :attr:`n_docs`
        #: are not read yet
        self.counts: Sequence[Mapping[str, int]] = []
        #: term -> term id, in first-seen order
        self.term_ids: dict[str, int] = {}
        #: one entry per folded ``(row, term)``, in row order (a row's
        #: terms in their first-seen order): its row, term id and tf
        self.rows = np.empty(0, dtype=np.intp)
        self.tids = np.empty(0, dtype=np.intp)
        self.tfs = np.empty(0, dtype=np.intp)
        #: row ``r``'s entries are ``[row_starts[r], row_starts[r + 1])``
        self.row_starts = np.zeros(1, dtype=np.intp)
        #: entry indexes grouped by term id, rows ascending within a term
        self.order = np.empty(0, dtype=np.intp)
        #: ``docs[offsets[t]:offsets[t + 1]]`` are the rows holding term
        #: id ``t``, ascending: its postings
        self.docs = np.empty(0, dtype=np.intp)
        self.offsets = np.zeros(1, dtype=np.intp)

    @property
    def n_docs(self) -> int:
        """Rows of the term-count table folded in."""
        return len(self.row_starts) - 1

    def fold(self, counts: Sequence[Mapping[str, int]]) -> "TermTable":
        """A table of ``counts``: this one with the rows past
        :attr:`n_docs` read and appended, the postings regrouped over
        every entry.  This table is left as it is.

        ``counts`` is the table this one last folded, with more rows
        appended.
        """
        table = TermTable()
        new = counts[self.n_docs:]
        ids = table.term_ids = dict(self.term_ids)
        for term in dict.fromkeys(chain.from_iterable(new)):
            if term not in ids:
                ids[term] = len(ids)
        lengths = np.array([len(row) for row in new], dtype=np.intp)
        table.rows = np.concatenate((
            self.rows,
            np.repeat(np.arange(self.n_docs, len(counts), dtype=np.intp),
                      lengths),
        ))
        table.tids = np.concatenate((self.tids, np.fromiter(
            map(ids.__getitem__, chain.from_iterable(new)), dtype=np.intp
        )))
        table.tfs = np.concatenate((self.tfs, np.fromiter(
            chain.from_iterable(row.values() for row in new), dtype=np.intp
        )))
        table.row_starts = np.concatenate(
            (self.row_starts, self.row_starts[-1] + np.cumsum(lengths))
        )
        table.counts = counts
        # entries are in row order, so a stable sort by term id keeps
        # each term's rows ascending
        table.order = np.argsort(table.tids, kind="stable")
        table.docs = table.rows[table.order]
        table.offsets = np.concatenate((
            np.zeros(1, dtype=np.intp),
            np.cumsum(np.bincount(table.tids, minlength=len(ids))),
        ))
        return table

    def span(self, tid: int) -> tuple[int, int]:
        """Bounds of term id ``tid``'s postings in :attr:`docs`."""
        return int(self.offsets[tid]), int(self.offsets[tid + 1])
