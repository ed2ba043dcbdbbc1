"""Multi-source retriever facade.

Wraps a chunk corpus drawn from many sources behind a single ``retrieve``
call.  Supports dense (TF-IDF cosine), sparse (BM25) and hybrid scoring;
all QA baselines and MultiRAG's multi-document extraction step share this
component so retrieval quality is held constant across methods.
"""

from __future__ import annotations

import copy
from collections import defaultdict
from typing import Any, Mapping

from repro.obs.context import NOOP, Observability
from repro.retrieval.bm25 import BM25Index
from repro.retrieval.chunking import Chunk
from repro.retrieval.term_table import TermTable
from repro.retrieval.tokenize import term_counts
from repro.retrieval.vector_index import SearchHit, VectorIndex


class MultiSourceRetriever:
    """Retrieve chunks across all registered sources."""

    def __init__(
        self,
        mode: str = "hybrid",
        rrf_k: int = 60,
        obs: Observability | None = None,
    ) -> None:
        if mode not in {"dense", "sparse", "hybrid", "rrf"}:
            raise ValueError(f"unknown retrieval mode: {mode!r}")
        self.mode = mode
        #: rank constant of reciprocal rank fusion (``rrf`` mode).
        self.rrf_k = rrf_k
        self.obs = obs if obs is not None else NOOP
        self._chunks: list[Chunk] = []
        self._dense: VectorIndex[Chunk] = VectorIndex()
        self._sparse: BM25Index[Chunk] = BM25Index()
        #: the term-count table: one row of term counts per chunk, in
        #: chunk order; chunks past its end are not counted yet.
        self._counts: list[Mapping[str, int]] = []
        #: the table's entries, which both indexes read; chunks past
        #: its rows are not folded in yet.
        self._table: TermTable = TermTable()

    def add_chunks(self, chunks: list[Chunk]) -> None:
        """Stage chunks for indexing; call :meth:`build` afterwards."""
        self._chunks.extend(chunks)

    def with_obs(self, obs: Observability) -> "MultiSourceRetriever":
        """A retrieval view sharing the built indexes, bound to ``obs``.

        Exec worker tasks retrieve concurrently; the indexes are
        read-only once built, but telemetry writes must land in the
        worker's own bundle rather than racing the parent's, so each
        worker queries through a view from this method.
        """
        view = copy.copy(self)
        view.obs = obs
        return view

    def export_state(self) -> dict[str, object]:
        """Snapshot form: mode, ``rrf_k`` and the term-count table.

        The table has one row per chunk, in chunk order, each row's terms
        in first-seen order; chunks not folded in yet are counted here.
        Chunks themselves are serialized by the snapshot store.  Nothing
        else is: :meth:`restore_state` and one :meth:`build` make every
        index again from the table.
        """
        counts = self._counts
        rows = counts + term_counts(c.text for c in self._chunks[len(counts):])
        return {
            "mode": self.mode,
            "rrf_k": self.rrf_k,
            "term_counts": [dict(row) for row in rows],
        }

    def restore_state(
        self, chunks: list[Chunk], state: Mapping[str, Any]
    ) -> "MultiSourceRetriever":
        """Inverse of :meth:`export_state`, up to the indexes: the chunks
        and their term counts are staged on empty indexes, and the next
        :meth:`build` folds them in without tokenizing a chunk.

        The rows of ``state["term_counts"]`` become the table as they
        are, so each must be a ``dict`` of term counts (the snapshot
        store checks that before calling this).
        """
        self.mode = str(state["mode"])
        self.rrf_k = int(state["rrf_k"])
        self._chunks = list(chunks)
        self._counts = list(state["term_counts"])
        self._table = TermTable()
        self._dense = VectorIndex[Chunk]()
        self._sparse = BM25Index[Chunk]()
        return self

    @property
    def _built(self) -> bool:
        """Whether every chunk is folded into the indexes."""
        return self._table.n_docs == len(self._chunks)

    def build(self) -> "MultiSourceRetriever":
        """Fold the chunks staged since the last build into both indexes.

        Each new chunk is tokenized and counted once, into the term-count
        table, and its row is read once, into the table's entries, which
        both indexes read; earlier chunks are not read again.  The
        indexes then recompute, vectorized, what depends on the whole
        corpus (BM25 idf and one impact per posting; the dense
        vocabulary, IDF and one normalized weight per posting), so the
        result equals a one-shot build over every chunk.
        """
        counts = self._counts
        counts.extend(term_counts(c.text for c in self._chunks[len(counts):]))
        table = self._table.fold(counts)
        self._sparse.fold(self._chunks, table)
        self._dense.fold(self._chunks, table)
        self._table = table  # repro-lint: ignore[CONC001] — the fold runs only from ingest, add_source and the snapshot loader, before any worker view exists
        return self

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def chunks(self) -> list[Chunk]:
        return list(self._chunks)

    def sources(self) -> list[str]:
        return sorted({c.source_id for c in self._chunks})

    def retrieve(self, query: str, k: int = 5) -> list[SearchHit[Chunk]]:
        """Top-``k`` chunks for ``query`` under the configured mode.

        ``hybrid`` sums max-normalized dense and sparse scores over the
        union of both candidate lists; ``rrf`` combines by reciprocal rank
        fusion (``Σ 1 / (rrf_k + rank)``), which needs no score
        calibration between the two indexes.
        """
        if not self._built:
            self.build()
        with self.obs.tracer.span("retrieve", mode=self.mode, k=k) as span:
            hits = self._retrieve(query, k)
            if span.enabled:
                span.set(num_hits=len(hits))
        metrics = self.obs.metrics
        metrics.counter("retrieval.queries").inc()
        metrics.histogram("retrieval.hits").observe(len(hits))
        return hits

    def _retrieve(self, query: str, k: int) -> list[SearchHit[Chunk]]:
        if self.mode == "dense":
            return self._dense.search(query, k)
        if self.mode == "sparse":
            return self._sparse.search(query, k)

        pool = max(k * 3, 10)
        dense_hits = self._dense.search(query, pool)
        sparse_hits = self._sparse.search(query, pool)
        combined: dict[str, float] = defaultdict(float)
        by_id: dict[str, Chunk] = {}
        if self.mode == "rrf":
            for hits in (dense_hits, sparse_hits):
                for rank, hit in enumerate(hits):
                    by_id[hit.item.chunk_id] = hit.item
                    combined[hit.item.chunk_id] += 1.0 / (self.rrf_k + rank + 1)
        else:
            for hits in (dense_hits, sparse_hits):
                if not hits:
                    continue
                top = hits[0].score or 1.0
                for hit in hits:
                    by_id[hit.item.chunk_id] = hit.item
                    combined[hit.item.chunk_id] += hit.score / top if top else 0.0
        ranked = sorted(combined.items(), key=lambda kv: (-kv[1], kv[0]))
        return [SearchHit(by_id[cid], score) for cid, score in ranked[:k]]

    def retrieve_per_source(self, query: str, k_per_source: int = 2) -> list[SearchHit[Chunk]]:
        """Top chunks for ``query`` with per-source quotas.

        Multi-source fusion needs evidence from *every* source that has an
        opinion, not just the globally best-matching chunks; this method
        guarantees each source contributes up to ``k_per_source`` hits.
        """
        if not self._built:
            self.build()
        hits = self.retrieve(query, k=max(len(self._chunks) // 2, 20))
        taken: dict[str, int] = defaultdict(int)
        selected: list[SearchHit[Chunk]] = []
        for hit in hits:
            src = hit.item.source_id
            if taken[src] < k_per_source:
                taken[src] += 1
                selected.append(hit)
        return selected
