"""Shared fixtures for the exec-engine suite.

Every pipeline here is built over the same five-format movie corpus the
core tests use, so parallel-vs-sequential comparisons exercise the full
ingest + MCC + generation stack rather than a toy stub.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import MultiRAG, MultiRAGConfig
from repro.exec import Query
from tests.conftest import make_sources

#: evaluation batch over the shared corpus: agreed keys, the seeded
#: conflict (Inception's release year) and a miss, so F1 is non-trivial;
#: the two keyword questions take the open-intent path and its shared
#: subject index.
EVAL_QUERIES = (
    Query.key("Inception", "directed_by", qid="q-dir",
              answers=["Christopher Nolan"]),
    Query.key("Inception", "release_year", qid="q-year", answers=["2010"]),
    Query.key("Heat", "directed_by", qid="q-heat", answers=["Michael Mann"]),
    Query.key("Arrival", "directed_by", qid="q-arr",
              answers=["Denis Villeneuve"]),
    Query.key("Arrival", "genre", qid="q-genre", answers=["science fiction"]),
    Query.key("Heat", "release_year", qid="q-hyear", answers=["1995"]),
    Query.text("Inception release year info", qid="q-open-year",
               answers=["2010"]),
    Query.text("Heat directed by info", qid="q-open-heat",
               answers=["Michael Mann"]),
)


def build_pipeline(seed: int = 0, *, update_history: bool = False) -> MultiRAG:
    """A freshly ingested pipeline (read-only history by default)."""
    config = dataclasses.replace(
        MultiRAGConfig(seed=seed, extraction_noise=0.0),
        update_history=update_history,
    )
    rag = MultiRAG(config)
    rag.ingest(make_sources())
    return rag


@pytest.fixture()
def readonly_rag() -> MultiRAG:
    return build_pipeline(seed=0, update_history=False)
