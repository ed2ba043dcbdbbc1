"""The retrieval fold equals the textbook build.

``MultiSourceRetriever.build`` folds only the chunks staged since the
last build into both indexes.  A random sequence of ``add_chunks`` and
``build`` calls, with ``export_state`` → ``restore_state`` round trips
(the snapshot path: only the term-count table survives) between them,
must leave exactly the state ``tests/retrieval/index_oracle.py`` builds
from the same chunk texts: BM25 statistics, idf and each term's
``(doc id, impact)`` postings, in order; dense vocabulary, IDF bytes and
each term's doc ids and weight bytes.  The hits and scores of
``retrieve()`` in every mode must equal those of a retriever that
folded every chunk in one build.  Floats are compared with ``==`` on
purpose.
"""

from __future__ import annotations

import importlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.retrieval.chunking import Chunk
from repro.retrieval.retriever import MultiSourceRetriever
from repro.retrieval.tokenize import STOPWORDS
from tests.retrieval import index_oracle as oracle
from tests.retrieval.index_oracle import bm25_state, dense_state

# the package re-exports the function under the module's name
tokenize_module = importlib.import_module("repro.retrieval.tokenize")

MODES = ("dense", "sparse", "hybrid", "rrf")

#: compound tokens, mixed case and non-ASCII words included
VOCAB = [
    "alpha", "beta", "Gamma", "delta", "ca-981", "14:30", "o'neil",
    "v1.2", "café", "Ünïcode", "лямбда", "東京", "naïve", "x", "zulu",
]
STOPWORD_LIST = sorted(STOPWORDS)[:6]

words = st.one_of(st.sampled_from(VOCAB), st.sampled_from(STOPWORD_LIST))
texts = st.one_of(
    st.lists(words, max_size=10).map(" ".join),
    st.just(""),
    # repeated tokens: tf > 1
    st.tuples(st.sampled_from(VOCAB), st.integers(2, 5))
    .map(lambda pair: " ".join([pair[0]] * pair[1])),
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.lists(texts, max_size=4)),
        st.just(("build",)),
        st.just(("roundtrip",)),
    ),
    max_size=8,
)
QUERIES = ["alpha", "alpha alpha beta", "café лямбда 東京", "zulu x",
           "the of", "", "aardvark", "delta ca-981 14:30"]


def _chunks(texts: list[str], start: int) -> list[Chunk]:
    return [
        Chunk(chunk_id=f"c{start + i:03d}", source_id=f"s{(start + i) % 3}",
              doc_id=f"d{start + i}", seq=0, text=text)
        for i, text in enumerate(texts)
    ]


def _roundtrip(retriever: MultiSourceRetriever) -> MultiSourceRetriever:
    """Export and restore through JSON, as the snapshot store does."""
    state = json.loads(json.dumps(retriever.export_state(), ensure_ascii=False))
    return MultiSourceRetriever().restore_state(retriever.chunks, state)


def _rows(retriever: MultiSourceRetriever) -> list:
    """The exported term-count table, each row's term order included."""
    return [list(row.items()) for row in retriever.export_state()["term_counts"]]


def _hits(retriever: MultiSourceRetriever, mode: str) -> list:
    retriever.mode = mode
    return [
        [(h.item.chunk_id, h.score) for h in retriever.retrieve(q, k)]
        for q in QUERIES for k in (1, 3, 50)
    ]


def _one_shot(chunks: list[Chunk]) -> MultiSourceRetriever:
    retriever = MultiSourceRetriever()
    retriever.add_chunks(chunks)
    return retriever.build()


def assert_matches_oracle(retriever: MultiSourceRetriever) -> None:
    texts = [c.text for c in retriever.chunks]
    assert bm25_state(retriever._sparse) == oracle.bm25_build(texts)
    assert dense_state(retriever._dense) == oracle.tfidf_build(texts)
    expected = _one_shot(retriever.chunks)
    assert _rows(retriever) == _rows(expected)
    mode = retriever.mode
    for each in MODES:
        assert _hits(retriever, each) == _hits(expected, each)
    retriever.mode = mode


@settings(max_examples=150, deadline=None)
@given(ops=ops)
# a new term that sorts before every existing one shifts every dense
# column; once on a live retriever, once across a round trip
@example(ops=[("add", ["zulu x"]), ("build",), ("add", ["aardvark zulu"]),
              ("build",)])
@example(ops=[("add", ["zulu", "zulu zulu x"]), ("build",), ("roundtrip",),
              ("add", ["aardvark"]), ("build",)])
# empty adds, empty and stopword-only texts, a one-chunk corpus
@example(ops=[("add", []), ("build",), ("add", [""]), ("build",),
              ("add", ["the of"]), ("build",)])
@example(ops=[("add", ["лямбда 東京 café"]), ("roundtrip",), ("build",)])
def test_fold_matches_one_shot_build(ops):
    retriever = MultiSourceRetriever()
    staged = 0
    for op in ops:
        if op[0] == "add":
            retriever.add_chunks(_chunks(op[1], staged))
            staged += len(op[1])
        elif op[0] == "build":
            retriever.build()
            assert_matches_oracle(retriever)
        else:
            retriever = _roundtrip(retriever)
    retriever.build()
    assert_matches_oracle(retriever)


class TestFoldReadsOnlyNewChunks:
    @pytest.fixture()
    def tokenized(self, monkeypatch):
        """Texts tokenized from here on, cache hits included."""
        seen: list[str] = []
        real = tokenize_module._tokenize_cached

        def counting(text: str, drop_stopwords: bool) -> tuple[str, ...]:
            seen.append(text)
            return real(text, drop_stopwords)

        monkeypatch.setattr(tokenize_module, "_tokenize_cached", counting)
        return seen

    @pytest.mark.parametrize("restored", [False, True])
    def test_each_new_chunk_tokenized_once(self, tokenized, restored):
        retriever = MultiSourceRetriever()
        retriever.add_chunks(_chunks(["alpha beta", "beta Gamma", "x"], 0))
        retriever.build()
        if restored:
            retriever = _roundtrip(retriever)
        new = _chunks(["delta alpha", "лямбда", "alpha"], 3)
        tokenized.clear()
        retriever.add_chunks(new)
        retriever.build()
        assert tokenized == [c.text for c in new]
        assert_matches_oracle(retriever)

    def test_build_without_new_chunks_tokenizes_nothing(self, tokenized):
        retriever = MultiSourceRetriever()
        retriever.add_chunks(_chunks(["alpha beta"], 0))
        retriever.build()
        tokenized.clear()
        retriever.build()
        assert tokenized == []


def test_restore_does_no_fold_setup():
    """A restore stages the counts on empty indexes; the next build folds
    them in."""
    retriever = MultiSourceRetriever(mode="rrf", rrf_k=7)
    retriever.add_chunks(_chunks(["alpha beta", "beta"], 0))
    retriever.build()
    restored = _roundtrip(retriever)
    assert (restored.mode, restored.rrf_k) == ("rrf", 7)
    assert restored._counts == retriever._counts
    assert not restored._built
    assert restored._table.n_docs == 0
    assert restored._sparse._doc_len == []
    assert restored._dense._weights.size == 0
    restored.build()
    assert bm25_state(restored._sparse) == bm25_state(retriever._sparse)
    assert dense_state(restored._dense) == dense_state(retriever._dense)
    for mode in MODES:
        assert _hits(restored, mode) == _hits(retriever, mode)
