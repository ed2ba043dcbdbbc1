"""Tokenization shared by the retrieval stack and the simulated LLM.

:func:`tokenize` carries a process-wide LRU (registered with
:mod:`repro.perf`): the hot path tokenizes the same chunk texts and
attribute values over and over, and the function is pure, so memoizing
it is output-identical.  The cache stores tuples and the public function
returns fresh lists, preserving the original mutable-return contract.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable
from functools import lru_cache

import repro.perf as perf

#: Minimal English stop-word list; enough to keep lexical scoring sane
#: without pulling in an NLP dependency.
STOPWORDS: frozenset[str] = frozenset(
    """a an and are as at be by for from has have in is it its of on or that
    the their there these this to was were what when where which who whose
    will with does did about into than then over under not no""".split()
)

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:[.\-:'][a-z0-9]+)*")


@lru_cache(maxsize=65536)
def _tokenize_cached(text: str, drop_stopwords: bool) -> tuple[str, ...]:
    tokens = _TOKEN_RE.findall(text.lower())
    if drop_stopwords:
        return tuple(t for t in tokens if t not in STOPWORDS)
    return tuple(tokens)


perf.register_cache(_tokenize_cached.cache_clear)


def tokenize(text: str, drop_stopwords: bool = True) -> list[str]:
    """Lower-case word tokens of ``text``.

    Hyphenated / dotted compounds (``ca-981``, ``14:30``) stay intact so
    flight numbers and timestamps survive as single tokens.
    """
    return list(_tokenize_cached(text, drop_stopwords))


def term_counts(texts: Iterable[str]) -> list[Counter[str]]:
    """One ``Counter`` of :func:`tokenize` tokens per text, in order: the
    rows of the term-count table the retrieval indexes are built from."""
    return [Counter(tokenize(text)) for text in texts]


def sentences(text: str) -> list[str]:
    """Split ``text`` into sentences on ``.!?`` followed by whitespace."""
    parts = re.split(r"(?<=[.!?])\s+", text.strip())
    return [p.strip() for p in parts if p.strip()]


def ngrams(tokens: list[str], n: int) -> list[tuple[str, ...]]:
    """All contiguous ``n``-grams of ``tokens``."""
    if n <= 0:
        raise ValueError("n must be positive")
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
