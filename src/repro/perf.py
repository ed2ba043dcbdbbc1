"""Process-wide registry of the query hot path's memo caches.

The query hot path memoizes pure functions
(:func:`repro.retrieval.tokenize.tokenize`, the mutual-information
similarity in :mod:`repro.confidence.similarity`).  Each memo is keyed on
its arguments only, so its entries can never go stale; the test oracle in
``tests/hotpath_oracle.py`` pins that every memoized result equals the
naive computation.

This module is foundation-level (no repro imports): the modules that own
a memo register its clear hook with :func:`register_cache`, and
``MultiRAG.ingest`` calls :func:`clear_caches` so a new corpus starts
from empty caches (memory hygiene, not correctness).
"""

from __future__ import annotations

from typing import Callable

#: registered clear callbacks, in registration order.
_CACHE_CLEARERS: list[Callable[[], None]] = []


def register_cache(clear: Callable[[], None]) -> Callable[[], None]:
    """Register a cache-clear callback; returns it (decorator-friendly)."""
    _CACHE_CLEARERS.append(clear)
    return clear


def clear_caches() -> None:
    """Drop every registered memo cache."""
    for clear in _CACHE_CLEARERS:
        clear()
