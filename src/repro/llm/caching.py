"""Prompt-level caching wrapper for LLM clients.

Re-running experiments replays thousands of identical prompts (the
simulated model is deterministic; a real served model is expensive).
:class:`CachingLLM` memoizes ``prompt → completion text`` around any
:class:`~repro.llm.base.LLMClient`, with optional JSON persistence so a
cache survives between processes.

Cache hits still pay the inner client's *accounted* latency into the
meter — the cache saves wall time, and the simulated cost model must keep
reporting what the uncached pipeline would have cost (PT comparability).
Pass ``free_hits=True`` to model a real deployment where a hit costs
nothing.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.llm.base import LLMClient
from repro.obs.context import NOOP, Observability
from repro.util import atomic_write_text


class CachingLLM(LLMClient):
    """Memoizing decorator over another LLM client."""

    def __init__(
        self,
        inner: LLMClient,
        cache_path: str | Path | None = None,
        free_hits: bool = False,
        obs: Observability | None = None,
        max_entries: int | None = None,
    ) -> None:
        super().__init__(inner.base_latency_s, inner.latency_per_token_s)
        self.inner = inner
        self.free_hits = free_hits
        self.hits = 0
        self.misses = 0
        self.obs = obs if obs is not None else NOOP
        #: FIFO eviction cap; None = unbounded (offline experiment runs).
        #: An always-on server must set a cap — an unbounded prompt
        #: stream would otherwise grow the cache without limit (RES004).
        self.max_entries = max_entries
        self._cache: dict[str, str] = {}
        self._cache_path = Path(cache_path) if cache_path else None
        if self._cache_path and self._cache_path.exists():
            self._cache = json.loads(self._cache_path.read_text())

    def _store(self, prompt: str, text: str) -> None:
        """Insert one completion, evicting oldest-first at ``max_entries``.

        Eviction only affects hit/miss accounting: the inner client is
        deterministic per prompt, so a re-miss regenerates identical
        text.
        """
        if self.max_entries is not None and prompt not in self._cache:
            while len(self._cache) >= max(1, self.max_entries):
                self._cache.pop(next(iter(self._cache)))
        self._cache[prompt] = text  # repro-lint: ignore[CONC001] — cache is shared across clones by design: fills are idempotent (deterministic text per prompt), so concurrent writers store identical values

    def _generate(self, prompt: str) -> str:
        cached = self._cache.get(prompt)
        if cached is not None:
            self.hits += 1  # repro-lint: ignore[CONC001] — counters live on the worker's own split() clone; the advisory totals are read single-threaded
            self.obs.metrics.counter("llm.cache.hits").inc()
            return cached
        self.misses += 1  # repro-lint: ignore[CONC001] — per-clone counter (see above)
        self.obs.metrics.counter("llm.cache.misses").inc()
        text = self.inner._generate(prompt)
        self._store(prompt, text)
        return text

    def transport(self, prompt: str) -> tuple[str, float]:
        """One completion's ``(text, latency)`` with hit-aware cost.

        A hit under ``free_hits`` costs latency ``0.0``; everything else
        pays this client's accounted cost model, exactly as the uncached
        pipeline would.  The base class does the (stage-tagged)
        accounting.
        """
        is_hit = prompt in self._cache
        text = self._generate(prompt)
        if is_hit and self.free_hits:
            return text, 0.0
        return text, self.latency_for(prompt, text)

    # ------------------------------------------------------------------
    # persistence & stats
    # ------------------------------------------------------------------
    def save(self) -> None:
        """Write the cache to ``cache_path`` atomically (no-op without a path).

        Uses a temp file + ``os.replace`` so an interrupted run never
        leaves a truncated cache for the next process to choke on.
        """
        if self._cache_path is not None:
            atomic_write_text(self._cache_path, json.dumps(self._cache))

    def export_cache(self) -> dict[str, str]:
        """Copy of the ``prompt -> completion`` map (snapshot serialization)."""
        return dict(self._cache)

    def import_cache(self, entries: dict[str, str]) -> None:
        """Merge ``entries`` into the cache (snapshot warm-load).

        Existing entries win: the inner client is deterministic per
        prompt, so a disagreement would mean the entries came from a
        different model identity — the fingerprint guards against that
        upstream, and keeping the live value is the safe default.
        """
        for prompt, text in entries.items():
            self._cache.setdefault(prompt, text)

    def __len__(self) -> int:
        return len(self._cache)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
