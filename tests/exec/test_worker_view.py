"""The worker_view protocol on the real pipeline: what a view shares
with its parent by identity and what it owns.

A view that missed an attribute (say, state a subclass added) would
answer from a half-built pipeline under the pool; one that copied a
shared object would split the substrate; one that shared the LLM, the
scorer or an enabled observability bundle would let concurrent tasks
write the parent's meter and sinks.
"""

from __future__ import annotations

import pytest

from repro.core import MultiRAG, MultiRAGConfig
from repro.obs import Observability
from tests.conftest import make_sources

#: the read-only substrate every view shares with its parent.
SHARED = (
    "fusion", "mlg", "history", "engine", "_entity_by_norm",
    "_subject_index",
)


@pytest.mark.parametrize("obs_enabled", [False, True])
def test_view_mirrors_shares_and_owns(obs_enabled):
    config = MultiRAGConfig(extraction_noise=0.0, update_history=False)
    obs = Observability.enable() if obs_enabled else None
    rag = MultiRAG.from_config(config, obs=obs)
    rag.ingest(make_sources())
    view = rag.worker_view()

    assert set(vars(view)) == set(vars(rag))
    for name in SHARED:
        assert getattr(view, name) is getattr(rag, name), name
    assert view.llm is not rag.llm
    assert view.llm.meter is not rag.llm.meter
    assert view.scorer is not rag.scorer
    if obs_enabled:
        assert view.obs is not rag.obs
