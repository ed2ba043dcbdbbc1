"""Fingerprint sensitivity: any input that shapes the ingested state
must change the fingerprint; anything that doesn't, mustn't."""

from __future__ import annotations

from repro.adapters.base import RawSource
from repro.core.config import MultiRAGConfig
from repro.llm.simulated import SimulatedLLM
from repro.snapshot import compute_fingerprint, payload_digest


def _sources() -> list[RawSource]:
    return [
        RawSource(source_id="s1", domain="books", fmt="json",
                  name="a.json", payload='[{"title": "X"}]'),
        RawSource(source_id="s2", domain="books", fmt="text",
                  name="b.txt", payload="X was written by Y."),
    ]


def _fp(**overrides) -> str:
    config = overrides.pop("config", MultiRAGConfig(seed=1))
    sources = overrides.pop("sources", _sources())
    llm = overrides.pop("llm", SimulatedLLM(seed=1))
    assert not overrides
    return compute_fingerprint(config, sources, llm)


class TestFingerprint:
    def test_deterministic(self):
        assert _fp() == _fp()

    def test_config_field_changes_it(self):
        assert _fp(config=MultiRAGConfig(seed=1, top_k=9)) != _fp()

    def test_llm_seed_changes_it(self):
        assert _fp(llm=SimulatedLLM(seed=2)) != _fp()

    def test_llm_noise_changes_it(self):
        assert _fp(llm=SimulatedLLM(seed=1, extraction_noise=0.3)) != _fp()

    def test_payload_changes_it(self):
        sources = _sources()
        sources[1] = RawSource(
            source_id="s2", domain="books", fmt="text",
            name="b.txt", payload="X was written by Z.",
        )
        assert _fp(sources=sources) != _fp()

    def test_source_order_changes_it(self):
        assert _fp(sources=list(reversed(_sources()))) != _fp()

    def test_source_meta_changes_it(self):
        sources = _sources()
        sources[0] = RawSource(
            source_id="s1", domain="books", fmt="json",
            name="a.json", payload='[{"title": "X"}]',
            meta={"reliability": 0.9},
        )
        assert _fp(sources=sources) != _fp()


class TestPayloadDigest:
    def test_str_and_equal_bytes_agree(self):
        assert payload_digest("abc") == payload_digest(b"abc")

    def test_structured_payload_is_canonical(self):
        assert payload_digest({"b": 1, "a": 2}) == payload_digest({"a": 2, "b": 1})

    def test_distinct_payloads_differ(self):
        assert payload_digest("abc") != payload_digest("abd")
