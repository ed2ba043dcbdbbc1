"""Content-addressed snapshot fingerprints.

A snapshot is only reusable when *everything* that determined the
ingested state is unchanged: the source payloads (and their order — graph
insertion order follows source order), every config field that shapes
construction, the LLM identity (seed, noise, knowledge base — the
extractor's output depends on all of them), and the snapshot format
itself.  :func:`compute_fingerprint` hashes a canonical JSON document of
all four; a single changed byte anywhere yields a different fingerprint
and therefore a cold rebuild, never a silently stale warm load.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import TYPE_CHECKING, Any, Sequence

from repro.adapters.base import RawSource

if TYPE_CHECKING:  # a type-only edge: core imports snapshot, never back
    from repro.core.config import MultiRAGConfig

#: Bump whenever the on-disk layout or any serialized structure changes;
#: old snapshots then fingerprint-miss instead of loading wrongly.
#: v2: delta layers and source descriptors in the manifest.  v3: one
#: graph file and one MLG file per base snapshot, in insertion and
#: construction order.  v4: ``retriever.json`` holds only the term-count
#: table the indexes are rebuilt from, and the MLG file no edge weights.
#: v5: no MLG file (a load rebuilds the MLG from the graph), no
#: normalized records, and no wall-clock field in a manifest.  Older
#: snapshots raise a migration error telling the operator to re-ingest
#: and remove the old store.
SNAPSHOT_FORMAT_VERSION = 5


def _jsonable(value: Any) -> Any:
    """A canonical JSON-compatible form of one config/meta value."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_jsonable(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    return repr(value)


def _digest_default(value: Any) -> Any:
    """``json.dumps`` fallback for types the C encoder cannot serialize."""
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    return repr(value)


def payload_digest(payload: Any) -> str:
    """SHA-256 of one source payload in a canonical encoding.

    Structured payloads are encoded by ``json.dumps`` directly (the C
    encoder, with a ``default`` hook for sets and exotic objects) —
    payload hashing sits on the warm-load path and a pure-Python
    canonicalization pass over every record dominates it.  Payloads with
    non-sortable mixed-type dict keys fall back to :func:`_jsonable`;
    either path is deterministic for a given payload, which is all the
    fingerprint needs.
    """
    if isinstance(payload, bytes):
        raw = payload
    elif isinstance(payload, str):
        raw = payload.encode("utf-8")
    else:
        try:
            raw = json.dumps(
                payload, sort_keys=True, separators=(",", ":"),
                default=_digest_default,
            ).encode("utf-8")
        except (TypeError, ValueError):
            raw = json.dumps(
                _jsonable(payload), sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


def _llm_identity(llm: Any) -> dict[str, Any]:
    """The attributes that make two LLM clients behave identically."""
    identity: dict[str, Any] = {"class": type(llm).__qualname__}
    for attr in (
        "seed",
        "extraction_noise",
        "knowledge_accuracy",
        "hallucination_pool",
        "base_latency_s",
        "latency_per_token_s",
        "wall_latency_scale",
    ):
        if hasattr(llm, attr):
            identity[attr] = _jsonable(getattr(llm, attr))
    knowledge = getattr(llm, "knowledge", None)
    if isinstance(knowledge, dict):
        identity["knowledge"] = {
            k: sorted(v) for k, v in sorted(knowledge.items())
        }
    return identity


@dataclasses.dataclass(frozen=True, slots=True)
class SourceDescriptor:
    """The fingerprint-relevant identity of one raw source.

    A descriptor is everything the fingerprint needs to know about a
    source *without holding its payload*: identifiers plus a content
    digest.  Descriptors are the unit of the layer-chain fingerprint
    algebra — a base snapshot records the descriptors it was built from,
    every delta layer adds exactly one, and the chain fingerprint is the
    ordinary :func:`fingerprint_from_descriptors` over the concatenated
    list, so ``ingest(base_sources + [extra])`` on a fresh pipeline
    fingerprint-hits the chain that ``add_source(extra)`` wrote.
    """

    source_id: str
    domain: str
    fmt: str
    name: str
    payload: str
    meta: Any

    def to_doc(self) -> dict[str, Any]:
        """The canonical JSON form hashed into the fingerprint."""
        return {
            "source_id": self.source_id,
            "domain": self.domain,
            "fmt": self.fmt,
            "name": self.name,
            "payload": self.payload,
            "meta": self.meta,
        }

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "SourceDescriptor":
        """Inverse of :meth:`to_doc` (manifest round-trip).

        Raises:
            KeyError: if a required descriptor field is missing.
        """
        return cls(
            source_id=doc["source_id"],
            domain=doc["domain"],
            fmt=doc["fmt"],
            name=doc["name"],
            payload=doc["payload"],
            meta=doc.get("meta"),
        )


def describe_source(raw: RawSource) -> SourceDescriptor:
    """The :class:`SourceDescriptor` of one raw source (digests payload)."""
    return SourceDescriptor(
        source_id=raw.source_id,
        domain=raw.domain,
        fmt=raw.fmt,
        name=raw.name,
        payload=payload_digest(raw.payload),
        meta=_jsonable(raw.meta),
    )


def fingerprint_from_descriptors(
    config: "MultiRAGConfig",
    descriptors: Sequence[SourceDescriptor],
    llm: Any,
) -> str:
    """SHA-256 fingerprint over pre-digested source descriptors.

    The layer-chain algebra lives here: appending one descriptor and
    re-hashing yields the chain fingerprint of the extended corpus,
    without re-reading any earlier payload.
    """
    doc = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "config": {
            f.name: _jsonable(getattr(config, f.name))
            for f in dataclasses.fields(config)
        },
        "llm": _llm_identity(llm),
        "sources": [d.to_doc() for d in descriptors],
    }
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def compute_fingerprint(
    config: "MultiRAGConfig", sources: Sequence[RawSource], llm: Any
) -> str:
    """SHA-256 fingerprint keying a snapshot of ``ingest(sources)``.

    Covers the snapshot format version, every config field, the ordered
    source descriptors with content digests, and the LLM identity.
    Deterministic across processes and platforms.
    """
    return fingerprint_from_descriptors(
        config, [describe_source(raw) for raw in sources], llm
    )
