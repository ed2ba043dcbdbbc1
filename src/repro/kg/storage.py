"""JSON-LD-backed normalized storage (Definition 1 of the paper).

Each format adapter turns one raw file into a
:class:`NormalizedRecord` ``{id, d, name, jsc, meta, (cols_index)}``:

* ``id`` — unique identifier assigned at normalization time;
* ``domain`` (``d``) — the domain the file belongs to;
* ``name`` — file / attribute name;
* ``jsonld`` (``jsc``) — the content re-expressed as JSON-LD linked data;
* ``meta`` — file metadata carried through unchanged;
* ``cols_index`` — for columnar (structured) data only: a column→values
  index in Decomposition Storage Model layout.

The record is the adapter's per-source output: the adapter builds it
while it parses, and fusion keeps the triples and documents, not the
record.

This module also writes a whole :class:`~repro.kg.graph.KnowledgeGraph`
to one JSON file of JSON-LD statements (``repro ingest --graph``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Provenance, Triple
from repro.util import atomic_write_text

#: ``@context`` used for every JSON-LD document this library emits.
JSONLD_CONTEXT = "https://schema.org/"


@dataclass(slots=True)
class NormalizedRecord:
    """One normalized data file, per Definition 1."""

    record_id: str
    domain: str
    name: str
    jsonld: dict[str, Any]
    meta: dict[str, Any] = field(default_factory=dict)
    cols_index: dict[str, list[str]] | None = None


def make_jsonld(entity_id: str, properties: dict[str, Any]) -> dict[str, Any]:
    """Wrap a property map as a JSON-LD node (Fig. 2 of the paper)."""
    doc: dict[str, Any] = {"@context": JSONLD_CONTEXT, "@id": entity_id}
    doc.update(properties)
    return doc


def triple_to_jsonld(triple: Triple) -> dict[str, Any]:
    """One triple as a JSON-LD statement, provenance included."""
    doc = make_jsonld(triple.subject, {triple.predicate: triple.obj})
    if triple.provenance:
        doc["@provenance"] = {
            "source": triple.provenance.source_id,
            "domain": triple.provenance.domain,
            "format": triple.provenance.fmt,
            "chunk": triple.provenance.chunk_id,
            "record": triple.provenance.record_id,
            "observed_at": triple.provenance.observed_at,
        }
    return doc


def triple_from_jsonld(doc: dict[str, Any]) -> Triple:
    """Inverse of :func:`triple_to_jsonld`."""
    subject = doc["@id"]
    prov_doc = doc.get("@provenance")
    provenance = None
    if prov_doc:
        provenance = Provenance(
            source_id=prov_doc.get("source", ""),
            domain=prov_doc.get("domain", ""),
            fmt=prov_doc.get("format", ""),
            chunk_id=prov_doc.get("chunk"),
            record_id=prov_doc.get("record"),
            observed_at=prov_doc.get("observed_at"),
        )
    for key, value in doc.items():
        if not key.startswith("@"):
            return Triple(subject, key, str(value), provenance)
    raise ValueError(f"JSON-LD statement without predicate: {doc!r}")


def save_graph(graph: KnowledgeGraph, path: str | Path) -> None:
    """Serialize ``graph`` (triples + entities) to a JSON file.

    The write is atomic (temp file + ``os.replace``): a crash mid-save
    leaves the previous file intact rather than a truncated JSON.
    """
    payload = {
        "name": graph.name,
        "triples": [triple_to_jsonld(t) for t in graph.triples()],
        "entities": [e.to_dict() for e in graph.entities()],
    }
    atomic_write_text(path, json.dumps(payload, ensure_ascii=False, indent=1))
