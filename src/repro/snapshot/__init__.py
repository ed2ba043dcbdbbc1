"""Persistent pipeline snapshots (ingest once, query fast).

Knowledge construction — LLM extraction, fusion, index builds — is by far
the most expensive phase of the pipeline, yet it is a pure function of
(sources, config, LLM identity).  This package serializes the ingested
state that a load cannot rebuild — the fused graph, the chunks with their
term counts and the history — into a content-addressed,
versioned on-disk artifact, so subsequent processes warm-load it instead
of parsing and extracting again; the retrieval indexes, the MLG and the
other derived state are rebuilt on every load:

* :func:`~repro.snapshot.fingerprint.compute_fingerprint` keys a snapshot
  by source-content hashes, config and LLM identity, and the snapshot
  format version;
* :class:`~repro.snapshot.store.SnapshotStore` saves/loads the artifact
  atomically (see :mod:`repro.snapshot.store` for the layout);
* ``MultiRAG.ingest(sources, snapshot=...)`` wires both into the
  pipeline: fingerprint hit → warm load, miss → cold build + save.

*Delta layers* record increments: ``MultiRAG.add_source`` appends a
content-addressed layer (one source descriptor plus the increments it
produced) instead of invalidating the whole fingerprint.
:meth:`~repro.snapshot.store.SnapshotStore.load` walks the layer chain
back to its base and replays each layer;
:meth:`~repro.snapshot.store.SnapshotStore.compact` squashes a chain back
into a base snapshot offline.

A warm-loaded pipeline is byte-identical to the cold-built one — same
rankings, same ``EvaluationReport.to_json(drop_timing=True)`` — which the
snapshot test suite and ``benchmarks/test_perf_hotpath.py`` pin; the
layered load is pinned to the cold full ingest of the combined corpus the
same way.
"""

from repro.snapshot.fingerprint import (
    SNAPSHOT_FORMAT_VERSION,
    SourceDescriptor,
    compute_fingerprint,
    describe_source,
    fingerprint_from_descriptors,
    payload_digest,
)
from repro.snapshot.store import LoadedState, SnapshotStore

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "LoadedState",
    "SnapshotStore",
    "SourceDescriptor",
    "compute_fingerprint",
    "describe_source",
    "fingerprint_from_descriptors",
    "payload_digest",
]
