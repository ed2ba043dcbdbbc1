"""On-disk snapshot store: serialize/restore a fully ingested pipeline.

A snapshot stores only the state that a load cannot rebuild and that
something reads: the fused graph, the chunks with their term counts and
the history.  Everything derived from them is rebuilt on every load: the
retrieval indexes here, from the term counts; the multi-source line
graph, the node scorer and the subject index by the pipeline, from the
graph, with the calls a cold ingest makes.  No field records wall-clock
time, so one corpus, config and LLM always write the same bytes.

Format v5 knows two kinds of content-addressed directory, both named by
their fingerprint (see :mod:`repro.snapshot.fingerprint`):

**Base snapshots** hold the stored state of one ingest:

``manifest.json``
    format version, ``kind: "base"``, the extraction-call count,
    component counts, the source descriptors the state was built from.
``graph.json``
    the fused knowledge graph: its name, its entities and its triples
    as columns in insertion order (parallel ``subject`` / ``predicate``
    / ``obj`` / ``prov_id`` lists plus a deduplicated provenance
    table).  Insertion order is the order every secondary index and the
    MLG's group members derive from; the list is handed to
    :meth:`~repro.kg.graph.KnowledgeGraph.bulk_restore` as is.
``chunks.json``
    the chunk corpus.
``retriever.json``
    retrieval mode, ``rrf_k`` and the term-count table: one row per
    chunk, in chunk order, each row's terms in first-seen order, each
    count an ``int`` >= 1 (a load rejects any other).  Every index is
    rebuilt from it on load, by the fold ``ingest`` and ``add_source``
    use, so no index state is stored.
``history.json``
    the calibrated per-source credibility tallies.

**Delta layers** record one ``add_source`` increment instead of a full
state.  A layer directory holds a manifest (``kind: "delta"``, the parent
fingerprint, the one source descriptor it adds) and ``layer.json`` (the
standardized triples the source contributed, its chunks, and the
post-update history state).
:meth:`SnapshotStore.load` follows parent pointers back to the base,
validates the *entire* chain up front — a missing or corrupt middle
layer raises :class:`~repro.errors.SnapshotError` naming that layer,
never a partial graph — then restores the base, appends each layer's
triples to the graph with ``bulk_append``, and at the end folds the
base's term counts and every layer's chunks into the retrieval indexes
in one ``MultiSourceRetriever.build``; a base load runs the same fold on
the base's counts alone.  Either way the fold runs inside
:meth:`SnapshotStore.load`, before the pipeline answers a query.
:meth:`SnapshotStore.compact` squashes a chain back into a base snapshot
under the same fingerprint.

The manifest's counts are checked against ``graph.json`` and
``retriever.json`` on load, so a short file raises
:class:`~repro.errors.SnapshotError` naming it instead of restoring part
of a graph or an index.  A file whose decode fails on a missing key or a
value of the wrong type raises one that names the file, too.

Writes are atomic at directory granularity: everything lands in a
``.tmp.<fingerprint>`` sibling first and is renamed into place with
``os.replace``, so a crashed save never leaves a half-written snapshot
where :meth:`SnapshotStore.has` would find it.  Overwrites displace the
previous snapshot to ``.old.<fingerprint>`` (another rename) before
installing the new one — a crash in between leaves the old state
recoverable rather than destroyed, and a failed install renames it back.
Dotted work-area names are invisible to :meth:`SnapshotStore.fingerprints`
and reclaimed by :meth:`SnapshotStore.gc`.

Floats survive exactly: JSON numbers round-trip ``float64`` through
``repr``.  Dict insertion orders are preserved end to end (JSON objects
keep order), which is what makes a warm-loaded pipeline byte-identical
to the cold-built one.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.adapters.fusion import FusionResult
from repro.confidence.history import HistoryStore
from repro.errors import GraphError, SnapshotError
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Entity, Provenance, Triple
from repro.obs.context import NOOP, Observability
from repro.retrieval.chunking import Chunk
from repro.retrieval.retriever import MultiSourceRetriever
from repro.snapshot.fingerprint import (
    SNAPSHOT_FORMAT_VERSION,
    SourceDescriptor,
)

#: hard ceiling on delta-chain length: a chain longer than this is a
#: corrupt store (a parent cycle survives at most this many hops before
#: the walk refuses), not a workload anyone compacts this rarely.
MAX_CHAIN_DEPTH = 4096


@contextlib.contextmanager
def _decoding(fingerprint: str, name: str) -> Iterator[None]:
    """Turn a decode error in the block into a :class:`SnapshotError`
    that names the file ``name``.

    A :class:`SnapshotError` raised in the block propagates with its
    own message.

    Raises:
        SnapshotError: if the block raises ``IndexError``, ``KeyError``,
            ``TypeError`` or ``ValueError``.
    """
    try:
        yield
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(
            f"snapshot {fingerprint}: corrupt {name}: {exc!r}"
        ) from exc


@dataclass(slots=True)
class LoadedState:
    """The stored state a warm-loaded pipeline resumes from.

    The pipeline rebuilds the rest (the MLG, the scorer, the subject
    index) from ``fusion.graph``.  ``sources`` are the descriptors of the
    full corpus the state represents (base descriptors plus one per
    replayed layer); ``num_layers`` counts the delta layers replayed on
    top of the base (0 for a direct base load).
    """

    fingerprint: str
    fusion: FusionResult
    retriever: MultiSourceRetriever
    history: HistoryStore
    sources: list[SourceDescriptor] = field(default_factory=list)
    num_layers: int = 0


class SnapshotStore:
    """Content-addressed directory of pipeline snapshots."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _dir(self, fingerprint: str) -> Path:
        return self.root / fingerprint

    def has(self, fingerprint: str) -> bool:
        """True when a snapshot or delta layer exists for ``fingerprint``."""
        return (self._dir(fingerprint) / "manifest.json").is_file()

    def fingerprints(self) -> list[str]:
        """Fingerprints of every complete snapshot or layer, sorted.

        Dotted names are the store's work areas (``.tmp.<fp>`` staging
        and ``.old.<fp>`` displaced copies); a crash can leave one behind
        with a manifest inside, so they are never reported as snapshots.
        """
        if not self.root.is_dir():
            return []
        return sorted(
            p.name for p in self.root.iterdir()
            if p.is_dir()
            and not p.name.startswith(".")
            and (p / "manifest.json").is_file()
        )

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def gc(self) -> list[str]:
        """Prune orphaned work areas left behind by crashed writes.

        Removes every dotted sibling (``.tmp.*`` staging directories and
        ``.old.*`` displaced copies) under the store root.  Complete
        snapshots and layers are never touched.  Returns the names
        removed, sorted.

        Raises:
            SnapshotError: if a work area cannot be removed.
        """
        if not self.root.is_dir():
            return []
        removed: list[str] = []
        for p in sorted(self.root.iterdir()):
            if p.is_dir() and p.name.startswith("."):
                try:
                    shutil.rmtree(p)
                except OSError as exc:
                    raise SnapshotError(
                        f"snapshot gc: cannot remove work area {p.name}: {exc}"
                    ) from exc
                removed.append(p.name)
        return removed

    def size_of(self, fingerprint: str) -> int:
        """Total on-disk bytes of one snapshot/layer directory."""
        snap_dir = self._dir(fingerprint)
        if not snap_dir.is_dir():
            return 0
        return sum(
            f.stat().st_size for f in snap_dir.rglob("*") if f.is_file()
        )

    def manifest(self, fingerprint: str) -> dict[str, Any]:
        """The raw manifest of one snapshot/layer.

        Raises:
            SnapshotError: if the manifest is missing or corrupt.
        """
        return self._read_json(
            self._dir(fingerprint) / "manifest.json", fingerprint
        )

    def chain(self, fingerprint: str) -> list[dict[str, Any]]:
        """Manifests of ``fingerprint``'s layer chain, base first.

        A base snapshot yields a single-element list.  Used by the CLI's
        ``snapshot list``/``inspect`` and by :meth:`load`.

        Raises:
            SnapshotError: if any layer of the chain is missing or
                corrupt, names the broken layer; also on parent cycles.
        """
        manifests: list[dict[str, Any]] = []
        seen: set[str] = set()
        fp = fingerprint
        for _depth in range(MAX_CHAIN_DEPTH + 1):
            if fp in seen:
                raise SnapshotError(
                    f"snapshot {fingerprint}: layer chain has a parent "
                    f"cycle at {fp}"
                )
            seen.add(fp)
            try:
                manifest = self.manifest(fp)
            except SnapshotError as exc:
                if fp == fingerprint:
                    raise
                raise SnapshotError(
                    f"snapshot {fingerprint}: layer chain broken at "
                    f"layer {fp}: {exc}"
                ) from exc
            self._check_version(manifest, fp)
            manifests.append(manifest)
            if manifest.get("kind", "base") != "delta":
                return list(reversed(manifests))
            parent = manifest.get("parent")
            if not isinstance(parent, str) or not parent:
                raise SnapshotError(
                    f"snapshot {fingerprint}: delta layer {fp} names no "
                    f"parent"
                )
            fp = parent
        raise SnapshotError(
            f"snapshot {fingerprint}: layer chain exceeds "
            f"{MAX_CHAIN_DEPTH} layers (parent loop or corrupt store)"
        )

    @staticmethod
    def _check_version(manifest: dict[str, Any], fingerprint: str) -> None:
        """
        Raises:
            SnapshotError: on a format-version mismatch, with migration
                guidance for artifacts of an older format.
        """
        version = manifest.get("format_version")
        if version == SNAPSHOT_FORMAT_VERSION:
            return
        hint = (
            " (older snapshots cannot be migrated in place: re-ingest "
            "to write a fresh snapshot, then remove the old directory)"
            if isinstance(version, int) and version < SNAPSHOT_FORMAT_VERSION
            else ""
        )
        raise SnapshotError(
            f"snapshot {fingerprint} has format version {version!r}; "
            f"this build reads version {SNAPSHOT_FORMAT_VERSION}{hint}"
        )

    # ------------------------------------------------------------------
    # save
    # ------------------------------------------------------------------
    def save(
        self,
        fingerprint: str,
        *,
        fusion: FusionResult,
        retriever: MultiSourceRetriever,
        history: HistoryStore,
        sources: Sequence[SourceDescriptor] | None = None,
    ) -> Path:
        """Serialize one ingested pipeline state under ``fingerprint``.

        Returns the final snapshot directory.  The write is atomic: a
        temp directory is populated and renamed into place, replacing any
        previous snapshot for the same fingerprint.

        Raises:
            SnapshotError: if the snapshot directory cannot be written.
        """
        graph = fusion.graph
        triples = list(graph.triples())

        def _populate(tmp: Path) -> None:
            self._write_json(tmp / "graph.json", {
                "name": graph.name,
                "entities": [e.to_dict() for e in graph.entities()],
                "triples": self._triple_cols(triples),
            })
            self._write_json(tmp / "chunks.json", [
                self._chunk_doc(c) for c in fusion.chunks
            ])
            self._write_json(tmp / "retriever.json", retriever.export_state())
            self._write_json(tmp / "history.json", history.export_state())
            self._write_json(tmp / "manifest.json", {
                "format_version": SNAPSHOT_FORMAT_VERSION,
                "kind": "base",
                "fingerprint": fingerprint,
                "extraction_calls": fusion.extraction_calls,
                "counts": {
                    "triples": len(triples),
                    "entities": graph.num_entities(),
                    "chunks": len(fusion.chunks),
                },
                "sources": [d.to_doc() for d in sources or []],
            })

        return self._install(fingerprint, _populate)

    def save_layer(
        self,
        fingerprint: str,
        *,
        parent: str,
        descriptor: SourceDescriptor,
        triples: list[Triple],
        chunks: list[Chunk],
        history: HistoryStore,
        extraction_calls: int = 0,
    ) -> Path:
        """Append one ``add_source`` increment as a content-addressed layer.

        ``triples`` are the standardized claims the source actually added
        (post-deduplication, in graph insertion order), ``chunks`` its
        chunk contribution, ``history`` the *post-update* history state
        (small, so each layer carries it whole — the tip layer's copy
        wins on load).  The layer's cost is proportional to the new
        source, never the corpus.

        Raises:
            SnapshotError: if ``parent`` does not exist in the store, or
                the layer directory cannot be written.
        """
        if not self.has(parent):
            raise SnapshotError(
                f"cannot write layer {fingerprint}: parent snapshot "
                f"{parent} is not in the store"
            )

        def _populate(tmp: Path) -> None:
            self._write_json(tmp / "layer.json", {
                "triples": self._triple_cols(triples),
                "chunks": [self._chunk_doc(c) for c in chunks],
                "history": history.export_state(),
            })
            self._write_json(tmp / "manifest.json", {
                "format_version": SNAPSHOT_FORMAT_VERSION,
                "kind": "delta",
                "fingerprint": fingerprint,
                "parent": parent,
                "source": descriptor.to_doc(),
                "counts": {
                    "triples": len(triples),
                    "chunks": len(chunks),
                },
                "extraction_calls": extraction_calls,
            })

        return self._install(fingerprint, _populate)

    def compact(self, fingerprint: str) -> Path:
        """Squash ``fingerprint``'s layer chain into a base snapshot.

        Loads the fused state through the layer chain and re-saves it as
        a self-contained base under the *same* fingerprint (atomically
        replacing the tip layer).  Earlier chain members are untouched —
        they remain valid snapshots/chains of their own prefixes.  A
        fingerprint that is already a base is re-saved in place, which is
        a no-op semantically.

        Raises:
            SnapshotError: if the chain is missing/corrupt, or the
                compacted snapshot cannot be written.
        """
        state = self.load(fingerprint)
        return self.save(
            fingerprint,
            fusion=state.fusion,
            retriever=state.retriever,
            history=state.history,
            sources=state.sources,
        )

    def _install(
        self, fingerprint: str, populate: Callable[[Path], None]
    ) -> Path:
        """Atomically install a directory written by ``populate``.

        Raises:
            SnapshotError: if the directory cannot be written or renamed
                into place.
        """
        tmp = self.root / f".tmp.{fingerprint}"
        old = self.root / f".old.{fingerprint}"
        final = self._dir(fingerprint)
        try:
            if tmp.exists():
                shutil.rmtree(tmp)
            if old.exists():
                shutil.rmtree(old)
            tmp.mkdir(parents=True)
            populate(tmp)
            # Overwrite without a window where no valid snapshot exists:
            # displace the previous copy aside (rename, atomic) before
            # installing the new one, then discard it.  A crash between
            # the two renames leaves the old state recoverable under
            # ``.old.<fp>`` instead of destroyed.
            if final.exists():
                os.replace(final, old)
            os.replace(tmp, final)
            if old.exists():
                shutil.rmtree(old)
        except OSError as exc:
            # A failed install must not lose the previous snapshot: put
            # the displaced copy back if the new one never landed.
            if old.exists() and not final.exists():
                with contextlib.suppress(OSError):
                    os.replace(old, final)
            raise SnapshotError(
                f"cannot write snapshot {fingerprint} under {self.root}: {exc}"
            ) from exc
        finally:
            if tmp.exists():
                shutil.rmtree(tmp, ignore_errors=True)
        return final

    # -- columnar serialization helpers --------------------------------
    @staticmethod
    def _chunk_doc(c: Chunk) -> dict[str, Any]:
        return {
            "chunk_id": c.chunk_id,
            "source_id": c.source_id,
            "doc_id": c.doc_id,
            "seq": c.seq,
            "text": c.text,
            "meta": [list(pair) for pair in c.meta],
        }

    @staticmethod
    def _chunk_from_doc(doc: dict[str, Any]) -> Chunk:
        return Chunk(
            chunk_id=doc["chunk_id"],
            source_id=doc["source_id"],
            doc_id=doc["doc_id"],
            seq=int(doc["seq"]),
            text=doc["text"],
            meta=tuple(tuple(pair) for pair in doc.get("meta", [])),
        )

    @staticmethod
    def _triple_cols(triples: list[Triple]) -> dict[str, Any]:
        """Columnar triple arrays with a deduplicated provenance table.

        All triples extracted from one source record share a single
        :class:`Provenance` value, so the side table is typically an
        order of magnitude smaller than the triple list; ``prov_id`` is
        ``-1`` for provenance-free triples.
        """
        subjects: list[str] = []
        predicates: list[str] = []
        objs: list[str] = []
        prov_ids: list[int] = []
        prov_index: dict[Provenance, int] = {}
        for t in triples:
            subjects.append(t.subject)
            predicates.append(t.predicate)
            objs.append(t.obj)
            prov = t.provenance
            if prov is None:
                prov_ids.append(-1)
            else:
                prov_ids.append(prov_index.setdefault(prov, len(prov_index)))
        return {
            "subject": subjects,
            "predicate": predicates,
            "obj": objs,
            "prov_id": prov_ids,
            "prov_table": [
                [p.source_id, p.domain, p.fmt, p.chunk_id, p.record_id,
                 p.observed_at]
                for p in prov_index
            ],
        }

    @staticmethod
    def _triples_from_cols(cols: dict[str, Any]) -> list[Triple]:
        """Inverse of :meth:`_triple_cols`.

        Raises:
            KeyError: if a required column is missing.
            IndexError: if a ``prov_id`` points outside the side table.
        """
        provs = [
            Provenance(
                source_id=row[0], domain=row[1], fmt=row[2],
                chunk_id=row[3], record_id=row[4], observed_at=row[5],
            )
            for row in cols.get("prov_table", [])
        ]
        return [
            Triple(s, p, o, provs[pid] if pid >= 0 else None)
            for s, p, o, pid in zip(
                cols["subject"], cols["predicate"], cols["obj"],
                cols["prov_id"],
            )
        ]

    @staticmethod
    def _write_json(path: Path, payload: Any) -> None:
        path.write_text(json.dumps(payload, ensure_ascii=False))

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    def load(
        self, fingerprint: str, obs: Observability | None = None
    ) -> LoadedState:
        """Restore the state saved under ``fingerprint``.

        A base snapshot restores directly; a delta layer restores its
        whole chain (base first, then each layer's triples appended to the
        graph and its chunks folded into the retrieval indexes).  ``obs``
        is bound to the restored retriever (telemetry only; it does not
        affect the restored data).

        Raises:
            SnapshotError: if no snapshot exists for ``fingerprint``, any
                layer of its chain is missing or corrupt (the error names
                the broken layer), or it was written by an incompatible
                snapshot format version.
        """
        manifests = self.chain(fingerprint)
        base_manifest = manifests[0]
        layer_manifests = manifests[1:]

        # Validate and decode every layer payload *before* touching any
        # state: a corrupt middle layer must fail the whole load, never
        # yield a partially replayed graph.
        layers: list[dict[str, Any]] = []
        for manifest in layer_manifests:
            fp = str(manifest.get("fingerprint", ""))
            with _decoding(fingerprint, f"manifest.json of layer {fp}"):
                extraction_calls = int(manifest.get("extraction_calls", 0))
            doc = self._read_json(self._dir(fp) / "layer.json", fp)
            with _decoding(fingerprint, f"layer.json of layer {fp}"):
                layer_triples = self._triples_from_cols(doc["triples"])
                layer_chunks = [
                    self._chunk_from_doc(c) for c in doc["chunks"]
                ]
                history = HistoryStore().restore_state(doc["history"])
            layers.append({
                "fingerprint": fp,
                "manifest": manifest,
                "extraction_calls": extraction_calls,
                "triples": layer_triples,
                "chunks": layer_chunks,
                "history": history,
            })

        state = self._load_base(base_manifest, obs=obs)
        fusion = state.fusion
        graph = fusion.graph
        descriptors = list(state.sources)
        for layer in layers:
            fp = layer["fingerprint"]
            manifest = layer["manifest"]
            layer_triples = layer["triples"]
            try:
                graph.bulk_append(layer_triples)
            except GraphError as exc:
                raise SnapshotError(
                    f"snapshot {fingerprint}: layer {fp} does not extend "
                    f"its base: {exc}"
                ) from exc
            for t in layer_triples:
                if not graph.has_entity(t.subject):
                    graph.add_entity(Entity(eid=t.subject, name=t.subject))
                graph.entity(t.subject).add_attribute(t.predicate, t.obj)
            fusion.chunks.extend(layer["chunks"])
            fusion.extraction_calls += layer["extraction_calls"]
            source_doc = manifest.get("source")
            if isinstance(source_doc, dict):
                try:
                    descriptors.append(SourceDescriptor.from_doc(source_doc))
                except KeyError as exc:
                    raise SnapshotError(
                        f"snapshot {fingerprint}: layer {fp} has a "
                        f"malformed source descriptor: missing {exc}"
                    ) from exc

        # One fold of the restored counts and every layer's chunks (none on
        # a base load): only the layers' chunks are tokenized, and the
        # indexes equal those that add_source's per-call folds reach.
        state.retriever.add_chunks(
            [c for layer in layers for c in layer["chunks"]]
        )
        state.retriever.build()
        if not layers:
            return state
        state.history = layers[-1]["history"]
        state.fingerprint = fingerprint
        state.sources = descriptors
        state.num_layers = len(layers)
        return state

    def _load_base(
        self, manifest: dict[str, Any], obs: Observability | None = None
    ) -> LoadedState:
        """Restore one base snapshot from its (already read) manifest.

        The retriever comes back staged, not built: :meth:`load` runs its
        one fold.

        Raises:
            SnapshotError: if the artifact is corrupt or incomplete.
        """
        fingerprint = str(manifest.get("fingerprint", ""))
        snap_dir = self._dir(fingerprint)

        with _decoding(fingerprint, "manifest.json"):
            extraction_calls = int(manifest["extraction_calls"])
            counts = manifest.get("counts", {})
            if not isinstance(counts, dict):
                raise TypeError(f"counts is not an object: {counts!r}")
        graph = self._restore_graph(
            snap_dir, fingerprint, counts.get("triples")
        )
        chunk_docs = self._read_json(snap_dir / "chunks.json", fingerprint)
        with _decoding(fingerprint, "chunks.json"):
            chunks = [self._chunk_from_doc(doc) for doc in chunk_docs]
        fusion = FusionResult(
            graph=graph, chunks=chunks, extraction_calls=extraction_calls
        )

        retriever = self._restore_retriever(
            snap_dir, fingerprint, counts.get("chunks"), chunks, obs
        )

        history_doc = self._read_json(snap_dir / "history.json", fingerprint)
        with _decoding(fingerprint, "history.json"):
            history = HistoryStore().restore_state(history_doc)

        sources: list[SourceDescriptor] = []
        for doc in manifest.get("sources", []):
            try:
                sources.append(SourceDescriptor.from_doc(doc))
            except (KeyError, TypeError) as exc:
                raise SnapshotError(
                    f"snapshot {fingerprint}: malformed source descriptor "
                    f"in manifest: {exc!r}"
                ) from exc

        return LoadedState(
            fingerprint=fingerprint,
            fusion=fusion,
            retriever=retriever,
            history=history,
            sources=sources,
            num_layers=0,
        )

    def _restore_retriever(
        self,
        snap_dir: Path,
        fingerprint: str,
        num_chunks: Any,
        chunks: list[Chunk],
        obs: Observability | None,
    ) -> MultiSourceRetriever:
        """Decode ``retriever.json``: the chunks and their term counts,
        staged for the one fold :meth:`load` runs.

        Raises:
            SnapshotError: if ``retriever.json`` is missing or corrupt,
                holds a term count that is not an ``int`` >= 1, or holds
                another number of term-count rows than the manifest
                counts chunks, ``num_chunks`` (the error names the file).
        """
        doc = self._read_json(snap_dir / "retriever.json", fingerprint)
        with _decoding(fingerprint, "retriever.json"):
            rows = doc["term_counts"]
            if len(rows) != num_chunks:
                raise SnapshotError(
                    f"snapshot {fingerprint}: retriever.json holds "
                    f"{len(rows)} term-count rows, the manifest counts "
                    f"{num_chunks!r} chunks"
                )
            # Both indexes read each count as a term frequency, so each
            # must be an int >= 1: BM25 would score a float as it is,
            # while the dense index truncates it and reads a count < 1
            # from the end of its log-tf table.  JSON true loads as a
            # bool, which is not a count either.
            for row in rows:
                if type(row) is not dict:
                    raise ValueError("a term-count row is not an object")
                for tf in row.values():
                    if type(tf) is not int or tf < 1:
                        raise ValueError(
                            f"term count {tf!r} is not a positive integer"
                        )
            return MultiSourceRetriever(
                obs=obs if obs is not None else NOOP
            ).restore_state(chunks, doc)

    def _restore_graph(
        self, snap_dir: Path, fingerprint: str, num_triples: Any
    ) -> KnowledgeGraph:
        """Decode ``graph.json`` and bulk-load the graph.

        The triples are stored in the saving graph's insertion order, so
        :meth:`KnowledgeGraph.bulk_restore` reproduces every secondary
        index without re-running per-triple deduplication.

        Raises:
            SnapshotError: if ``graph.json`` is missing or corrupt, or
                holds another number of triples than the manifest counts,
                ``num_triples`` (the error names the file).
        """
        doc = self._read_json(snap_dir / "graph.json", fingerprint)
        try:
            triples = self._triples_from_cols(doc["triples"])
            if len(triples) != num_triples:
                raise SnapshotError(
                    f"snapshot {fingerprint}: graph.json holds "
                    f"{len(triples)} triples, the manifest counts "
                    f"{num_triples!r}"
                )
            entities = [
                Entity.from_dict(edoc) for edoc in doc.get("entities", [])
            ]
            graph = KnowledgeGraph(name=doc.get("name", "fused"))
            graph.bulk_restore(triples, entities)
        except (GraphError, IndexError, KeyError, TypeError, ValueError) as exc:
            # SnapshotError (raised by _read_json and the length check)
            # is not in this tuple, so it propagates with its own message.
            raise SnapshotError(
                f"snapshot {fingerprint}: corrupt graph.json: {exc!r}"
            ) from exc
        return graph

    @staticmethod
    def _read_json(path: Path, fingerprint: str) -> Any:
        try:
            return json.loads(path.read_text())
        except FileNotFoundError as exc:
            raise SnapshotError(
                f"snapshot {fingerprint}: missing {path.name} "
                f"(no snapshot, or an incomplete artifact)"
            ) from exc
        except (OSError, json.JSONDecodeError) as exc:
            raise SnapshotError(
                f"snapshot {fingerprint}: corrupt {path.name}: {exc}"
            ) from exc
