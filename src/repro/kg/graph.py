"""In-memory multi-source knowledge graph.

:class:`KnowledgeGraph` stores :class:`~repro.kg.triple.Triple` instances and
maintains the secondary indexes that every later stage relies on:

* ``by_subject`` / ``by_object`` / ``by_predicate`` adjacency indexes for
  graph traversal;
* a ``(subject, predicate)`` index — the backbone of homologous-group
  matching (each bucket holds the multi-source claims about one attribute of
  one entity);
* a per-source index used for corruption experiments and source-level
  credibility tracking.

The graph is append-mostly; removal is supported for the perturbation
experiments (relation masking, Fig. 5 of the paper).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator

from repro.errors import EntityNotFoundError, GraphError
from repro.kg.triple import Entity, Triple


class KnowledgeGraph:
    """A directed, labelled multigraph of provenance-carrying triples."""

    def __init__(self, name: str = "kg") -> None:
        self.name = name
        self._triples: list[Triple] = []
        self._spo_seen: set[tuple[tuple[str, str, str], str]] = set()
        self._entities: dict[str, Entity] = {}
        self._by_subject: dict[str, list[int]] = defaultdict(list)
        self._by_object: dict[str, list[int]] = defaultdict(list)
        self._by_predicate: dict[str, list[int]] = defaultdict(list)
        self._by_key: dict[tuple[str, str], list[int]] = defaultdict(list)
        self._by_source: dict[str, list[int]] = defaultdict(list)
        self._removed: set[int] = set()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_entity(self, entity: Entity) -> Entity:
        """Register (or merge) an entity and return the stored instance."""
        existing = self._entities.get(entity.eid)
        if existing is None:
            self._entities[entity.eid] = entity
            return entity
        for attr, values in entity.attributes.items():
            for value in values:
                existing.add_attribute(attr, value)
        return existing

    def add_triple(self, triple: Triple) -> bool:
        """Insert ``triple``; returns ``False`` if this exact claim (same
        statement from the same source) is already present."""
        dedup_key = (triple.spo(), triple.source_id())
        if dedup_key in self._spo_seen:
            return False
        self._spo_seen.add(dedup_key)
        idx = len(self._triples)
        self._triples.append(triple)
        self._by_subject[triple.subject].append(idx)
        self._by_object[triple.obj].append(idx)
        self._by_predicate[triple.predicate].append(idx)
        self._by_key[triple.key()].append(idx)
        self._by_source[triple.source_id()].append(idx)
        return True

    def add_triples(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; returns the number actually added."""
        return sum(1 for t in triples if self.add_triple(t))

    def bulk_restore(
        self, triples: list[Triple], entities: Iterable[Entity] = ()
    ) -> None:
        """Trusted bulk-load of pre-deduplicated triples into an empty graph.

        The snapshot loader's fast path: ``triples`` must come from a prior
        graph's :meth:`triples` iteration, so they are already deduplicated
        and in insertion order.  Skipping the per-triple membership check
        (and the ``add_triple`` call overhead) makes restoring a large
        snapshot several times faster than replaying :meth:`add_triple`,
        while producing the exact same index state.

        Raises:
            GraphError: if the graph already holds triples — bulk loading
                must not race with incremental insertion.
        """
        if self._triples:
            raise GraphError(
                "bulk_restore requires an empty graph "
                f"(this one holds {len(self._triples)} triples)"
            )
        self._triples = triples = list(triples)
        spo_seen = self._spo_seen
        by_subject = self._by_subject
        by_object = self._by_object
        by_predicate = self._by_predicate
        by_key = self._by_key
        by_source = self._by_source
        for idx, t in enumerate(triples):
            subject = t.subject
            predicate = t.predicate
            prov = t.provenance
            source = prov.source_id if prov is not None else ""
            spo_seen.add(((subject, predicate, t.obj), source))
            by_subject[subject].append(idx)
            by_object[t.obj].append(idx)
            by_predicate[predicate].append(idx)
            by_key[(subject, predicate)].append(idx)
            by_source[source].append(idx)
        for entity in entities:
            self._entities[entity.eid] = entity

    def bulk_append(self, triples: list[Triple]) -> None:
        """Trusted append of pre-deduplicated *new* triples.

        The snapshot layer-chain loader's continuation of
        :meth:`bulk_restore`: a delta layer records exactly the triples
        that :meth:`add_triple` accepted when the layer was created, so
        replaying them onto the restored base needs no membership
        decisions — only index extension.  The resulting state is
        identical to calling :meth:`add_triple` per triple.

        Raises:
            GraphError: if a triple duplicates an existing claim — delta
                layers are recorded post-deduplication, so a collision
                means the layer does not belong to this base graph.
        """
        spo_seen = self._spo_seen
        for t in triples:
            dedup_key = (t.spo(), t.source_id())
            if dedup_key in spo_seen:
                raise GraphError(
                    f"bulk_append: duplicate claim {t.spo()} from "
                    f"{t.source_id()!r} — layer does not extend this base"
                )
            spo_seen.add(dedup_key)
            idx = len(self._triples)
            self._triples.append(t)
            self._by_subject[t.subject].append(idx)
            self._by_object[t.obj].append(idx)
            self._by_predicate[t.predicate].append(idx)
            self._by_key[t.key()].append(idx)
            self._by_source[t.source_id()].append(idx)

    def remove_triple(self, triple: Triple) -> bool:
        """Remove one stored triple (identity match).  Lazy deletion: the
        index slot is tombstoned, not compacted."""
        for idx in self._by_key.get(triple.key(), []):
            if idx in self._removed:
                continue
            stored = self._triples[idx]
            if stored == triple:
                self._removed.add(idx)
                self._spo_seen.discard((stored.spo(), stored.source_id()))
                return True
        return False

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def _live(self, indexes: Iterable[int]) -> Iterator[Triple]:
        for idx in indexes:
            if idx not in self._removed:
                yield self._triples[idx]

    def triples(self) -> Iterator[Triple]:
        """Iterate over all live triples."""
        return self._live(range(len(self._triples)))

    def __len__(self) -> int:
        return len(self._triples) - len(self._removed)

    def __contains__(self, spo: tuple[str, str, str]) -> bool:
        return any(t.spo() == spo for t in self.by_key(spo[0], spo[1]))

    def entity(self, eid: str) -> Entity:
        """Return the entity registered as ``eid``.

        Raises:
            EntityNotFoundError: if the entity is unknown.
        """
        try:
            return self._entities[eid]
        except KeyError:
            raise EntityNotFoundError(f"unknown entity: {eid!r}") from None

    def has_entity(self, eid: str) -> bool:
        return eid in self._entities

    def entities(self) -> Iterator[Entity]:
        return iter(self._entities.values())

    def num_entities(self) -> int:
        return len(self._entities)

    def by_subject(self, subject: str) -> list[Triple]:
        return list(self._live(self._by_subject.get(subject, [])))

    def by_subjects(self, subjects: Iterable[str]) -> list[Triple]:
        """Live triples of all ``subjects``, in insertion order.

        Merges the per-subject index lists, so the cost follows the given
        subjects' claims, not the graph.  Repeated and unknown subjects
        add nothing.
        """
        indexes = [
            idx
            for subject in dict.fromkeys(subjects)
            for idx in self._by_subject.get(subject, ())
        ]
        indexes.sort()
        return list(self._live(indexes))

    def by_object(self, obj: str) -> list[Triple]:
        return list(self._live(self._by_object.get(obj, [])))

    def by_predicate(self, predicate: str) -> list[Triple]:
        return list(self._live(self._by_predicate.get(predicate, [])))

    def by_key(self, subject: str, predicate: str) -> list[Triple]:
        """All multi-source claims about one ``(subject, predicate)`` pair."""
        return list(self._live(self._by_key.get((subject, predicate), [])))

    def by_source(self, source_id: str) -> list[Triple]:
        return list(self._live(self._by_source.get(source_id, [])))

    def keys(self) -> list[tuple[str, str]]:
        """All ``(subject, predicate)`` keys that currently have live triples."""
        return [k for k, idxs in self._by_key.items()
                if any(i not in self._removed for i in idxs)]

    def sources(self) -> list[str]:
        """Identifiers of all sources that contributed live triples."""
        return sorted(
            s for s, idxs in self._by_source.items()
            if s and any(i not in self._removed for i in idxs)
        )

    def predicates(self) -> list[str]:
        return sorted(
            p for p, idxs in self._by_predicate.items()
            if any(i not in self._removed for i in idxs)
        )

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def neighbors(self, node: str) -> set[str]:
        """Entities one hop away from ``node`` (either direction)."""
        out = {t.obj for t in self.by_subject(node)}
        inc = {t.subject for t in self.by_object(node)}
        return (out | inc) - {node}

    def degree(self, node: str) -> int:
        """Number of live triples incident to ``node`` (a self-loop counts
        twice: once as subject, once as object).

        Counts index entries without materializing the triples; with no
        tombstones every entry is live.
        """
        out = self._by_subject.get(node, ())
        inc = self._by_object.get(node, ())
        removed = self._removed
        if not removed:
            return len(out) + len(inc)
        return (
            sum(1 for idx in out if idx not in removed)
            + sum(1 for idx in inc if idx not in removed)
        )

    def bfs_paths(self, start: str, goal: str, max_hops: int = 4) -> list[list[Triple]]:
        """All shortest triple-paths from ``start`` to ``goal``.

        Used by the multi-hop QA baselines; bounded by ``max_hops`` to keep
        worst-case cost predictable.
        """
        if start == goal:
            return [[]]
        frontier: list[tuple[str, list[Triple]]] = [(start, [])]
        visited = {start}
        for _ in range(max_hops):
            found: list[list[Triple]] = []
            next_frontier: list[tuple[str, list[Triple]]] = []
            next_visited: set[str] = set()
            for node, path in frontier:
                for triple in self.by_subject(node) + self.by_object(node):
                    nxt = triple.obj if triple.subject == node else triple.subject
                    if nxt in visited:
                        continue
                    new_path = path + [triple]
                    if nxt == goal:
                        found.append(new_path)
                    else:
                        next_visited.add(nxt)
                        next_frontier.append((nxt, new_path))
            if found:
                return found
            visited |= next_visited
            frontier = next_frontier
            if not frontier:
                break
        return []

    def subgraph(self, nodes: set[str]) -> "KnowledgeGraph":
        """Induced subgraph on ``nodes`` (triples with both endpoints inside)."""
        sub = KnowledgeGraph(name=f"{self.name}-sub")
        for triple in self.triples():
            if triple.subject in nodes and triple.obj in nodes:
                sub.add_triple(triple)
        for eid, entity in self._entities.items():
            if eid in nodes:
                sub.add_entity(entity)
        return sub

    def connected_component(self, seed: str, max_size: int | None = None) -> set[str]:
        """Entities reachable from ``seed`` ignoring edge direction."""
        component = {seed}
        stack = [seed]
        while stack:
            node = stack.pop()
            for nb in self.neighbors(node):
                if nb not in component:
                    component.add(nb)
                    stack.append(nb)
                    if max_size is not None and len(component) >= max_size:
                        return component
        return component

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Counts used by the Table I reproduction."""
        nodes = {t.subject for t in self.triples()} | {t.obj for t in self.triples()}
        return {
            "entities": len(nodes | set(self._entities)),
            "relations": len(self),
            "predicates": len(self.predicates()),
            "sources": len(self.sources()),
        }
