"""Line-graph transformation (Definition 2 of the paper).

Given a knowledge graph ``G``, its line graph ``G'`` has one node per
triple, and an edge between two nodes iff the triples share a common node.
For real KGs the explicit edge set can be quadratic in hub-entity degree
(every pair of triples touching ``"Drama"`` would be connected), so
:class:`LineGraph` stores entity buckets and materializes adjacency lazily;
``edges()`` exists for tests and small graphs and takes an explicit cap.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator

from repro.errors import GraphError
from repro.kg.triple import Triple


class LineGraph:
    """Lazy line graph over a collection of triples."""

    def __init__(self, triples: Iterable[Triple]) -> None:
        self._triples: list[Triple] = list(triples)
        self._index: dict[Triple, int] = {}
        self._buckets: dict[str, list[int]] = defaultdict(list)
        for i, triple in enumerate(self._triples):
            # A triple can appear once; duplicates (same statement+source)
            # are assumed deduplicated upstream by the KnowledgeGraph.
            self._index.setdefault(triple, i)
            self._buckets[triple.subject].append(i)
            if triple.obj != triple.subject:
                self._buckets[triple.obj].append(i)

    def __len__(self) -> int:
        return len(self._triples)

    @property
    def nodes(self) -> list[Triple]:
        return list(self._triples)

    def contains(self, triple: Triple) -> bool:
        return triple in self._index

    def neighbors(self, triple: Triple) -> list[Triple]:
        """All triples sharing an endpoint with ``triple`` (Definition 2)."""
        idx = self._index.get(triple)
        if idx is None:
            return []
        neighbor_ids: set[int] = set()
        endpoints = (
            (triple.subject,) if triple.obj == triple.subject
            else (triple.subject, triple.obj)
        )
        for endpoint in endpoints:
            neighbor_ids.update(self._buckets.get(endpoint, ()))
        neighbor_ids.discard(idx)
        return [self._triples[i] for i in sorted(neighbor_ids)]

    def degree(self, triple: Triple) -> int:
        return len(self.neighbors(triple))

    def edges(self, max_edges: int = 100_000) -> Iterator[tuple[Triple, Triple]]:
        """Iterate explicit line-graph edges (i < j), capped at ``max_edges``.

        Raises:
            GraphError: when the edge count would exceed ``max_edges`` —
            the caller should be using lazy adjacency instead.
        """
        emitted = 0
        seen: set[tuple[int, int]] = set()
        for bucket in self._buckets.values():
            for a_pos in range(len(bucket)):
                for b_pos in range(a_pos + 1, len(bucket)):
                    i, j = bucket[a_pos], bucket[b_pos]
                    if i == j:
                        continue
                    pair = (min(i, j), max(i, j))
                    if pair in seen:
                        continue
                    seen.add(pair)
                    emitted += 1
                    if emitted > max_edges:
                        raise GraphError(
                            f"line graph exceeds {max_edges} explicit edges; "
                            "use neighbors() instead"
                        )
                    yield (self._triples[pair[0]], self._triples[pair[1]])

    def is_complete(self) -> bool:
        """True iff every pair of nodes is adjacent.

        A homologous group's line subgraph is a complete graph of order
        ``num`` (Fig. 4 of the paper shows the order-4 case).

        Raises:
            GraphError: if the explicit edge list exceeds the safety bound.
        """
        n = len(self._triples)
        if n <= 1:
            return True
        expected = n * (n - 1) // 2
        return sum(1 for _ in self.edges(max_edges=expected + 1)) == expected
