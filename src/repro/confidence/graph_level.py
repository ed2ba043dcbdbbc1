"""Graph-level confidence (stage 1 of MCC; Eq. 7 of the paper).

The confidence of a homologous line graph is the mean pairwise
mutual-information similarity over its nodes: high when the multi-source
claims about one attribute agree, low when sources conflict.  Groups below
the graph threshold are the ones that need full node-level scrutiny (the
coarse-to-fine ranking analogy of paper §IV-C); groups above it can answer
from their top 1–2 nodes directly.
"""

from __future__ import annotations

from repro.confidence.similarity import similarity
from repro.linegraph.homologous import HomologousGroup


def graph_confidence(group: HomologousGroup) -> float:
    """Mean pairwise similarity ``C(G)`` (Eq. 7) of one homologous group.

    Single-member groups are vacuously self-consistent and score 1.0 (the
    paper routes true singletons to the isolated set before this point; the
    convention only matters for filtered-down groups).
    """
    members = group.members
    n = len(members)
    if n <= 1:
        return 1.0
    total = 0.0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += similarity([members[i].obj], [members[j].obj])
            pairs += 1
    # Eq. 7 sums over ordered pairs and divides by n^2 - n; that equals the
    # unordered-pair mean computed here.
    return total / pairs
