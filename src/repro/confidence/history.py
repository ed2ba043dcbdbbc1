"""Historical source-credibility store (feeds Eq. 11).

Tracks, per data source, how many entities it has supplied across all
historical queries (``H``) and how often those matched the accepted
answers (``Pr^h(D)``).  The store starts every source at the paper's
initialization — 50 historical entities at neutral 0.5 credibility — and
is updated incrementally after each answered query, following the
incremental-estimation idea the paper borrows from FusionQuery.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class SourceHistory:
    """Running tally for one source."""

    entities: int
    correct: float

    @property
    def credibility(self) -> float:
        """``Pr^h(D)``: fraction of historical claims that were accepted."""
        if self.entities <= 0:
            return 0.5
        return self.correct / self.entities


@dataclass(slots=True)
class HistoryStore:
    """Per-source historical credibility with neutral priors."""

    #: the paper initializes every source with 50 historical entities
    #: (§IV-A(c)); ``H`` of Eq. 11 starts here.
    init_entities: int = 50
    init_credibility: float = 0.5
    _sources: dict[str, SourceHistory] = field(default_factory=dict)

    def _get(self, source_id: str) -> SourceHistory:
        history = self._sources.get(source_id)
        if history is None:
            history = SourceHistory(
                entities=self.init_entities,
                correct=self.init_entities * self.init_credibility,
            )
            self._sources[source_id] = history  # repro-lint: ignore[CONC001] — feedback writes only run with update_history=True, which forces the exec engine to serialize
        return history

    def historical_entities(self, source_id: str) -> int:
        """``H`` of Eq. 11 for ``source_id`` (reads do not create entries)."""
        history = self._sources.get(source_id)
        return history.entities if history else self.init_entities

    def credibility(self, source_id: str) -> float:
        """``Pr^h(D)`` of Eq. 11 for ``source_id`` (reads do not create
        entries)."""
        history = self._sources.get(source_id)
        return history.credibility if history else self.init_credibility

    def update(self, source_id: str, accepted: bool, weight: float = 1.0) -> None:
        """Record one adjudicated claim from ``source_id``.

        ``accepted`` means the claim agreed with the answer the pipeline
        ultimately trusted (consensus feedback — ground truth is never
        consulted, so the store stays fair in evaluations).
        """
        history = self._get(source_id)
        history.entities += 1  # repro-lint: ignore[CONC001] — feedback writes only run with update_history=True, which forces the exec engine to serialize
        if accepted:
            history.correct += weight  # repro-lint: ignore[CONC001] — same serialized consensus-feedback path as above

    def seed(self, source_id: str, correct: float, total: float) -> None:
        """Bulk-load calibration counts gathered at construction time.

        Used by :func:`~repro.confidence.calibration.calibrate_history` to
        fold knowledge-construction consistency checks (Definition 5's
        "rapid consistency checks and conflict feedback") into the
        historical record before the first query arrives.
        """
        if total < 0 or correct < 0 or correct > total:
            raise ValueError("need 0 <= correct <= total")
        history = self._get(source_id)
        history.entities += total
        history.correct += correct

    def export_state(self) -> dict[str, object]:
        """Raw per-source tallies for snapshot serialization.

        Counts are exported verbatim (``entities`` can be a float after
        :meth:`seed`) and in dict insertion order, so a restored store is
        indistinguishable from the original.
        """
        return {
            "init_entities": self.init_entities,
            "init_credibility": self.init_credibility,
            "sources": {
                sid: [h.entities, h.correct] for sid, h in self._sources.items()
            },
        }

    def restore_state(self, state: dict[str, object]) -> "HistoryStore":
        """Inverse of :meth:`export_state`."""
        self.init_entities = state["init_entities"]  # type: ignore[assignment]
        self.init_credibility = float(state["init_credibility"])  # type: ignore[arg-type]
        self._sources = {
            sid: SourceHistory(entities=counts[0], correct=counts[1])
            for sid, counts in state["sources"].items()  # type: ignore[union-attr]
        }
        return self

    def snapshot(self) -> dict[str, float]:
        """Current credibility of every tracked source (for reporting)."""
        return {sid: h.credibility for sid, h in sorted(self._sources.items())}

    def reset(self) -> None:
        self._sources.clear()
