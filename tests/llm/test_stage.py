"""The Stage vocabulary: wire names and string behaviour."""

from __future__ import annotations

from repro.llm.stage import Stage

VALUES = tuple(stage.value for stage in Stage)


class TestEnum:
    def test_values_are_the_wire_names(self):
        assert VALUES == (
            "ner", "triple", "std", "relevance", "authority",
            "synthesis", "parametric", "other",
        )

    def test_str_subclass_serializes_naturally(self):
        assert isinstance(Stage.NER, str)
        assert f"{Stage.SYNTHESIS}" == "synthesis"

    def test_values_are_unique(self):
        assert len(set(VALUES)) == len(VALUES)

