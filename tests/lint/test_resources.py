"""Resource rules (RES001–RES004): violating/clean fixture pairs per
rule, plus the symbolic :class:`Bound` algebra and the
``loop-bound[...]`` annotation grammar.

Each fixture is a tiny multi-module program handed to
:func:`repro.lint.lint_sources`.  The ``repro/llm/base.py`` stub
carries the metered-client seam (an ``LLMClient`` with the
``complete`` API over a raw ``_generate`` transport)
and the ``repro/core/pipeline.py`` stub carries the ``MultiRAG.run``
entry point — so the interprocedural budget analysis engages exactly
as it does over the real tree.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_sources
from repro.lint.engine import load_module
from repro.lint.flow.program import build_program
from repro.lint.flow.resources import (
    Bound,
    attr_int_bound,
    bound_from_jsonable,
    compute_entry_budgets,
    compute_entry_points,
    llm_bounds_payload,
    llm_call_report,
    parse_bound_expr,
)

LLM_BASE = (
    "class LLMClient:\n"
    "    def complete(self, prompt, stage):\n"
    "        return self._generate(prompt)\n"
    "\n"
    "    def extract_entities(self, text):\n"
    "        return self.complete(text, Stage.NER)\n"
    "\n"
    "    def _generate(self, prompt):\n"
    "        return prompt\n"
)

PIPELINE = (
    "class MultiRAG:\n"
    "    top_k = 5\n"
    "\n"
    "    def __init__(self, llm):\n"
    "        self.llm = llm\n"
    "\n"
    "    def run(self, query):\n"
    "        return self.llm.complete(query, Stage.OTHER)\n"
)


def base_files(pipeline: str = PIPELINE) -> dict[str, str]:
    return {
        "repro/llm/base.py": LLM_BASE,
        "repro/core/pipeline.py": pipeline,
    }


def res_ids(files: dict[str, str], select: set[str]) -> list[str]:
    return [f.rule_id for f in lint_sources(files, select=select).findings]


def res_findings(files: dict[str, str], select: set[str]):
    return lint_sources(files, select=select).findings


def program_of(files: dict[str, str]):
    modules = []
    for display in sorted(files):
        loaded = load_module(Path(display), display, source=files[display])
        assert not hasattr(loaded, "rule_id"), loaded
        modules.append(loaded)
    return build_program(modules)


# ----------------------------------------------------------------------
# the Bound algebra
# ----------------------------------------------------------------------
class TestBound:
    def test_const_and_symbol_arithmetic(self):
        b = Bound.const(2).mul(Bound.symbol("S")).add(Bound.const(3))
        assert b.expr() == "2*S + 3"
        assert b.evaluate({"S": 4}) == 11

    def test_loop_nesting_multiplies(self):
        inner = Bound.symbol("C").add(Bound.const(1))
        nested = Bound.symbol("H").mul(inner)
        assert nested.expr() == "C*H + H"
        assert nested.evaluate({"H": 2, "C": 3}) == 8

    def test_unbounded_is_absorbing(self):
        u = Bound.unbounded()
        assert u.is_unbounded
        assert Bound.const(5).add(u).is_unbounded
        assert Bound.symbol("S").mul(u).is_unbounded
        assert u.evaluate({"S": 1}) is None
        assert u.expr() == "unbounded"

    def test_zero_terms_canonicalized(self):
        assert Bound.const(0).expr() == "0"
        assert Bound.const(0).add(Bound.const(0)).terms == ()

    def test_jsonable_roundtrip(self):
        for bound in (
            Bound.const(0),
            Bound.const(7),
            Bound.symbol("S").mul(Bound.symbol("H")).add(Bound.const(2)),
            Bound.unbounded(),
        ):
            assert bound_from_jsonable(bound.to_jsonable()) == bound

    def test_expr_is_deterministic(self):
        a = Bound.symbol("S").add(Bound.symbol("C")).add(Bound.const(1))
        b = Bound.const(1).add(Bound.symbol("C")).add(Bound.symbol("S"))
        assert a == b
        assert a.expr() == b.expr() == "C + S + 1"


# ----------------------------------------------------------------------
# loop-bound annotation grammar
# ----------------------------------------------------------------------
class TestParseBoundExpr:
    def table(self, extra: str = ""):
        files = base_files(PIPELINE + extra)
        return program_of(files).symtab

    def test_integer_symbol_product(self):
        table = self.table()
        assert parse_bound_expr("3", table, None).expr() == "3"
        assert parse_bound_expr("H", table, None).expr() == "H"
        assert parse_bound_expr("2*S", table, None).expr() == "2*S"
        assert parse_bound_expr("2 * S * H", table, None).expr() == "2*H*S"

    def test_self_attr_resolves_class_default(self):
        table = self.table()
        bound = parse_bound_expr(
            "self.top_k", table, "repro.core.pipeline.MultiRAG"
        )
        assert bound.expr() == "5"

    def test_unknown_symbol_and_junk_rejected(self):
        table = self.table()
        assert parse_bound_expr("Q", table, None) is None
        assert parse_bound_expr("h", table, None) is None
        assert parse_bound_expr("S+1", table, None) is None
        assert parse_bound_expr("", table, None) is None
        assert parse_bound_expr("self.missing", table, None) is None

    def test_attr_bound_maximised_over_subclasses(self):
        extra = (
            "\n\nclass WideRAG(MultiRAG):\n"
            "    top_k = 9\n"
        )
        table = self.table(extra)
        assert attr_int_bound(
            table, "repro.core.pipeline.MultiRAG", "top_k"
        ) == 9

    def test_attr_bound_none_when_a_subclass_is_unresolvable(self):
        extra = (
            "\n\nclass DynamicRAG(MultiRAG):\n"
            "    def __init__(self, llm, k):\n"
            "        super().__init__(llm)\n"
            "        self.top_k = k\n"
        )
        table = self.table(extra)
        # DynamicRAG.top_k is runtime-chosen, but the class-level default
        # on the base still resolves through the MRO.
        assert attr_int_bound(
            table, "repro.core.pipeline.MultiRAG", "top_k"
        ) == 5


# ----------------------------------------------------------------------
# RES001 — raw transport above the meter seam
# ----------------------------------------------------------------------
class TestRES001:
    def test_raw_transport_on_query_path_is_flagged(self):
        files = base_files(PIPELINE.replace(
            "        return self.llm.complete(query, Stage.OTHER)",
            "        return self.llm._generate(query)",
        ))
        findings = res_findings(files, {"RES001"})
        assert [f.rule_id for f in findings] == ["RES001"]
        assert "._generate()" in findings[0].message
        assert findings[0].path == "repro/core/pipeline.py"

    def test_metered_api_is_clean(self):
        assert res_ids(base_files(), {"RES001"}) == []

    def test_wrapper_class_internals_are_exempt(self):
        # An LLMClient subclass forwarding to its inner transport is the
        # seam itself, not a bypass of it.
        files = base_files()
        files["repro/llm/wrap.py"] = (
            "from repro.llm.base import LLMClient\n"
            "\n"
            "\n"
            "class Wrapper(LLMClient):\n"
            "    def _generate(self, prompt):\n"
            "        return self.inner._generate(prompt)\n"
        )
        assert res_ids(files, {"RES001"}) == []


# ----------------------------------------------------------------------
# RES002 — LLM call under an unresolvable loop bound
# ----------------------------------------------------------------------
UNBOUNDED_LOOP = (
    "class MultiRAG:\n"
    "    def __init__(self, llm):\n"
    "        self.llm = llm\n"
    "\n"
    "    def expand(self, query):\n"
    "        return [query]\n"
    "\n"
    "    def run(self, query):\n"
    "        out = []\n"
    "        for chunk in self.expand(query):\n"
    "            out.append(self.llm.complete(chunk, Stage.OTHER))\n"
    "        return out\n"
)


class TestRES002:
    def test_unresolvable_loop_is_flagged_at_the_loop(self):
        files = base_files(UNBOUNDED_LOOP)
        findings = res_findings(files, {"RES002"})
        assert [f.rule_id for f in findings] == ["RES002"]
        assert findings[0].path == "repro/core/pipeline.py"
        assert "loop-bound" in findings[0].message
        # anchored at the `for chunk in ...` line
        assert findings[0].line == UNBOUNDED_LOOP.splitlines().index(
            "        for chunk in self.expand(query):"
        ) + 1

    def test_annotation_certifies_the_bound(self):
        files = base_files(UNBOUNDED_LOOP.replace(
            "        for chunk in self.expand(query):",
            "        for chunk in self.expand(query):"
            "  # repro-lint: loop-bound[H] — one probe per hop",
        ))
        assert res_ids(files, {"RES002"}) == []
        budgets = {
            b.entry.qualname: b for b in
            compute_entry_budgets(program_of(files))
        }
        run = budgets["repro.core.pipeline.MultiRAG.run"]
        assert run.bound.expr() == "H"

    def test_range_loop_resolves_without_annotation(self):
        files = base_files(UNBOUNDED_LOOP.replace(
            "        for chunk in self.expand(query):",
            "        for chunk in range(3):",
        ))
        assert res_ids(files, {"RES002"}) == []
        budgets = {
            b.entry.qualname: b for b in
            compute_entry_budgets(program_of(files))
        }
        assert budgets["repro.core.pipeline.MultiRAG.run"].bound.expr() == "3"

    def test_recursion_is_flagged_as_unbounded(self):
        files = base_files(
            "class MultiRAG:\n"
            "    def __init__(self, llm):\n"
            "        self.llm = llm\n"
            "\n"
            "    def run(self, query):\n"
            "        self.llm.complete(query, Stage.OTHER)\n"
            "        return self.run(query)\n"
        )
        findings = res_findings(files, {"RES002"})
        assert findings, "LLM-relevant recursion must not certify a bound"
        assert all(f.rule_id == "RES002" for f in findings)


# ----------------------------------------------------------------------
# RES003 — unbounded retry/backoff
# ----------------------------------------------------------------------
class TestRES003:
    def test_retry_forever_is_flagged(self):
        files = base_files(
            "class MultiRAG:\n"
            "    def __init__(self, llm):\n"
            "        self.llm = llm\n"
            "\n"
            "    def run(self, query):\n"
            "        while True:\n"
            "            try:\n"
            "                return self.llm.complete(query, Stage.OTHER)\n"
            "            except Exception:\n"
            "                continue\n"
        )
        findings = res_findings(files, {"RES003"})
        assert [f.rule_id for f in findings] == ["RES003"]
        assert "attempt cap" in findings[0].message

    def test_capped_retry_is_clean(self):
        files = base_files(
            "class MultiRAG:\n"
            "    def __init__(self, llm):\n"
            "        self.llm = llm\n"
            "\n"
            "    def run(self, query):\n"
            "        for attempt in range(3):\n"
            "            try:\n"
            "                return self.llm.complete(query, Stage.OTHER)\n"
            "            except Exception:\n"
            "                continue\n"
            "        return None\n"
        )
        assert res_ids(files, {"RES003"}) == []

    def test_uncapped_backoff_sleep_is_flagged(self):
        files = base_files(
            "import time\n"
            "\n"
            "\n"
            "class MultiRAG:\n"
            "    def __init__(self, llm):\n"
            "        self.llm = llm\n"
            "\n"
            "    def run(self, query):\n"
            "        backoff = 0.1\n"
            "        while not query:\n"
            "            time.sleep(backoff)\n"
            "            backoff = backoff * 2\n"
            "        return query\n"
        )
        findings = res_findings(files, {"RES003"})
        assert [f.rule_id for f in findings] == ["RES003"]
        assert "non-constant duration" in findings[0].message

    def test_constant_sleep_is_clean(self):
        files = base_files(
            "import time\n"
            "\n"
            "\n"
            "class MultiRAG:\n"
            "    def __init__(self, llm):\n"
            "        self.llm = llm\n"
            "\n"
            "    def run(self, query):\n"
            "        while not query:\n"
            "            time.sleep(0.1)\n"
            "        return query\n"
        )
        assert res_ids(files, {"RES003"}) == []


# ----------------------------------------------------------------------
# RES004 — query-path growth without an eviction seam
# ----------------------------------------------------------------------
GROWING_PIPELINE = (
    "class MultiRAG:\n"
    "    def __init__(self, llm):\n"
    "        self.llm = llm\n"
    "        self.history = []\n"
    "\n"
    "    def run(self, query):\n"
    "        self.history.append(query)\n"
    "        return self.llm.complete(query, Stage.OTHER)\n"
)


class TestRES004:
    def test_growth_without_seam_is_flagged(self):
        findings = res_findings(base_files(GROWING_PIPELINE), {"RES004"})
        assert [f.rule_id for f in findings] == ["RES004"]
        assert "self.history" in findings[0].message
        assert "eviction" in findings[0].message

    def test_eviction_method_in_class_is_a_seam(self):
        files = base_files(GROWING_PIPELINE + (
            "\n"
            "    def reset(self):\n"
            "        self.history.clear()\n"
        ))
        assert res_ids(files, {"RES004"}) == []

    def test_reassignment_outside_init_is_a_seam(self):
        files = base_files(GROWING_PIPELINE + (
            "\n"
            "    def rollover(self):\n"
            "        self.history = []\n"
        ))
        assert res_ids(files, {"RES004"}) == []

    def test_seam_on_an_ancestor_counts(self):
        files = base_files(
            "class Recorder:\n"
            "    def drain(self):\n"
            "        self.history.clear()\n"
            "\n"
            "\n"
            + GROWING_PIPELINE.replace(
                "class MultiRAG:", "class MultiRAG(Recorder):"
            )
        )
        assert res_ids(files, {"RES004"}) == []

    def test_constant_key_subscript_is_bounded(self):
        files = base_files(
            "class MultiRAG:\n"
            "    def __init__(self, llm):\n"
            "        self.llm = llm\n"
            "        self.flags = {}\n"
            "\n"
            "    def run(self, query):\n"
            "        self.flags['last'] = query\n"
            "        return self.llm.complete(query, Stage.OTHER)\n"
        )
        assert res_ids(files, {"RES004"}) == []

    def test_non_constant_subscript_store_is_flagged(self):
        files = base_files(
            "class MultiRAG:\n"
            "    def __init__(self, llm):\n"
            "        self.llm = llm\n"
            "        self.answers = {}\n"
            "\n"
            "    def run(self, query):\n"
            "        self.answers[query] = 1\n"
            "        return self.llm.complete(query, Stage.OTHER)\n"
        )
        findings = res_findings(files, {"RES004"})
        assert [f.rule_id for f in findings] == ["RES004"]
        assert "subscript store" in findings[0].message

    def test_off_query_path_growth_is_clean(self):
        files = base_files(GROWING_PIPELINE.replace(
            "    def run(self, query):\n"
            "        self.history.append(query)\n"
            "        return self.llm.complete(query, Stage.OTHER)\n",
            "    def run(self, query):\n"
            "        return self.llm.complete(query, Stage.OTHER)\n"
            "\n"
            "    def warm(self, queries):\n"
            "        self.history.append(queries)\n",
        ))
        assert res_ids(files, {"RES004"}) == []


# ----------------------------------------------------------------------
# entry points and reports
# ----------------------------------------------------------------------
BASELINES = {
    "repro/baselines/base.py": (
        "def register_fusion(cls):\n"
        "    return cls\n"
        "\n"
        "\n"
        "def register_qa(cls):\n"
        "    return cls\n"
    ),
    "repro/baselines/foo.py": (
        "from repro.baselines.base import register_fusion\n"
        "\n"
        "\n"
        "@register_fusion\n"
        "class Foo:\n"
        "    name = 'Foo'\n"
        "\n"
        "    def __init__(self, llm):\n"
        "        self.llm = llm\n"
        "\n"
        "    def query(self, q):\n"
        "        return self.llm.complete(q, Stage.OTHER)\n"
    ),
    "repro/baselines/bar.py": (
        "from repro.baselines.base import register_qa\n"
        "\n"
        "\n"
        "@register_qa\n"
        "class Bar:\n"
        "    name = 'Bar'\n"
        "\n"
        "    def __init__(self, llm):\n"
        "        self.llm = llm\n"
        "\n"
        "    def answer(self, q):\n"
        "        self.llm.extract_entities(q)\n"
        "        return self.llm.complete(q, Stage.OTHER)\n"
    ),
}


class TestEntryPointsAndReports:
    def files(self) -> dict[str, str]:
        files = base_files()
        files.update(BASELINES)
        return files

    def test_registered_baselines_become_entries(self):
        entries = compute_entry_points(program_of(self.files()))
        by_alg = {(e.kind, e.algorithm) for e in entries}
        assert ("pipeline", "multirag") in by_alg
        assert ("fusion", "Foo") in by_alg
        assert ("qa", "Bar") in by_alg

    def test_bounds_payload_covers_every_query_entry(self):
        payload = llm_bounds_payload(program_of(self.files()))
        bounds = payload["bounds"]
        assert set(bounds) == {"multirag", "fusion:Foo", "qa:Bar"}
        assert bounds["multirag"]["bound"] == "1"
        assert bounds["fusion:Foo"]["bound"] == "1"
        assert bounds["qa:Bar"]["bound"] == "2"
        for doc in bounds.values():
            assert bound_from_jsonable(doc["terms"]).expr() == doc["bound"]

    def test_call_report_inventories_stages(self):
        report = llm_call_report(program_of(self.files()))
        assert set(report["symbols"]) == {"S", "H", "C"}
        algorithms = {a["algorithm"]: a for a in report["algorithms"]}
        assert set(algorithms) >= {"multirag", "Foo", "Bar"}
        bar_entries = algorithms["Bar"]["entries"]
        stages = {
            s["stage"]
            for entry in bar_entries
            for s in entry["sites"]
        }
        assert {"ner", "other"} <= stages
