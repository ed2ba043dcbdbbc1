"""Per-rule fixtures: each rule fires on a violating snippet and stays
silent on the idiomatic spelling."""

from __future__ import annotations

import pytest

from repro.lint import SYNTAX_ERROR_ID, Severity, get_rule, lint_source


def ids(source: str, path: str = "repro/kg/mod.py", **kwargs) -> list[str]:
    return [f.rule_id for f in lint_source(source, display_path=path, **kwargs)]


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDET001:
    def test_global_random(self):
        assert "DET001" in ids("import random\nx = random.random()\n")

    def test_aliased_import(self):
        assert "DET001" in ids("import random as rnd\nx = rnd.choice([1])\n")

    def test_from_import(self):
        assert "DET001" in ids("from random import shuffle\nshuffle([1])\n")

    def test_numpy_global(self):
        assert "DET001" in ids("import numpy as np\nx = np.random.rand(3)\n")

    def test_unseeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert "DET001" in ids(src)

    def test_seeded_rng_clean(self):
        src = (
            "import random\n"
            "import numpy as np\n"
            "r = random.Random(7)\n"
            "x = r.random()\n"
            "rng = np.random.default_rng(7)\n"
        )
        assert "DET001" not in ids(src)


class TestDET002:
    def test_wall_clock(self):
        assert "DET002" in ids("import time\nt = time.time()\n")

    def test_perf_counter_clean(self):
        assert "DET002" not in ids("import time\nt = time.perf_counter()\n")


class TestDET003:
    def test_datetime_now(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        assert "DET003" in ids(src)

    def test_module_spelling(self):
        assert "DET003" in ids("import datetime\nd = datetime.date.today()\n")

    def test_explicit_timestamp_clean(self):
        src = (
            "from datetime import datetime\n"
            "d = datetime.fromtimestamp(0.0)\n"
        )
        assert "DET003" not in ids(src)


class TestDET004:
    @pytest.mark.parametrize("snippet", [
        "import os\nx = os.urandom(8)\n",
        "import uuid\nx = uuid.uuid4()\n",
        "import secrets\nx = secrets.token_hex()\n",
    ])
    def test_entropy_sources(self, snippet):
        assert "DET004" in ids(snippet)

    def test_uuid5_clean(self):
        src = "import uuid\nx = uuid.uuid5(uuid.NAMESPACE_DNS, 'a')\n"
        assert "DET004" not in ids(src)


class TestDET005:
    def test_for_over_set_literal(self):
        assert "DET005" in ids("for x in {1, 2}:\n    pass\n")

    def test_list_of_set_comprehension(self):
        assert "DET005" in ids("xs = list({c for c in 'abc'})\n")

    def test_join_over_set(self):
        assert "DET005" in ids("s = ','.join({'a', 'b'})\n")

    def test_sorted_set_clean(self):
        assert "DET005" not in ids("for x in sorted({1, 2}):\n    pass\n")

    def test_membership_clean(self):
        assert "DET005" not in ids("ok = 1 in {1, 2}\n")


class TestDET006:
    def test_builtin_hash(self):
        assert "DET006" in ids("h = hash('key')\n")

    def test_stable_hash_clean(self):
        src = "from repro.util import stable_hash\nh = stable_hash('key')\n"
        assert "DET006" not in ids(src, path="repro/llm/mod.py")


# ----------------------------------------------------------------------
# layering
# ----------------------------------------------------------------------
class TestLAY001:
    def test_upward_edge(self):
        src = "from repro.core.pipeline import MultiRAG\n"
        assert "LAY001" in ids(src, path="repro/kg/mod.py")

    def test_downward_edge_clean(self):
        src = "from repro.kg.graph import KnowledgeGraph\n"
        assert "LAY001" not in ids(src, path="repro/core/mod.py")

    def test_foundation_module_exempt(self):
        src = "from repro.kg.triple import Triple\n"
        assert "LAY001" not in ids(src, path="repro/llm/mod.py")

    def test_llm_may_not_import_obs(self):
        # LLM clients account usage in their meter and emit no telemetry
        src = "from repro.obs.context import NOOP\n"
        assert "LAY001" in ids(src, path="repro/llm/mod.py")

    def test_core_may_not_import_lint(self):
        # the pipeline's runtime validators live in the repro.contracts
        # leaf, so importing the pipeline never loads the analyzer
        src = "from repro.lint import lint_paths\n"
        assert "LAY001" in ids(src, path="repro/core/mod.py")
        src = "from repro.contracts import check_mlg\n"
        assert "LAY001" not in ids(src, path="repro/core/mod.py")

    def test_top_level_package_import(self):
        assert "LAY001" in ids("import repro\n", path="repro/kg/mod.py")

    def test_type_checking_import_exempt(self):
        src = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.core.pipeline import MultiRAG\n"
        )
        assert "LAY001" not in ids(src, path="repro/kg/mod.py")

    def test_unknown_subpackage_flagged(self):
        src = "from repro.kg.graph import KnowledgeGraph\n"
        assert "LAY001" in ids(src, path="repro/newpkg/mod.py")

    def test_outside_repro_tree_skipped(self):
        src = "from repro.core.pipeline import MultiRAG\n"
        assert "LAY001" not in ids(src, path="scripts/tool.py")


class TestLAY002:
    def test_test_import(self):
        src = "from tests.conftest import make_sources\n"
        assert "LAY002" in ids(src, path="repro/kg/mod.py")

    def test_benchmark_import(self):
        assert "LAY002" in ids("import benchmarks.util\n",
                               path="repro/eval/mod.py")


class TestLAY003:
    def test_relative_import(self):
        assert "LAY003" in ids("from . import graph\n",
                               path="repro/kg/mod.py")

    def test_absolute_clean(self):
        assert "LAY003" not in ids("from repro.kg import graph\n",
                                   path="repro/linegraph/mod.py")


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class TestOBS001:
    def test_direct_import(self):
        assert "OBS001" in ids("import logging\n", path="repro/kg/mod.py")

    def test_from_import(self):
        src = "from logging import getLogger\n"
        assert "OBS001" in ids(src, path="repro/core/mod.py")

    def test_submodule_import(self):
        src = "import logging.handlers\n"
        assert "OBS001" in ids(src, path="repro/eval/mod.py")

    def test_obs_log_module_allowlisted(self):
        assert "OBS001" not in ids("import logging\n",
                                   path="repro/obs/log.py")

    def test_get_logger_clean(self):
        src = "from repro.obs.log import get_logger\n"
        assert "OBS001" not in ids(src, path="repro/core/mod.py")

    def test_outside_repro_tree_skipped(self):
        assert "OBS001" not in ids("import logging\n",
                                   path="scripts/tool.py")


# ----------------------------------------------------------------------
# error discipline
# ----------------------------------------------------------------------
class TestERR001:
    def test_bare_except(self):
        src = "try:\n    pass\nexcept:\n    pass\n"
        assert "ERR001" in ids(src)

    def test_typed_except_clean(self):
        src = "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert "ERR001" not in ids(src)


class TestERR002:
    @pytest.mark.parametrize("caught", ["Exception", "BaseException",
                                        "(ValueError, Exception)"])
    def test_broad_except(self, caught):
        src = f"try:\n    pass\nexcept {caught}:\n    pass\n"
        assert "ERR002" in ids(src)

    def test_repro_error_clean(self):
        src = (
            "from repro.errors import ReproError\n"
            "try:\n    pass\nexcept ReproError:\n    pass\n"
        )
        assert "ERR002" not in ids(src)


class TestERR003:
    def test_unsanctioned_builtin(self):
        assert "ERR003" in ids("raise RuntimeError('boom')\n")

    def test_unknown_error_class(self):
        assert "ERR003" in ids("raise FrobnicationError('boom')\n")

    @pytest.mark.parametrize("snippet", [
        "raise ValueError('bad arg')\n",
        "raise TypeError('bad type')\n",
        "raise NotImplementedError\n",
        "from repro.errors import GraphError\nraise GraphError('x')\n",
        "raise\n",  # bare re-raise inside a handler is fine
    ])
    def test_sanctioned_raises_clean(self, snippet):
        assert "ERR003" not in ids(snippet)

    def test_local_subclass_resolved(self):
        src = (
            "from repro.errors import ReproError\n"
            "class BudgetExceededError(ReproError):\n"
            "    pass\n"
            "raise BudgetExceededError('over')\n"
        )
        assert "ERR003" not in ids(src)


# ----------------------------------------------------------------------
# hygiene
# ----------------------------------------------------------------------
class TestAPI001:
    @pytest.mark.parametrize("default", ["[]", "{}", "list()", "dict()",
                                         "set()", "deque()"])
    def test_mutable_default(self, default):
        src = f"def f(x={default}) -> None:\n    pass\n"
        assert "API001" in ids(src)

    def test_none_default_clean(self):
        assert "API001" not in ids("def f(x=None) -> None:\n    pass\n")

    def test_tuple_default_clean(self):
        assert "API001" not in ids("def f(x=()) -> None:\n    pass\n")


class TestAPI002:
    def test_public_unannotated(self):
        assert "API002" in ids("def score(x):\n    return x\n")

    def test_private_exempt(self):
        assert "API002" not in ids("def _score(x):\n    return x\n")

    def test_nested_function_exempt(self):
        src = (
            "def outer() -> int:\n"
            "    def inner(x):\n"
            "        return x\n"
            "    return inner(1)\n"
        )
        assert "API002" not in ids(src)

    def test_annotated_clean(self):
        assert "API002" not in ids("def score(x: int) -> int:\n    return x\n")


class TestAPI003:
    def test_confidence_vs_literal(self):
        assert "API003" in ids("ok = confidence == 0.5\n")

    def test_two_confidence_operands(self):
        assert "API003" in ids("ok = a.confidence != b.threshold\n")

    def test_isclose_clean(self):
        src = "import math\nok = math.isclose(confidence, 0.5)\n"
        assert "API003" not in ids(src)

    def test_int_comparison_clean(self):
        assert "API003" not in ids("ok = count == 3\n")


# ----------------------------------------------------------------------
# engine behaviour
# ----------------------------------------------------------------------
class TestSuppression:
    BAD = "import random\nx = random.random()  # repro-lint: ignore[DET001]\n"

    def test_targeted_ignore(self):
        assert ids(self.BAD) == []

    def test_blanket_ignore(self):
        src = "import random\nx = random.random()  # repro-lint: ignore\n"
        assert ids(src) == []

    def test_wrong_id_does_not_suppress(self):
        src = ("import random\n"
               "x = random.random()  # repro-lint: ignore[DET002]\n")
        assert "DET001" in ids(src)

    def test_no_ignore_reports_anyway(self):
        assert "DET001" in ids(self.BAD, include_suppressed=True)

    def test_skip_file(self):
        src = "# repro-lint: skip-file\nimport random\nx = random.random()\n"
        assert ids(src) == []


class TestEngine:
    def test_syntax_error_reported(self):
        findings = lint_source("def broken(:\n")
        assert [f.rule_id for f in findings] == [SYNTAX_ERROR_ID]
        assert findings[0].severity is Severity.ERROR

    def test_select_restricts_rules(self):
        src = "import random\nx = random.random()\ndef f(x):\n    return x\n"
        assert ids(src, select={"DET001"}) == ["DET001"]

    def test_unknown_select_raises(self):
        with pytest.raises(ValueError, match="unknown rule id"):
            lint_source("x = 1\n", select={"NOPE999"})

    def test_findings_are_line_anchored(self):
        findings = lint_source(
            "import random\nx = 1\ny = random.random()\n",
            display_path="repro/kg/mod.py",
        )
        det = [f for f in findings if f.rule_id == "DET001"]
        assert det[0].line == 3
        assert "repro/kg/mod.py:3" in det[0].format()

    def test_rule_metadata(self):
        rule = get_rule("DET001")
        assert rule.family == "determinism"
        assert rule.severity is Severity.ERROR
        assert rule.description


# ----------------------------------------------------------------------
# performance
# ----------------------------------------------------------------------
class TestPERF001:
    def test_loop_invariant_tokenize_flagged(self):
        src = (
            "from repro.retrieval.tokenize import tokenize\n"
            "def score_all(query, docs):\n"
            "    out = []\n"
            "    for doc in docs:\n"
            "        out.append(len(tokenize(query)))\n"
            "    return out\n"
        )
        assert "PERF001" in ids(src, path="repro/retrieval/mod.py")

    def test_loop_dependent_tokenize_clean(self):
        src = (
            "from repro.retrieval.tokenize import tokenize\n"
            "def index_all(docs):\n"
            "    return [tokenize(doc.text) for doc in docs]\n"
        )
        assert "PERF001" not in ids(src, path="repro/retrieval/mod.py")

    def test_loop_dependent_in_for_statement_clean(self):
        src = (
            "from repro.retrieval.tokenize import tokenize\n"
            "def build(texts):\n"
            "    out = []\n"
            "    for text in texts:\n"
            "        out.append(tokenize(text))\n"
            "    return out\n"
        )
        assert "PERF001" not in ids(src, path="repro/retrieval/mod.py")

    def test_hoisted_tokenize_clean(self):
        src = (
            "from repro.retrieval.tokenize import tokenize\n"
            "def score_all(query, docs):\n"
            "    tokens = tokenize(query)\n"
            "    return [len(tokens) for _ in docs]\n"
        )
        assert "PERF001" not in ids(src, path="repro/retrieval/mod.py")

    def test_nested_loop_inner_variable_clean(self):
        src = (
            "from repro.retrieval.tokenize import tokenize\n"
            "def f(groups):\n"
            "    for group in groups:\n"
            "        for member in group:\n"
            "            tokenize(member)\n"
        )
        assert "PERF001" not in ids(src, path="repro/retrieval/mod.py")

    def test_nested_loop_outer_variable_flagged(self):
        # tokenizing the *outer* loop's value inside the inner loop still
        # repeats work per inner iteration
        src = (
            "from repro.retrieval.tokenize import tokenize\n"
            "def f(queries, docs):\n"
            "    for query in queries:\n"
            "        for doc in docs:\n"
            "            tokenize(query)\n"
        )
        assert "PERF001" in ids(src, path="repro/retrieval/mod.py")

    def test_method_call_flagged(self):
        src = (
            "def f(self, query, docs):\n"
            "    for doc in docs:\n"
            "        self.tokenize(query)\n"
        )
        assert "PERF001" in ids(src, path="repro/retrieval/mod.py")

    def test_nested_function_defers_execution(self):
        src = (
            "from repro.retrieval.tokenize import tokenize\n"
            "def f(query, docs):\n"
            "    for doc in docs:\n"
            "        def thunk():\n"
            "            return tokenize(query)\n"
        )
        assert "PERF001" not in ids(src, path="repro/retrieval/mod.py")

    def test_suppression_comment(self):
        src = (
            "from repro.retrieval.tokenize import tokenize\n"
            "def f(query, docs):\n"
            "    for doc in docs:\n"
            "        tokenize(query)  # repro-lint: ignore[PERF001] — reference baseline\n"
        )
        assert "PERF001" not in ids(src, path="repro/retrieval/mod.py")
