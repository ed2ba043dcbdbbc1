"""The ``repro lint`` CLI gate: exit codes, JSON output, rule listing."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main

SRC = Path(repro.__file__).resolve().parent


@pytest.fixture()
def dirty_dir(tmp_path):
    bad = tmp_path / "pkg"
    bad.mkdir()
    (bad / "unseeded.py").write_text(
        "import random\n\n\ndef roll() -> float:\n    return random.random()\n"
    )
    return bad


class TestExitCodes:
    def test_zero_on_clean_tree(self, capsys):
        assert main(["lint", str(SRC)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_default_target_is_the_package(self, capsys):
        assert main(["lint"]) == 0
        assert "finding(s)" in capsys.readouterr().out

    def test_nonzero_on_violation(self, dirty_dir, capsys):
        assert main(["lint", str(dirty_dir)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_nonzero_on_layering_violation(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "kg"
        pkg.mkdir(parents=True)
        (pkg / "sneaky.py").write_text(
            "from repro.core.pipeline import MultiRAG\n"
        )
        assert main(["lint", str(pkg)]) == 1
        assert "LAY001" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "absent")]) == 2
        assert "no such file" in capsys.readouterr().err


class TestOptions:
    def test_json_format(self, dirty_dir, capsys):
        assert main(["lint", str(dirty_dir), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        rule_ids = {f["rule_id"] for f in payload["findings"]}
        assert "DET001" in rule_ids
        finding = payload["findings"][0]
        assert {"rule_id", "severity", "path", "line", "col",
                "message"} <= finding.keys()

    def test_select(self, dirty_dir, capsys):
        assert main(["lint", str(dirty_dir), "--select", "LAY001"]) == 0
        capsys.readouterr()
        assert main(["lint", str(dirty_dir), "--select", "DET001"]) == 1

    def test_unknown_select_is_usage_error(self, dirty_dir, capsys):
        assert main(["lint", str(dirty_dir), "--select", "NOPE999"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_no_ignore(self, tmp_path, capsys):
        target = tmp_path / "sup.py"
        target.write_text(
            "import random\n"
            "x = random.random()  # repro-lint: ignore[DET001]\n"
        )
        assert main(["lint", str(target)]) == 0
        capsys.readouterr()
        assert main(["lint", str(target), "--no-ignore"]) == 1

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines() if line]
        assert len(listed) >= 10
        assert {"DET001", "LAY001", "ERR001", "API001",
                "DC001", "CONC001"} <= set(listed)
        assert not [rid for rid in listed if rid.startswith(("EXC", "TNT"))]


#: a DC001 dead function in a module that imports ``repro.errors``.
DEAD_LOADER = (
    "from repro.errors import ReproError\n"
    "\n"
    "\n"
    "def load(path: str) -> str:\n"
    '    """Load."""\n'
    "    raise ReproError(path)\n"
    "\n"
    "\n"
    "def dead_helper(path: str) -> str:\n"
    "    raise ReproError(path)\n"
)


@pytest.fixture()
def flow_dirty_dir(tmp_path):
    pkg = tmp_path / "repro"
    (pkg / "kg").mkdir(parents=True)
    (pkg / "__init__.py").write_text("from repro.kg.loader import load\n")
    (pkg / "errors.py").write_text(
        "class ReproError(Exception):\n    pass\n"
    )
    (pkg / "kg" / "loader.py").write_text(DEAD_LOADER)
    return pkg


class TestFlowOptions:
    def test_flow_rules_fire_through_the_cli(self, flow_dirty_dir, capsys):
        assert main(["lint", str(flow_dirty_dir)]) == 1
        assert "DC001" in capsys.readouterr().out

    def test_no_flow_is_an_unknown_argument(self, flow_dirty_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(flow_dirty_dir), "--no-flow"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-flow" in capsys.readouterr().err

    def test_graph_json(self, capsys):
        assert main(["lint", str(SRC / "lint"), "--graph", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "modules" in payload and "calls" in payload
        assert any(m.startswith("repro.lint") for m in payload["modules"])

    def test_graph_dot(self, capsys):
        assert main(["lint", str(SRC / "lint"), "--graph", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "->" in out

    def test_graph_shared(self, capsys):
        assert main(["lint", str(SRC), "--graph", "shared"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "root", "root_present", "worker_view", "run_reachable",
            "module_state_writes",
        }
        assert payload["root"] == "repro.core.pipeline.MultiRAG.run"
        assert payload["root_present"]
        protocol = payload["worker_view"]["repro.core.pipeline.MultiRAG"]
        assert "fusion" in protocol["shared"]
        assert "scorer" in protocol["split"]

    def test_graph_shared_without_root(self, capsys):
        # linting only the lint package: no MultiRAG.run, analysis
        # stands down rather than inventing a worker path
        assert main(["lint", str(SRC / "lint"), "--graph", "shared"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert not payload["root_present"]
        assert payload["run_reachable"] == []

    def test_cache_warm_run_agrees(self, flow_dirty_dir, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["lint", str(flow_dirty_dir), "--format", "json",
                     "--cache-dir", cache]) == 1
        cold = json.loads(capsys.readouterr().out)
        assert main(["lint", str(flow_dirty_dir), "--format", "json",
                     "--cache-dir", cache]) == 1
        warm = json.loads(capsys.readouterr().out)
        assert warm["findings"] == cold["findings"]
        assert warm["cache_hits"] == warm["files_checked"]
        assert warm["flow_cached"] is True
        assert cold["cache_hits"] == 0

    def test_no_cache_never_writes(self, flow_dirty_dir, tmp_path, capsys):
        cache = tmp_path / "cache"
        main(["lint", str(flow_dirty_dir), "--no-cache",
              "--cache-dir", str(cache)])
        capsys.readouterr()
        assert not cache.exists()

    def test_changed_only_quiet_when_nothing_changed(
        self, flow_dirty_dir, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        main(["lint", str(flow_dirty_dir), "--cache-dir", cache])
        capsys.readouterr()
        assert main(["lint", str(flow_dirty_dir), "--cache-dir", cache,
                     "--changed-only"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out
