"""Tests for the Markdown report generator."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import DatasetError
from repro.eval.report import generate_report


RESULTS_DIR = Path(__file__).resolve().parents[2] / "results"


@pytest.fixture()
def results_dir(tmp_path):
    (tmp_path / "table2.json").write_text(json.dumps([
        {"dataset": "books", "config": "C/J", "method": "MV", "f1": 60.0,
         "setup_time_s": 0, "query_time_s": 0, "prompt_time_s": 0,
         "queries": 10},
        {"dataset": "books", "config": "C/J", "method": "MultiRAG",
         "f1": 70.0, "setup_time_s": 0, "query_time_s": 0,
         "prompt_time_s": 0, "queries": 10},
    ]))
    (tmp_path / "table3.json").write_text(json.dumps({
        "books|full": {"f1": 70.0, "pt": 20.0},
        "books|w/o MCC": {"f1": 60.0, "pt": 5.0},
    }))
    (tmp_path / "table4.json").write_text(json.dumps({
        "hotpotqa-like|MultiRAG": {"dataset": "hotpotqa-like",
                                   "method": "MultiRAG",
                                   "precision": 80.0, "recall_at_5": 80.0,
                                   "queries": 60},
    }))
    (tmp_path / "fig7.json").write_text(json.dumps({
        "alphas": [0.0, 0.5, 1.0], "f1": [78.0, 76.8, 75.9],
        "pt": [21.5, 21.5, 21.5],
    }))
    return tmp_path


class TestGenerateReport:
    def test_all_sections_rendered(self, results_dir):
        report = generate_report(results_dir)
        assert "## Table II" in report
        assert "## Table III" in report
        assert "## Table IV" in report
        assert "alpha sweep" in report

    def test_table2_cells(self, results_dir):
        report = generate_report(results_dir)
        assert "| books | C/J | 60.0 | 70.0 |" in report

    def test_table3_rows(self, results_dir):
        report = generate_report(results_dir)
        assert "| books | w/o MCC | 60.0 | 5.0 |" in report

    def test_table4_headers(self, results_dir):
        report = generate_report(results_dir)
        assert "hotpotqa P" in report

    def test_partial_artifacts_ok(self, tmp_path):
        (tmp_path / "fig7.json").write_text(json.dumps({
            "alphas": [0.5], "f1": [76.8], "pt": [21.5],
        }))
        report = generate_report(tmp_path)
        assert "alpha sweep" in report
        assert "Table II" not in report

    def test_committed_results_render(self):
        # The committed artifacts are what `repro report results/` reads;
        # rendering them keeps the report and the dumped shapes in step.
        report = generate_report(RESULTS_DIR)
        for section in ("## Table II", "## Table III", "## Table IV"):
            assert section in report
        table3 = json.loads((RESULTS_DIR / "table3.json").read_text())
        for key, cell in table3.items():
            dataset, label = key.split("|", 1)
            row = f"| {dataset} | {label} | {cell['f1']:.1f} | {cell['pt']:.1f} |"
            assert row in report

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            generate_report(tmp_path)

    def test_cli_report_command(self, results_dir, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "report.md"
        assert main(["report", str(results_dir), "-o", str(out_path)]) == 0
        assert "## Table II" in out_path.read_text()

    def test_cli_report_stdout(self, results_dir, capsys):
        from repro.cli import main

        assert main(["report", str(results_dir)]) == 0
        assert "Benchmark report" in capsys.readouterr().out
