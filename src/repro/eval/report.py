"""Compile benchmark artifacts (``results/*.json``) into a Markdown report.

Every benchmark dumps its raw series to ``results/``; this module renders
them back into the tables of EXPERIMENTS.md so the record can be
regenerated from a fresh run with one command::

    python -m repro report results/ -o EXPERIMENTS.generated.md
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import DatasetError


def _load(directory: Path, name: str) -> object | None:
    path = directory / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _markdown_table(headers: list[str], rows: list[list[object]]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def render_table2(payload: list[dict]) -> str:
    methods: list[str] = []
    by_config: dict[tuple[str, str], dict[str, dict]] = {}
    for row in payload:
        key = (row["dataset"], row["config"])
        by_config.setdefault(key, {})[row["method"]] = row
        if row["method"] not in methods:
            methods.append(row["method"])
    rows = [
        [dataset, config] + [_fmt(cells[m]["f1"]) for m in methods]
        for (dataset, config), cells in by_config.items()
    ]
    return "## Table II — F1 (%)\n\n" + _markdown_table(
        ["dataset", "config"] + methods, rows
    )


def render_table3(payload: dict[str, dict]) -> str:
    # QT is wall-clock, so the benchmark prints it but does not dump it;
    # only the deterministic F1 and simulated PT are in the artifact.
    rows = []
    for key, cell in payload.items():
        dataset, label = key.split("|", 1)
        rows.append([dataset, label, _fmt(cell["f1"]), _fmt(cell["pt"])])
    return "## Table III — ablations\n\n" + _markdown_table(
        ["dataset", "ablation", "F1/%", "PT/s"], rows
    )


def render_table4(payload: dict[str, dict]) -> str:
    datasets: list[str] = []
    methods: list[str] = []
    cells: dict[tuple[str, str], dict] = {}
    for key, row in payload.items():
        dataset, method = key.split("|", 1)
        cells[(dataset, method)] = row
        if dataset not in datasets:
            datasets.append(dataset)
        if method not in methods:
            methods.append(method)
    headers = ["method"] + [
        f"{d.split('-')[0]} {metric}" for d in datasets for metric in ("P", "R@5")
    ]
    rows = []
    for method in methods:
        row: list[object] = [method]
        for dataset in datasets:
            cell = cells[(dataset, method)]
            row += [_fmt(cell["precision"]), _fmt(cell["recall_at_5"])]
        rows.append(row)
    return "## Table IV — multi-hop QA\n\n" + _markdown_table(headers, rows)


def render_fig(name: str, payload: dict) -> str:
    lines = [f"## {name}", ""]
    for series, ys in payload.items():
        if isinstance(ys, dict):
            for sub, values in ys.items():
                rendered = ", ".join(_fmt(v) for v in values)
                lines.append(f"* {series} {sub}: {rendered}")
        elif isinstance(ys, list):
            rendered = ", ".join(_fmt(v) for v in ys)
            lines.append(f"* {series}: {rendered}")
        else:
            lines.append(f"* {series}: {_fmt(ys)}")
    return "\n".join(lines)


def generate_report(results_dir: str | Path) -> str:
    """Render every known artifact under ``results_dir`` to Markdown.

    Raises:
        DatasetError: when the directory holds none of the known
            artifacts (nothing has been benchmarked yet).
    """
    directory = Path(results_dir)
    sections: list[str] = ["# Benchmark report (generated)"]

    table2 = _load(directory, "table2")
    if table2:
        sections.append(render_table2(table2))
    table3 = _load(directory, "table3")
    if table3:
        sections.append(render_table3(table3))
    table4 = _load(directory, "table4")
    if table4:
        sections.append(render_table4(table4))
    for fig, title in (("fig5", "Fig. 5 — robustness"),
                       ("fig6", "Fig. 6 — per-source corruption"),
                       ("fig7", "Fig. 7 — alpha sweep")):
        payload = _load(directory, fig)
        if payload:
            sections.append(render_fig(title, payload))

    if len(sections) == 1:
        raise DatasetError(
            f"no benchmark artifacts under {directory}; run "
            "`pytest benchmarks/ --benchmark-only` first"
        )
    return "\n\n".join(sections) + "\n"
