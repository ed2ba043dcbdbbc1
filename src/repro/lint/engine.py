"""The lint engine: file discovery, parsing, suppression, rule dispatch.

Pure stdlib (``ast`` + ``pathlib``) so the gate runs offline with zero
third-party dependencies.  Inline suppression::

    risky_call()  # repro-lint: ignore[DET001]
    another()     # repro-lint: ignore          (all rules, this line)

and a file-level pragma within the first ten lines::

    # repro-lint: skip-file
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.findings import Finding, Severity
from repro.lint.flow.cache import (
    FileEntry,
    FlowEntry,
    LintCache,
    content_sha,
    deserialize_findings,
    program_key,
    rules_fingerprint,
)
from repro.lint.flow.program import Program, build_program
from repro.lint.flow.symbols import imported_module_targets, module_name_of
from repro.lint.registry import FlowRule, ModuleUnderLint, Rule, all_rules

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<ids>[A-Za-z0-9_,\s]+)\])?"
)
_SKIP_FILE_RE = re.compile(r"#\s*repro-lint:\s*skip-file")
_SKIP_FILE_SCAN_LINES = 10

#: pseudo rule id for files Python itself cannot parse.
SYNTAX_ERROR_ID = "SYN001"


@dataclass(slots=True)
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: files whose per-file findings were served from the incremental
    #: cache without re-linting (0 when no cache directory is in use).
    cache_hits: int = 0
    #: True when the whole-program pass was served from the cache.
    flow_cached: bool = False

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))

    def format_text(self) -> str:
        """Human-readable report, one line per finding plus a summary."""
        lines = [finding.format() for finding in self.findings]
        summary = (
            f"{len(self.findings)} finding(s) in {self.files_checked} "
            f"file(s), {self.suppressed} suppressed"
        )
        if self.findings:
            per_rule = ", ".join(
                f"{rule}×{n}" for rule, n in self.counts_by_rule().items()
            )
            summary += f" [{per_rule}]"
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> str:
        """Machine-readable report for ``repro lint --format json``."""
        return json.dumps(
            {
                "files_checked": self.files_checked,
                "suppressed": self.suppressed,
                "ok": self.ok,
                "cache_hits": self.cache_hits,
                "flow_cached": self.flow_cached,
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=2,
        )

    def to_sarif(self) -> str:
        """SARIF 2.1.0 report (``repro lint --format sarif``) so CI can
        upload findings as code-scanning annotations.

        Rule metadata comes from the registry; only rules that actually
        fired (plus the syntax-error pseudo rule) appear in the driver's
        rule table, keeping the document small.
        """
        fired = {f.rule_id for f in self.findings}
        rules_meta: list[dict[str, object]] = []
        rule_index: dict[str, int] = {}
        for rule in all_rules():
            if rule.rule_id not in fired:
                continue
            rule_index[rule.rule_id] = len(rules_meta)
            rules_meta.append({
                "id": rule.rule_id,
                "shortDescription": {"text": rule.description},
                "properties": {
                    "family": rule.family,
                    "version": rule.version,
                },
            })
        for rule_id in sorted(fired - set(rule_index)):
            # SYN001 and anything else without a registered class.
            rule_index[rule_id] = len(rules_meta)
            rules_meta.append({
                "id": rule_id,
                "shortDescription": {"text": "file does not parse"},
            })
        results = [
            {
                "ruleId": f.rule_id,
                "ruleIndex": rule_index[f.rule_id],
                "level": "error" if f.severity is Severity.ERROR
                else "warning",
                "message": {"text": f.message},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col,
                        },
                    },
                }],
            }
            for f in self.findings
        ]
        return json.dumps(
            {
                "$schema": (
                    "https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
                ),
                "version": "2.1.0",
                "runs": [{
                    "tool": {
                        "driver": {
                            "name": "repro-lint",
                            "rules": rules_meta,
                        },
                    },
                    "results": results,
                }],
            },
            indent=2,
        )


def iter_python_files(paths: Sequence[Path | str]) -> list[Path]:
    """Every ``.py`` file under ``paths`` (files kept, dirs walked), sorted.

    Raises:
        ValueError: when a path does not exist.
    """
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(
                p for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        elif path.is_file():
            out.append(path)
        else:
            raise ValueError(f"no such file or directory: {path}")
    return sorted(set(out))


def _package_parts(path: Path) -> tuple[str, ...]:
    """Dotted module path rooted at the last ``repro`` directory.

    ``.../src/repro/kg/graph.py`` → ``("repro", "kg", "graph")``; paths
    outside a ``repro`` tree get ``()`` and skip the layering rules.
    """
    parts = list(path.parts)
    stem = path.stem
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            middle = tuple(parts[i + 1:-1])
            return ("repro", *middle, stem)
    return ()


def load_module(
    path: Path,
    display_path: str | None = None,
    source: str | None = None,
) -> ModuleUnderLint | Finding:
    """Parse one file; a syntax error becomes a SYN001 finding.

    ``source`` skips the filesystem read when the caller already holds
    the file's content (the engine hashes every file before parsing).
    """
    if source is None:
        source = Path(path).read_text(encoding="utf-8")
    display = display_path if display_path is not None else str(path)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            rule_id=SYNTAX_ERROR_ID,
            severity=Severity.ERROR,
            path=display,
            line=exc.lineno or 1,
            col=(exc.offset or 1),
            message=f"file does not parse: {exc.msg}",
        )
    return ModuleUnderLint(
        path=Path(path),
        display_path=display,
        source=source,
        tree=tree,
        lines=source.splitlines(),
        package_parts=_package_parts(Path(path)),
    )


def _is_suppressed(finding: Finding, module: ModuleUnderLint) -> bool:
    return _match_suppression(finding, module.lines)


def _skip_file(module: ModuleUnderLint) -> bool:
    return any(
        _SKIP_FILE_RE.search(line)
        for line in module.lines[:_SKIP_FILE_SCAN_LINES]
    )


def lint_module(
    module: ModuleUnderLint,
    rules: Iterable[Rule] | None = None,
    include_suppressed: bool = False,
) -> tuple[list[Finding], int]:
    """Run ``rules`` over one parsed module → (findings, n_suppressed)."""
    if _skip_file(module):
        return [], 0
    active = list(rules) if rules is not None else all_rules()
    kept: list[Finding] = []
    suppressed = 0
    for rule in active:
        if not rule.applies_to(module):
            continue
        for finding in rule.check(module):
            if not include_suppressed and _is_suppressed(finding, module):
                suppressed += 1
                continue
            kept.append(finding)
    return kept, suppressed


def _run_flow_pass(
    flow_rules: Sequence[FlowRule],
    modules: list[ModuleUnderLint],
    lines_map: dict[str, list[str]],
    module_by_display: dict[str, str],
    include_suppressed: bool,
) -> tuple[list[Finding], int]:
    """Build the program and run every flow rule over it →
    (findings, n_suppressed).

    Findings anchored in ``# repro-lint: skip-file`` files are dropped;
    inline suppressions apply exactly as they do for per-file rules.
    """
    program = build_program(modules)
    skip_displays = {
        display for display, lines in lines_map.items()
        if any(
            _SKIP_FILE_RE.search(line)
            for line in lines[:_SKIP_FILE_SCAN_LINES]
        )
    }
    kept: list[Finding] = []
    suppressed = 0
    for rule in flow_rules:
        for finding in rule.check_program(program):
            lines = lines_map.get(finding.path)
            if lines is None or finding.path not in module_by_display:
                continue  # anchored outside this run's file set
            if finding.path in skip_displays:
                continue
            if not include_suppressed and _match_suppression(finding, lines):
                suppressed += 1
                continue
            kept.append(finding)
    return kept, suppressed


def _match_suppression(finding: Finding, lines: list[str]) -> bool:
    if not (1 <= finding.line <= len(lines)):
        return False
    match = _SUPPRESS_RE.search(lines[finding.line - 1])
    if not match:
        return False
    ids = match.group("ids")
    if ids is None:
        return True
    wanted = {part.strip() for part in ids.split(",") if part.strip()}
    return finding.rule_id in wanted


def _load_for_flow(
    path: str,
    source: str,
    sha: str,
    cache: LintCache | None,
) -> ModuleUnderLint | None:
    """Materialise a ModuleUnderLint for the flow pass, preferring the
    cached AST pickle over re-parsing."""
    if cache is not None:
        tree = cache.load_ast(sha)
        if tree is not None:
            return ModuleUnderLint(
                path=Path(path),
                display_path=path,
                source=source,
                tree=tree,
                lines=source.splitlines(),
                package_parts=_package_parts(Path(path)),
            )
    loaded = load_module(Path(path), source=source)
    return loaded if isinstance(loaded, ModuleUnderLint) else None


def lint_paths(
    paths: Sequence[Path | str],
    select: Iterable[str] | None = None,
    include_suppressed: bool = False,
    *,
    cache_dir: Path | str | None = None,
    changed_only: bool = False,
) -> LintReport:
    """Lint every Python file under ``paths``.

    ``select`` restricts the run to the given rule ids (e.g.
    ``{"DET001", "LAY001"}``); None runs everything, the whole-program
    pass (reachability, concurrency) included.
    ``cache_dir`` enables the incremental cache: per-file findings are
    keyed by content hash, the whole-program pass's findings by the hash
    of every module, and parsed ASTs are pickled for cheap partial
    rebuilds.  The cache only engages for full runs (no ``select``, no
    ``include_suppressed``).
    ``changed_only`` filters the report to files that changed since the
    cached run plus — for flow findings — everything that transitively
    imports them.
    """
    selected = _select_rules(select)
    active: list[Rule] = selected if selected is not None else all_rules()
    file_rules = [r for r in active if not isinstance(r, FlowRule)]
    flow_rules = [r for r in active if isinstance(r, FlowRule)]

    cache: LintCache | None = None
    if cache_dir is not None and select is None and not include_suppressed:
        # the fingerprint carries each rule's analysis version, so a
        # rule-logic bump (or a changed enabled set) can never serve
        # findings computed under the old semantics.
        ids = sorted(f"{r.rule_id}@{r.version}" for r in active)
        cache = LintCache(Path(cache_dir), rules_fingerprint(ids))

    report = LintReport()
    sources: dict[str, str] = {}
    lines_map: dict[str, list[str]] = {}
    shas: dict[str, str] = {}
    #: display path → (dotted module name or "", raw import targets)
    meta: dict[str, tuple[str, list[str]]] = {}
    parsed: dict[str, ModuleUnderLint] = {}
    per_file_kept: dict[str, list[Finding]] = {}
    per_file_suppressed: dict[str, int] = {}

    for path in iter_python_files(paths):
        display = str(path)
        source = path.read_text(encoding="utf-8")
        sha = content_sha(source)
        sources[display] = source
        lines_map[display] = source.splitlines()
        shas[display] = sha
        entry = cache.file_hit(display, sha) if cache is not None else None
        if entry is not None:
            report.cache_hits += 1
            per_file_kept[display] = deserialize_findings(entry.findings)
            per_file_suppressed[display] = entry.suppressed
            meta[display] = (entry.module, entry.imports)
            continue
        loaded = load_module(path, source=source)
        if isinstance(loaded, Finding):
            per_file_kept[display] = [loaded]
            per_file_suppressed[display] = 0
            meta[display] = ("", [])
            continue
        parsed[display] = loaded
        meta[display] = (
            module_name_of(loaded),
            list(imported_module_targets(loaded.tree)),
        )
        if cache is not None:
            cache.save_ast(sha, loaded.tree)
        findings, suppressed = lint_module(
            loaded, file_rules, include_suppressed=include_suppressed
        )
        per_file_kept[display] = findings
        per_file_suppressed[display] = suppressed

    report.files_checked = len(shas)
    changed_displays = (
        cache.changed_files(shas) if cache is not None else set(shas)
    )

    # ------------------------------------------------------------------
    # whole-program pass
    # ------------------------------------------------------------------
    module_by_display = {
        display: name
        for display, (name, _) in sorted(meta.items())
        if name
    }
    flow_kept: list[Finding] = []
    flow_suppressed = 0
    flow_entry: FlowEntry | None = None
    if flow_rules and module_by_display:
        key = program_key({
            name: shas[display] for display, name in module_by_display.items()
        })
        flow_entry = cache.flow_hit(key) if cache is not None else None
        if flow_entry is not None:
            report.flow_cached = True
            flow_kept = deserialize_findings(flow_entry.findings)
            flow_suppressed = flow_entry.suppressed
        else:
            modules = []
            for display in sorted(module_by_display):
                unit = parsed.get(display)
                if unit is None:
                    unit = _load_for_flow(
                        display, sources[display], shas[display], cache
                    )
                if unit is not None:
                    modules.append(unit)
            flow_kept, flow_suppressed = _run_flow_pass(
                flow_rules, modules, lines_map, module_by_display,
                include_suppressed,
            )
            flow_entry = FlowEntry(
                key=key,
                findings=[f.to_dict() for f in flow_kept],
                suppressed=flow_suppressed,
            )

    # ------------------------------------------------------------------
    # report assembly (+ --changed-only filtering)
    # ------------------------------------------------------------------
    keep_per_file = per_file_kept
    keep_flow = flow_kept
    if changed_only:
        module_imports = {
            name: meta[display][1]
            for display, name in module_by_display.items()
        }
        affected = _dependents_of_changed(
            changed_displays, module_by_display, module_imports
        )
        keep_per_file = {
            display: findings
            for display, findings in per_file_kept.items()
            if display in changed_displays
        }
        keep_flow = [
            finding for finding in flow_kept
            if finding.path in changed_displays
            or module_by_display.get(finding.path) in affected
        ]

    for display in sorted(keep_per_file):
        report.findings.extend(keep_per_file[display])
    report.findings.extend(keep_flow)
    report.suppressed = sum(per_file_suppressed.values()) + flow_suppressed
    report.findings.sort(key=Finding.sort_key)

    if cache is not None:
        files_out = {
            display: FileEntry(
                sha=shas[display],
                module=meta[display][0],
                imports=meta[display][1],
                findings=[f.to_dict() for f in per_file_kept[display]],
                suppressed=per_file_suppressed.get(display, 0),
            )
            for display in sorted(shas)
        }
        cache.replace(files_out, flow_entry)
    return report


def _dependents_of_changed(
    changed_displays: set[str],
    module_by_display: dict[str, str],
    module_imports: dict[str, list[str]],
) -> set[str]:
    """Changed modules plus everything that transitively imports them."""
    changed_modules = {
        module_by_display[display]
        for display in changed_displays
        if display in module_by_display
    }
    known = set(module_by_display.values())
    reverse: dict[str, set[str]] = {}
    for module in sorted(known):
        for target in module_imports.get(module, []):
            parts = target.split(".")
            for cut in range(1, len(parts) + 1):
                prefix = ".".join(parts[:cut])
                if prefix in known and prefix != module:
                    reverse.setdefault(prefix, set()).add(module)
    seen: set[str] = set()
    stack = sorted(changed_modules)
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(sorted(reverse.get(current, ())))
    return seen


def lint_sources(
    files: dict[str, str],
    select: Iterable[str] | None = None,
    include_suppressed: bool = False,
) -> LintReport:
    """Lint a set of in-memory sources as one program (test hook).

    ``files`` maps display paths (used to derive module names, e.g.
    ``"repro/kg/bad.py"``) to source text.  Runs the per-file rules on
    each file and the whole-program rules over the set as a unit — the
    multi-module analogue of :func:`lint_source`.
    """
    selected = _select_rules(select)
    active: list[Rule] = selected if selected is not None else all_rules()
    file_rules = [r for r in active if not isinstance(r, FlowRule)]
    flow_rules = [r for r in active if isinstance(r, FlowRule)]

    report = LintReport()
    lines_map: dict[str, list[str]] = {}
    module_by_display: dict[str, str] = {}
    modules: list[ModuleUnderLint] = []
    for display in sorted(files):
        source = files[display]
        lines_map[display] = source.splitlines()
        loaded = load_module(Path(display), display, source=source)
        report.files_checked += 1
        if isinstance(loaded, Finding):
            report.findings.append(loaded)
            continue
        name = module_name_of(loaded)
        if name:
            module_by_display[display] = name
            modules.append(loaded)
        findings, suppressed = lint_module(
            loaded, file_rules, include_suppressed=include_suppressed
        )
        report.findings.extend(findings)
        report.suppressed += suppressed
    if flow_rules and modules:
        kept, suppressed = _run_flow_pass(
            flow_rules, modules, lines_map, module_by_display,
            include_suppressed,
        )
        report.findings.extend(kept)
        report.suppressed += suppressed
    report.findings.sort(key=Finding.sort_key)
    return report


def build_program_for_paths(paths: Sequence[Path | str]) -> Program:
    """Parse ``paths`` and build the whole-program view (``--graph``).

    Raises:
        ValueError: when a path does not exist.
    """
    modules = []
    for path in iter_python_files(paths):
        loaded = load_module(path)
        if isinstance(loaded, ModuleUnderLint):
            modules.append(loaded)
    return build_program(modules)


def lint_source(
    source: str,
    display_path: str = "repro/snippet.py",
    select: Iterable[str] | None = None,
    include_suppressed: bool = False,
) -> list[Finding]:
    """Lint an in-memory source string (test and tooling hook).

    ``display_path`` is also used to derive the module's package for the
    layering rules, so ``"repro/kg/bad.py"`` lints as ``repro.kg.bad``.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                rule_id=SYNTAX_ERROR_ID,
                severity=Severity.ERROR,
                path=display_path,
                line=exc.lineno or 1,
                col=exc.offset or 1,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    module = ModuleUnderLint(
        path=Path(display_path),
        display_path=display_path,
        source=source,
        tree=tree,
        lines=source.splitlines(),
        package_parts=_package_parts(Path(display_path)),
    )
    findings, _ = lint_module(
        module, _select_rules(select), include_suppressed=include_suppressed
    )
    findings.sort(key=Finding.sort_key)
    return findings


def _select_rules(select: Iterable[str] | None) -> list[Rule] | None:
    if select is None:
        return None
    wanted = set(select)
    rules = [rule for rule in all_rules() if rule.rule_id in wanted]
    unknown = wanted - {rule.rule_id for rule in rules}
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return rules
