"""Incremental lint cache — content-hashed findings and parsed ASTs.

Layout under the cache directory (default ``.repro-lint-cache/``)::

    index.json        one JSON document:
                        fingerprint   rule-set + format version hash
                        files         display path → {sha, module,
                                      imports, findings, suppressed}
                        flow          {key, findings, suppressed} of
                                      the whole-program pass
    asts/<sha>.pkl    pickled ``ast.Module`` for each content hash

Invalidation semantics:

* **per-file findings** are keyed by the file's content hash alone — a
  per-file rule sees nothing but the file.
* **flow findings** come from rules whose roots (entry points, the
  exec dispatch root) can live anywhere in the file set, so the one
  flow entry is keyed by the hash of every module's content hash.  The
  key needs no parse, so a fully-warm run decides "nothing to do"
  without parsing a single file.
* the whole cache is discarded when the rule set or cache format
  changes (``fingerprint``).

Corrupt or unreadable cache state never fails a lint run — entries
degrade to misses and are rebuilt.
"""

from __future__ import annotations

import ast
import hashlib
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.findings import Finding

#: bump to invalidate every existing cache (format or semantics change).
CACHE_FORMAT_VERSION = 3


def content_sha(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def program_key(module_shas: dict[str, str]) -> str:
    """Key of the flow entry: a hash over every module's name and
    content hash (``module_shas`` maps dotted module name → hash)."""
    payload = ";".join(f"{m}={module_shas[m]}" for m in sorted(module_shas))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def rules_fingerprint(rule_ids: list[str]) -> str:
    payload = f"v{CACHE_FORMAT_VERSION}:" + ",".join(sorted(rule_ids))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(slots=True)
class FileEntry:
    """Cached per-file lint outcome plus flow-relevant metadata."""

    sha: str
    #: dotted module name ("" for files outside a repro package tree).
    module: str
    #: absolute dotted targets of the module's import statements.
    imports: list[str] = field(default_factory=list)
    findings: list[dict[str, object]] = field(default_factory=list)
    suppressed: int = 0

    def to_dict(self) -> dict[str, object]:
        return {
            "sha": self.sha,
            "module": self.module,
            "imports": self.imports,
            "findings": self.findings,
            "suppressed": self.suppressed,
        }


@dataclass(slots=True)
class FlowEntry:
    """Cached findings of the whole-program pass, keyed by
    :func:`program_key`."""

    key: str
    findings: list[dict[str, object]] = field(default_factory=list)
    suppressed: int = 0

    def to_dict(self) -> dict[str, object]:
        return {
            "key": self.key,
            "findings": self.findings,
            "suppressed": self.suppressed,
        }


class LintCache:
    """Load/store interface over one cache directory.

    The cache is advisory: every read degrades to a miss on any
    inconsistency, and writes overwrite wholesale.
    """

    def __init__(self, cache_dir: Path, fingerprint: str) -> None:
        self.cache_dir = Path(cache_dir)
        self.fingerprint = fingerprint
        self.files: dict[str, FileEntry] = {}
        self.flow: FlowEntry | None = None
        self._load()

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def _load(self) -> None:
        index = self.cache_dir / "index.json"
        try:
            data = json.loads(index.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(data, dict):
            return
        if data.get("fingerprint") != self.fingerprint:
            return
        files = data.get("files")
        if isinstance(files, dict):
            for display in sorted(files):
                raw = files[display]
                if not isinstance(raw, dict):
                    continue
                try:
                    self.files[display] = FileEntry(
                        sha=str(raw["sha"]),
                        module=str(raw.get("module", "")),
                        imports=[str(i) for i in raw.get("imports", [])],
                        findings=list(raw.get("findings", [])),
                        suppressed=int(raw.get("suppressed", 0)),
                    )
                except (KeyError, TypeError, ValueError):
                    continue
        flow = data.get("flow")
        if isinstance(flow, dict):
            try:
                self.flow = FlowEntry(
                    key=str(flow["key"]),
                    findings=list(flow.get("findings", [])),
                    suppressed=int(flow.get("suppressed", 0)),
                )
            except (KeyError, TypeError, ValueError):
                return

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def file_hit(self, display: str, sha: str) -> FileEntry | None:
        entry = self.files.get(display)
        if entry is not None and entry.sha == sha:
            return entry
        return None

    def changed_files(self, shas: dict[str, str]) -> set[str]:
        """Display paths whose content differs from the cached run
        (including files the cache has never seen)."""
        return {
            display for display, sha in shas.items()
            if self.files.get(display) is None or self.files[display].sha != sha
        }

    def flow_hit(self, key: str) -> FlowEntry | None:
        if self.flow is not None and self.flow.key == key:
            return self.flow
        return None

    # ------------------------------------------------------------------
    # ASTs
    # ------------------------------------------------------------------
    def ast_path(self, sha: str) -> Path:
        return self.cache_dir / "asts" / f"{sha}.pkl"

    def load_ast(self, sha: str) -> ast.Module | None:
        try:
            with self.ast_path(sha).open("rb") as fh:
                tree = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return None
        return tree if isinstance(tree, ast.Module) else None

    def save_ast(self, sha: str, tree: ast.Module) -> None:
        path = self.ast_path(sha)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("wb") as fh:
                pickle.dump(tree, fh, protocol=pickle.HIGHEST_PROTOCOL)
        except (OSError, pickle.PicklingError, RecursionError):
            return

    # ------------------------------------------------------------------
    # persisting
    # ------------------------------------------------------------------
    def replace(
        self,
        files: dict[str, FileEntry],
        flow: FlowEntry | None,
    ) -> None:
        """Overwrite the cache with this run's outcome and write it out."""
        self.files = dict(files)
        self.flow = flow
        payload = {
            "fingerprint": self.fingerprint,
            "files": {
                display: self.files[display].to_dict()
                for display in sorted(self.files)
            },
            "flow": flow.to_dict() if flow is not None else None,
        }
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            index = self.cache_dir / "index.json"
            index.write_text(
                json.dumps(payload, indent=1), encoding="utf-8"
            )
        except OSError:
            return
        self._prune_asts()

    def _prune_asts(self) -> None:
        """Drop pickled ASTs no current file entry references."""
        live = {entry.sha for entry in self.files.values()}
        asts_dir = self.cache_dir / "asts"
        try:
            stale = [
                path for path in sorted(asts_dir.glob("*.pkl"))
                if path.stem not in live
            ]
        except OSError:
            return
        for path in stale:
            try:
                path.unlink()
            except OSError:
                continue


def deserialize_findings(raw: list[dict[str, object]]) -> list[Finding]:
    """Cached finding dicts → Finding objects; malformed entries dropped."""
    out: list[Finding] = []
    for item in raw:
        try:
            out.append(Finding.from_dict(item))
        except ValueError:
            continue
    return out
