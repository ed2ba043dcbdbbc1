"""Command-line interface.

::

    python -m repro generate books corpus/         # synthesize a corpus
    python -m repro stats corpus/                  # what's in it
    python -m repro query corpus/ "Who wrote A Crimson Archive?" --explain
    python -m repro query corpus/ "..." --trace out.jsonl --metrics out.json
    python -m repro evaluate corpus/               # F1 over queries.json
    python -m repro trace out.jsonl                # per-stage waterfall
    python -m repro ingest corpus/ --graph kg.json # cache the fused graph
    python -m repro lint                           # static-analysis gate

All commands are offline and deterministic (--seed).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.confidence.explain import explain
from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets import DATASET_FACTORIES, MULTIHOP_FACTORIES
from repro.datasets.loader import (
    is_multihop_corpus,
    load_multihop,
    load_queries,
    load_sources,
    write_dataset,
    write_multihop,
)
from repro.errors import ReproError
from repro.exec import Query
from repro.eval.reporting import format_table
from repro.kg.storage import save_graph
from repro.obs import (
    NOOP,
    NOOP_AUDIT,
    NOOP_METRICS,
    NOOP_TRACER,
    AuditLog,
    MetricsRegistry,
    Observability,
    Tracer,
)


def _wants_diagnosis(args: argparse.Namespace) -> bool:
    return getattr(args, "diagnose", None) is not None or getattr(
        args, "probe", False
    )


def _make_obs(args: argparse.Namespace) -> Observability:
    """A bundle with exactly the sinks the flags ask for, else NOOP.

    Component-wise so ``--audit`` alone (or ``--diagnose``, which needs
    the audit trail for rejection codes) doesn't pay for tracing, and
    ``--trace`` alone doesn't accumulate an audit log.
    """
    tracer = Tracer() if getattr(args, "trace", None) else NOOP_TRACER
    metrics = (
        MetricsRegistry() if getattr(args, "metrics", None) else NOOP_METRICS
    )
    audit = (
        AuditLog()
        if getattr(args, "audit", False) or _wants_diagnosis(args)
        else NOOP_AUDIT
    )
    bundle = Observability(tracer=tracer, metrics=metrics, audit=audit)
    return bundle if bundle.enabled else NOOP


def _export_obs(obs: Observability, args: argparse.Namespace) -> None:
    if getattr(args, "trace", None):
        obs.tracer.export(args.trace)
        print(f"trace written to {args.trace} "
              f"(render with: python -m repro trace {args.trace})",
              file=sys.stderr)
    if getattr(args, "metrics", None):
        from pathlib import Path

        Path(args.metrics).write_text(obs.metrics.to_json() + "\n")
        print(f"metrics snapshot written to {args.metrics}", file=sys.stderr)


def _export_usage(rag: MultiRAG, args: argparse.Namespace) -> None:
    """Write the totals and per-stage LLM usage when ``--llm-usage`` asks.

    Works for any client: every :class:`LLMClient` carries a stage-keyed
    meter.
    """
    if getattr(args, "llm_usage", None):
        from pathlib import Path

        payload = {
            "totals": rag.llm.meter.snapshot(),
            "by_stage": rag.llm.meter.stage_snapshot(),
        }
        Path(args.llm_usage).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"per-stage LLM usage written to {args.llm_usage}",
              file=sys.stderr)


def _build_pipeline(
    directory: str,
    seed: int,
    obs: Observability | None = None,
    snapshot: str | None = None,
    update_history: bool = True,
    jobs: int | None = None,
) -> MultiRAG:
    config = MultiRAGConfig(seed=seed, update_history=update_history)
    rag = MultiRAG.from_config(config, obs=obs, snapshot=snapshot)
    sources = load_sources(directory)
    report = rag.ingest(sources, jobs=jobs)
    how = (
        f"warm-loaded snapshot {report.snapshot_fingerprint[:12]}"
        if report.loaded_from_snapshot else "ingested"
    )
    if report.snapshot_layers:
        how += f" (+{report.snapshot_layers} delta layers)"
    print(
        f"{how} {len(sources)} sources: {report.num_triples} claims, "
        f"{report.mlg_stats.get('groups', 0)} homologous groups, "
        f"{report.num_chunks} chunks "
        f"({report.construction_time_s:.2f}s)",
        file=sys.stderr,
    )
    return rag


def cmd_generate(args: argparse.Namespace) -> int:
    """Synthesize a benchmark corpus to disk.

    Raises:
        DatasetError: if the dataset cannot be materialized or written.
    """
    if args.dataset in MULTIHOP_FACTORIES:
        dataset = MULTIHOP_FACTORIES[args.dataset](
            seed=args.seed, scale=args.scale
        )
        root = write_multihop(dataset, args.directory)
        num_sources = len(dataset.sources)
    else:
        dataset = DATASET_FACTORIES[args.dataset](
            seed=args.seed, scale=args.scale
        )
        root = write_dataset(dataset, args.directory)
        num_sources = len(dataset.source_specs)
    print(f"wrote {num_sources} sources and "
          f"{len(dataset.queries)} queries under {root}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """List the sources found in a corpus directory.

    Raises:
        DatasetError: if the corpus directory cannot be loaded.
    """
    sources = load_sources(args.directory)
    rows = []
    for raw in sources:
        size = len(raw.payload) if isinstance(raw.payload, str) else "-"
        rows.append([raw.source_id, raw.fmt, raw.name, size])
    print(format_table(["source", "format", "file", "chars"], rows,
                       title=f"sources under {args.directory}"))
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """Fuse a corpus and optionally cache the resulting graph.

    Raises:
        ReproError: if loading, fusing or ingesting the corpus fails.
    """
    rag = _build_pipeline(
        args.directory, args.seed, snapshot=args.snapshot, jobs=args.jobs
    )
    if args.graph:
        save_graph(rag.fusion.graph, args.graph)
        print(f"fused graph saved to {args.graph}")
    return 0


def _snapshot_store(args: argparse.Namespace) -> "SnapshotStore":
    from repro.snapshot import SnapshotStore

    return SnapshotStore(args.store)


def _resolve_fingerprint(store: "SnapshotStore", prefix: str) -> str:
    """Expand a (possibly abbreviated) fingerprint to the full one.

    ``snapshot list`` prints 16-character abbreviations; ``inspect`` and
    ``compact`` accept any unambiguous prefix of a stored fingerprint.

    Raises:
        SnapshotError: if the prefix matches no snapshot or more than one.
    """
    from repro.errors import SnapshotError

    matches = [fp for fp in store.fingerprints() if fp.startswith(prefix)]
    if len(matches) == 1:
        return matches[0]
    if matches:
        shown = ", ".join(fp[:16] for fp in matches)
        raise SnapshotError(
            f"fingerprint prefix {prefix!r} is ambiguous: {shown}"
        )
    raise SnapshotError(f"no snapshot matches fingerprint {prefix!r}")


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Operate on a snapshot store (list / inspect / gc / compact).

    Raises:
        SnapshotError: if the store or the named snapshot is unreadable,
            or a compaction cannot be written.
    """
    store = _snapshot_store(args)
    if args.action == "list":
        rows = []
        for fp in store.fingerprints():
            manifest = store.manifest(fp)
            layers = len(store.chain(fp)) - 1
            counts = manifest.get("counts", {})
            rows.append([
                fp[:16],
                manifest.get("kind", "base"),
                layers,
                counts.get("triples", "-"),
                counts.get("chunks", "-"),
                f"{store.size_of(fp) / 1024:.0f}K",
            ])
        print(format_table(
            ["fingerprint", "kind", "layers", "triples", "chunks", "size"],
            rows, title=f"snapshots under {args.store}",
        ))
        return 0
    if args.action == "inspect":
        fingerprint = _resolve_fingerprint(store, args.fingerprint)
        manifests = store.chain(fingerprint)
        doc = {
            "fingerprint": fingerprint,
            "layers": len(manifests) - 1,
            "size_bytes": store.size_of(fingerprint),
            "chain": manifests,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if args.action == "gc":
        removed = store.gc()
        for name in removed:
            print(f"pruned {name}")
        print(f"gc: removed {len(removed)} orphaned work dir(s)")
        return 0
    # compact
    fingerprint = _resolve_fingerprint(store, args.fingerprint)
    store.compact(fingerprint)
    manifest = store.manifest(fingerprint)
    counts = manifest.get("counts", {})
    print(
        f"compacted {fingerprint[:16]} into a base snapshot "
        f"({counts.get('triples', '?')} triples, "
        f"{counts.get('chunks', '?')} chunks)"
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Answer one or more questions over a corpus.

    Several questions (or ``--jobs``) run through the exec engine's
    worker pool; answers print in the order the questions were given.

    Raises:
        ReproError: if loading, ingesting or querying the corpus fails.
    """
    obs = _make_obs(args)
    rag = _build_pipeline(
        args.directory, args.seed, obs=obs, snapshot=args.snapshot
    )
    questions = list(args.question)
    if len(questions) > 1 or args.jobs is not None:
        results = rag.run_batch(
            [Query.text(q) for q in questions], jobs=args.jobs
        )
    else:
        results = [rag.run(Query.text(questions[0]))]
    for index, (question, result) in enumerate(zip(questions, results)):
        if len(questions) > 1:
            if index:
                print()
            print(f"question: {question}")
        print(f"answer: {result.generated_text}")
        for ranked in result.answers:
            print(f"  {ranked.value}  confidence={ranked.confidence:.2f}  "
                  f"sources={', '.join(ranked.sources)}")
        if args.explain and result.mcc is not None:
            print()
            print(explain(result.mcc))
        if args.audit and result.audit:
            print()
            print("decision audit:")
            for event in result.audit:
                detail = ""
                if event.score is not None:
                    threshold = (
                        f" vs θ={event.threshold:.2f}"
                        if event.threshold is not None else ""
                    )
                    detail = f" (score={event.score:.3f}{threshold})"
                subject = event.value or "<group>"
                print(f"  [{event.level:9s}] {event.action:7s} {subject}"
                      f"{detail}  {event.reason}")
    _export_obs(obs, args)
    _export_usage(rag, args)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Compile results/*.json into a Markdown report.

    Raises:
        DatasetError: if the results directory cannot be read.
    """
    from repro.eval.report import generate_report

    markdown = generate_report(args.results)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(markdown)
        print(f"report written to {args.output}")
    else:
        print(markdown)
    return 0


def _run_diagnosis(
    rag: MultiRAG, dataset, args: argparse.Namespace
) -> None:
    """Diagnose a corpus, print the breakdown, optionally write JSON."""
    from repro.eval.diagnose import diagnose_corpus

    report = diagnose_corpus(
        rag, dataset, jobs=args.jobs, probes=args.probe,
    )
    print(report.format_text())
    if args.diagnose:
        from pathlib import Path

        Path(args.diagnose).write_text(report.to_json())
        print(f"diagnosis written to {args.diagnose}", file=sys.stderr)


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Score queries.json with the full MultiRAG pipeline.

    Flat corpora report mean F1 (plus an optional failure diagnosis with
    ``--diagnose``); multi-hop corpora (written by ``generate hotpot`` /
    ``generate 2wiki``) always route through the diagnosis driver, which
    reports accuracy with per-stage failure attribution.  Diagnosis runs
    disable consensus-history updates so the query batch is read-only
    and ``--jobs N`` stays byte-identical to the sequential run.

    Raises:
        ReproError: if loading, ingesting or querying the corpus fails.
    """
    obs = _make_obs(args)
    diagnosing = _wants_diagnosis(args) or is_multihop_corpus(args.directory)
    if is_multihop_corpus(args.directory):
        dataset = load_multihop(args.directory)
        rag = _build_pipeline(
            args.directory, args.seed, obs=obs, snapshot=args.snapshot,
            update_history=False,
        )
        _run_diagnosis(rag, dataset, args)
        _export_obs(obs, args)
        _export_usage(rag, args)
        return 0

    queries = load_queries(args.directory)
    rag = _build_pipeline(
        args.directory, args.seed, obs=obs, snapshot=args.snapshot,
        update_history=not diagnosing,
    )
    report = rag.evaluate(queries, jobs=args.jobs)
    print(f"queries: {len(report.per_query)}  mean F1: {report.mean_f1:.1f}%")
    if diagnosing:
        from repro.datasets.multihop import MultiHopDataset

        dataset = MultiHopDataset(
            name=args.directory.rstrip("/").rsplit("/", 1)[-1],
            sources=load_sources(args.directory),
            queries=list(queries),
        )
        print()
        _run_diagnosis(rag, dataset, args)
    if obs.metrics.enabled:
        from repro.obs.metrics import format_metrics

        print()
        print(format_metrics(obs.metrics.snapshot()))
    _export_obs(obs, args)
    _export_usage(rag, args)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Render a trace file, or diff two runs span-by-span.

    ``--diff A B`` aligns two exports on (name, depth, attrs), reports
    the first divergent span and per-stage latency/drop-rate deltas,
    and exits 1 when the traces are not logically identical.  ``--top
    N`` lists the N slowest spans instead of the full waterfall.

    Raises:
        StateError: if a file is empty, truncated, or not a trace
            export.
    """
    from repro.obs import (
        diff_traces,
        load_trace,
        render_top_spans,
        render_waterfall,
    )

    try:
        if args.diff:
            diff = diff_traces(
                load_trace(args.diff[0]), load_trace(args.diff[1])
            )
            print(diff.format_text())
            return 0 if diff.identical else 1
        if not args.file:
            print("error: a trace file (or --diff A B) is required",
                  file=sys.stderr)
            return 2
        spans = load_trace(args.file)
        if args.top is not None:
            print(render_top_spans(spans, args.top))
        else:
            print(render_waterfall(spans))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.  Detach
        # stdout so the interpreter's shutdown flush cannot re-raise.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint import all_rules, build_program_for_paths, lint_paths

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.family:12s} [{rule.severity}] "
                  f"{rule.description}")
        return 0

    paths = args.paths
    if not paths:
        # Default target: the installed repro package itself, so the gate
        # works from any working directory.
        paths = [str(Path(__file__).resolve().parent)]

    if args.graph:
        program = build_program_for_paths(paths)
        if args.graph == "dot":
            print(program.callgraph.to_dot())
        elif args.graph == "shared":
            import json

            from repro.lint.flow.concurrency import shared_state_report

            print(json.dumps(shared_state_report(program), indent=2))
        else:
            print(program.callgraph.to_json())
        return 0

    try:
        report = lint_paths(
            paths,
            select=set(args.select.split(",")) if args.select else None,
            include_suppressed=args.no_ignore,
            cache_dir=None if args.no_cache else Path(args.cache_dir),
            changed_only=args.changed_only,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json())
    elif args.format == "sarif":
        print(report.to_sarif())
    else:
        print(report.format_text())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MultiRAG (ICDE 2025) reproduction CLI",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the simulated LLM / generators")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a benchmark corpus to disk")
    p.add_argument("dataset", choices=sorted(
        set(DATASET_FACTORIES) | set(MULTIHOP_FACTORIES)
    ))
    p.add_argument("directory")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("stats", help="list the sources in a corpus directory")
    p.add_argument("directory")
    p.set_defaults(fn=cmd_stats)

    snapshot_help = (
        "snapshot store directory: warm-load the ingested state on a "
        "fingerprint match, else cold-build and save it"
    )
    llm_usage_help = (
        "write totals + per-stage LLM usage (calls/tokens/latency) "
        "as JSON"
    )

    p = sub.add_parser("ingest", help="fuse a corpus (optionally cache the graph)")
    p.add_argument("directory")
    p.add_argument("--graph", help="write the fused graph to this JSON file")
    p.add_argument("--snapshot", metavar="DIR", help=snapshot_help)
    p.add_argument("--jobs", type=int, metavar="N",
                   help="worker threads for the extraction phase of a "
                        "cold build (default: REPRO_EXEC_WORKERS or 1); "
                        "the fused result is identical at any worker count")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser(
        "snapshot",
        help="operate on a snapshot store: list chains, inspect one, "
             "prune crash leftovers, squash delta layers",
    )
    snap_sub = p.add_subparsers(dest="action", required=True)
    sp = snap_sub.add_parser(
        "list", help="list snapshots with kind, layer depth and size"
    )
    sp.add_argument("store", help="snapshot store directory")
    sp = snap_sub.add_parser(
        "inspect", help="print one snapshot's manifest chain as JSON"
    )
    sp.add_argument("store", help="snapshot store directory")
    sp.add_argument("fingerprint")
    sp = snap_sub.add_parser(
        "gc", help="prune orphaned work dirs (.tmp.* / .old.*) left by "
                   "crashes or displaced overwrites"
    )
    sp.add_argument("store", help="snapshot store directory")
    sp = snap_sub.add_parser(
        "compact", help="squash a delta-layer chain into a base snapshot "
                        "under the same fingerprint"
    )
    sp.add_argument("store", help="snapshot store directory")
    sp.add_argument("fingerprint")
    p.set_defaults(fn=cmd_snapshot)

    p = sub.add_parser("query", help="answer questions over a corpus")
    p.add_argument("directory")
    p.add_argument("question", nargs="+",
                   help="one or more questions (several run as a batch)")
    p.add_argument("--jobs", type=int, metavar="N",
                   help="worker threads for the question batch "
                        "(default: REPRO_EXEC_WORKERS or 1)")
    p.add_argument("--explain", action="store_true",
                   help="print the confidence breakdown of every candidate")
    p.add_argument("--audit", action="store_true",
                   help="print every kept/dropped decision MCC made")
    p.add_argument("--trace", metavar="FILE",
                   help="record spans and write the trace (JSONL; .json "
                        "for the array form)")
    p.add_argument("--metrics", metavar="FILE",
                   help="write the metrics snapshot as JSON")
    p.add_argument("--snapshot", metavar="DIR", help=snapshot_help)
    p.add_argument("--llm-usage", metavar="FILE", help=llm_usage_help)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("evaluate", help="score queries.json with MultiRAG")
    p.add_argument("directory")
    p.add_argument("--jobs", type=int, metavar="N",
                   help="worker threads for the query batch "
                        "(default: REPRO_EXEC_WORKERS or 1)")
    p.add_argument("--diagnose", nargs="?", const="", metavar="FILE",
                   help="attribute every wrong/abstained answer to "
                        "retrieval-hop / confidence-filter / synthesis; "
                        "optionally write the attribution tables to FILE")
    p.add_argument("--probe", action="store_true",
                   help="with --diagnose: also run the robustness probes "
                        "(masked evidence values, reworded questions)")
    p.add_argument("--trace", metavar="FILE",
                   help="record spans and write the trace (JSONL; .json "
                        "for the array form)")
    p.add_argument("--metrics", metavar="FILE",
                   help="write the metrics snapshot as JSON")
    p.add_argument("--snapshot", metavar="DIR", help=snapshot_help)
    p.add_argument("--llm-usage", metavar="FILE", help=llm_usage_help)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser(
        "trace",
        help="pretty-print a --trace file as a per-stage waterfall, "
             "list the slowest spans, or diff two runs",
    )
    p.add_argument("file", nargs="?",
                   help="trace export to render (omit with --diff)")
    p.add_argument("--top", type=int, metavar="N",
                   help="list the N slowest spans instead of the waterfall")
    p.add_argument("--diff", nargs=2, metavar=("A", "B"),
                   help="align two trace exports span-by-span and report "
                        "the first divergence plus per-stage deltas "
                        "(exit 1 when divergent)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "lint",
        help="run the static-analysis gate (determinism, layering, "
             "errors, hygiene)",
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories (default: the repro package)")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text",
                   help="report format (json is machine-readable, sarif "
                        "feeds code-scanning upload)")
    p.add_argument("--select",
                   help="comma-separated rule ids to run (e.g. DET001,LAY001)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("--no-ignore", action="store_true",
                   help="report findings even on suppressed lines")
    p.add_argument("--graph", choices=["dot", "json", "shared"],
                   help="print the whole-program call graph (dot/json) "
                        "or the shared-state concurrency report and exit")
    p.add_argument("--changed-only", action="store_true",
                   help="report only files changed since the cached run "
                        "(plus their reverse import closure)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and do not write the incremental cache")
    p.add_argument("--cache-dir", default=".repro-lint-cache",
                   help="incremental cache directory "
                        "(default: .repro-lint-cache)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("report",
                       help="compile results/*.json into a Markdown report")
    p.add_argument("results", nargs="?", default="results")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
