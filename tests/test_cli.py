"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture()
def corpus(tmp_path):
    directory = tmp_path / "corpus"
    code = main(["generate", "books", str(directory), "--scale", "0.3"])
    assert code == 0
    return directory


class TestGenerate:
    def test_generates_files(self, corpus):
        assert (corpus / "queries.json").exists()
        assert any(p.suffix == ".csv" for p in corpus.iterdir())

    def test_scale_respected(self, tmp_path, capsys):
        main(["generate", "movies", str(tmp_path / "m"), "--scale", "0.2"])
        out = capsys.readouterr().out
        assert "13 sources" in out


class TestStats:
    def test_lists_sources(self, corpus, capsys):
        assert main(["stats", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "books-csv-00" in out
        assert "xml" in out


class TestIngest:
    def test_saves_graph(self, corpus, tmp_path, capsys):
        graph_path = tmp_path / "kg.json"
        assert main(["ingest", str(corpus), "--graph", str(graph_path)]) == 0
        payload = json.loads(graph_path.read_text())
        assert payload["triples"]

    def test_without_graph_flag(self, corpus):
        assert main(["ingest", str(corpus)]) == 0


class TestQuery:
    def test_answers_question(self, corpus, capsys):
        manifest = json.loads((corpus / "queries.json").read_text())
        question = manifest["queries"][0]["text"]
        assert main(["query", str(corpus), question]) == 0
        out = capsys.readouterr().out
        assert out.startswith("answer:")

    def test_explain_flag(self, corpus, capsys):
        manifest = json.loads((corpus / "queries.json").read_text())
        question = manifest["queries"][0]["text"]
        assert main(["query", str(corpus), question, "--explain"]) == 0
        out = capsys.readouterr().out
        assert "group (" in out or "nothing to adjudicate" in out


class TestEvaluate:
    def test_prints_f1(self, corpus, capsys):
        assert main(["evaluate", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "mean F1" in out


class TestObservability:
    def test_query_trace_flag_writes_jsonl(self, corpus, tmp_path, capsys):
        manifest = json.loads((corpus / "queries.json").read_text())
        question = manifest["queries"][0]["text"]
        trace = tmp_path / "trace.jsonl"
        assert main(["query", str(corpus), question,
                     "--trace", str(trace)]) == 0
        spans = [json.loads(line) for line in
                 trace.read_text().splitlines() if line]
        assert {"ingest", "mklgp"} <= {s["name"] for s in spans}

    def test_query_metrics_flag_writes_snapshot(self, corpus, tmp_path):
        manifest = json.loads((corpus / "queries.json").read_text())
        question = manifest["queries"][0]["text"]
        metrics = tmp_path / "metrics.json"
        assert main(["query", str(corpus), question,
                     "--metrics", str(metrics)]) == 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["pipeline.queries"] == 1.0

    def test_query_audit_flag_prints_decisions(self, corpus, capsys):
        manifest = json.loads((corpus / "queries.json").read_text())
        question = manifest["queries"][0]["text"]
        assert main(["query", str(corpus), question, "--audit"]) == 0
        out = capsys.readouterr().out
        assert "decision audit:" in out
        assert "kept" in out

    def test_trace_subcommand_renders_waterfall(self, corpus, tmp_path,
                                                capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["evaluate", str(corpus), "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "timeline" in out
        assert "ingest" in out
        assert "mklgp" in out

    def test_trace_subcommand_rejects_non_trace_file(self, tmp_path,
                                                     capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text("not json\n")
        assert main(["trace", str(bogus)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_evaluate_metrics_printed_inline(self, corpus, tmp_path,
                                             capsys):
        metrics = tmp_path / "m.json"
        assert main(["evaluate", str(corpus),
                     "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "pipeline.queries" in out


class TestUsageFlag:
    def test_llm_usage_written_for_any_client(self, corpus, tmp_path):
        usage_file = tmp_path / "usage.json"
        assert main(["evaluate", str(corpus),
                     "--llm-usage", str(usage_file)]) == 0
        payload = json.loads(usage_file.read_text())
        assert payload["totals"]["calls"] > 0
        assert set(payload["by_stage"]) >= {"synthesis"}
        for usage in payload["by_stage"].values():
            assert set(usage) == {"calls", "prompt_tokens",
                                  "completion_tokens", "simulated_latency_s"}


class TestErrors:
    def test_missing_directory_exit_code(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "missing")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_deterministic_across_runs(self, corpus, capsys):
        main(["evaluate", str(corpus)])
        first = capsys.readouterr().out
        main(["evaluate", str(corpus)])
        second = capsys.readouterr().out
        assert first == second


@pytest.fixture(scope="module")
def hotpot_corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("mh") / "hotpot"
    assert main(["generate", "hotpot", str(directory),
                 "--scale", "0.2"]) == 0
    return directory


class TestDiagnose:
    def test_generate_multihop_corpus(self, hotpot_corpus):
        manifest = json.loads(
            (hotpot_corpus / "queries.json").read_text()
        )
        assert manifest["kind"] == "multihop"
        assert any(p.name.endswith(".pages.json")
                   for p in hotpot_corpus.iterdir())

    def test_evaluate_multihop_prints_breakdown(self, hotpot_corpus,
                                                capsys):
        assert main(["evaluate", str(hotpot_corpus)]) == 0
        out = capsys.readouterr().out
        assert "failure attribution" in out
        assert "reasoning-path signatures" in out
        assert "accuracy by hop count" in out

    def test_diagnose_flat_corpus(self, corpus, capsys):
        assert main(["evaluate", str(corpus), "--diagnose"]) == 0
        out = capsys.readouterr().out
        assert "failure attribution" in out
        assert "retrieval_hop" in out

    def test_diagnose_writes_json(self, hotpot_corpus, tmp_path, capsys):
        out_path = tmp_path / "diag.json"
        assert main(["evaluate", str(hotpot_corpus),
                     "--diagnose", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert set(payload["attribution"]) == {
            "retrieval_hop", "confidence_filter", "synthesis",
        }
        assert payload["per_query"]

    def test_diagnose_jobs4_byte_identical(self, hotpot_corpus, tmp_path,
                                           capsys):
        seq, par = tmp_path / "seq.json", tmp_path / "par.json"
        assert main(["evaluate", str(hotpot_corpus),
                     "--diagnose", str(seq), "--jobs", "1"]) == 0
        assert main(["evaluate", str(hotpot_corpus),
                     "--diagnose", str(par), "--jobs", "4"]) == 0
        assert seq.read_bytes() == par.read_bytes()

    def test_probe_sections_printed(self, hotpot_corpus, capsys):
        assert main(["evaluate", str(hotpot_corpus), "--probe"]) == 0
        out = capsys.readouterr().out
        assert "probe: masked_evidence" in out
        assert "probe: reworded_questions" in out


class TestTraceTools:
    @pytest.fixture()
    def trace_file(self, corpus, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["evaluate", str(corpus), "--trace", str(trace)]) == 0
        capsys.readouterr()
        return trace

    def test_top_mode(self, trace_file, capsys):
        assert main(["trace", str(trace_file), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "duration" in out
        assert len([l for l in out.splitlines() if "ms" in l]) == 3

    def test_diff_identical_exits_zero(self, trace_file, capsys):
        assert main(["trace", "--diff", str(trace_file),
                     str(trace_file)]) == 0
        assert "logically identical" in capsys.readouterr().out

    def test_diff_divergent_exits_one(self, trace_file, tmp_path, capsys):
        spans = [json.loads(line)
                 for line in trace_file.read_text().splitlines()]
        spans[-1]["attrs"]["mutated"] = True
        other = tmp_path / "other.jsonl"
        other.write_text(
            "".join(json.dumps(s) + "\n" for s in spans)
        )
        assert main(["trace", "--diff", str(trace_file),
                     str(other)]) == 1
        out = capsys.readouterr().out
        assert "first divergence" in out
        assert "mutated" in out

    def test_empty_trace_file_errors_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "file is empty" in err

    def test_no_file_and_no_diff_errors(self, capsys):
        assert main(["trace"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSnapshotSubcommand:
    @pytest.fixture()
    def store_dir(self, corpus, tmp_path, capsys):
        snaps = tmp_path / "snaps"
        assert main(["ingest", str(corpus), "--snapshot", str(snaps)]) == 0
        capsys.readouterr()
        return snaps

    def _only_fingerprint(self, store_dir):
        names = [p.name for p in store_dir.iterdir()
                 if not p.name.startswith(".")]
        assert len(names) == 1
        return names[0]

    def test_list_shows_fingerprint_and_kind(self, store_dir, capsys):
        assert main(["snapshot", "list", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert self._only_fingerprint(store_dir)[:16] in out
        assert "base" in out
        assert "layers" in out

    def test_inspect_prints_chain_json(self, store_dir, capsys):
        fp = self._only_fingerprint(store_dir)
        assert main(["snapshot", "inspect", str(store_dir), fp]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fingerprint"] == fp
        assert doc["layers"] == 0
        assert doc["size_bytes"] > 0
        assert doc["chain"][0]["kind"] == "base"

    def test_inspect_unknown_fingerprint_errors(self, store_dir, capsys):
        assert main(["snapshot", "inspect", str(store_dir), "feedc0de"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_inspect_accepts_listed_prefix(self, store_dir, capsys):
        """The 16-char abbreviation ``snapshot list`` prints resolves."""
        fp = self._only_fingerprint(store_dir)
        assert main(["snapshot", "inspect", str(store_dir), fp[:16]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fingerprint"] == fp

    def test_ambiguous_prefix_errors(self, store_dir, capsys):
        fp = self._only_fingerprint(store_dir)
        decoy = store_dir / (fp[:8] + "0" * (len(fp) - 8))
        decoy.mkdir()
        (decoy / "manifest.json").write_text("{}")
        assert main(["snapshot", "inspect", str(store_dir), fp[:8]]) == 2
        assert "ambiguous" in capsys.readouterr().err

    def test_corrupt_snapshot_errors_without_traceback(
        self, store_dir, corpus, capsys
    ):
        fp = self._only_fingerprint(store_dir)
        manifest = store_dir / fp / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["extraction_calls"]
        manifest.write_text(json.dumps(doc))
        assert main(["ingest", str(corpus), "--snapshot", str(store_dir)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "manifest.json" in err

    def test_gc_prunes_work_dirs(self, store_dir, capsys):
        (store_dir / ".old.stale").mkdir()
        (store_dir / ".tmp.stale").mkdir()
        fp = self._only_fingerprint(store_dir)
        assert main(["snapshot", "gc", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "removed 2" in out
        assert not (store_dir / ".old.stale").exists()
        assert (store_dir / fp).exists()

    def test_gc_clean_store(self, store_dir, capsys):
        assert main(["snapshot", "gc", str(store_dir)]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_compact_base_is_idempotent(self, store_dir, corpus, capsys):
        fp = self._only_fingerprint(store_dir)
        assert main(["snapshot", "compact", str(store_dir), fp]) == 0
        assert "compacted" in capsys.readouterr().out
        # the compacted snapshot still warm-loads
        assert main(["ingest", str(corpus), "--snapshot", str(store_dir)]) == 0
        assert "warm-loaded" in capsys.readouterr().err

    def test_ingest_jobs_flag(self, corpus, tmp_path, capsys):
        assert main(["ingest", str(corpus), "--jobs", "4"]) == 0
