import copy
import dataclasses
import hashlib
import json
import signal
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from lsast import pipeline
from lsast.cli import main
from lsast.corpus import ReportCorpus
from lsast.errors import (
    AnnotationError,
    ConfigurationError,
    CorpusError,
    EmbedderMismatchError,
    GatewayError,
    RecordIntegrityError,
    ScanError,
)
from lsast.gateway import MockGateway, PredictedFinding
from lsast.index import SETUP_WORKERS, DerivationCache, IndexKind, OfflineEmbedder, VectorIndex
from lsast.jsonio import canonical_json, replacing
from lsast.pipeline import (
    RetrievalMode,
    ScanContext,
    ScanFailure,
    ScanResult,
    expand_targets,
    load_scan,
    load_scan_directory,
    persist_scan,
    record_essence,
    run_scan,
    run_scan_batch,
)
from lsast.sast import Finding, parse_scanner_report
from test_corpus import corrupt_catalog_line, spy_reads

MODES = list(RetrievalMode)


def single_entry_index(full: VectorIndex, sequence: int) -> VectorIndex:
    entries = [e for e in full.entries if e.sequence == sequence]
    return VectorIndex(kind=full.kind, dimension=full.dimension,
                       embedder_id=full.embedder_id,
                       corpus_digest=full.corpus_digest, entries=entries)


@pytest.fixture
def context(corpus, indexes, embedder, sast_record):
    functionality, abstraction = indexes
    parsed = parse_scanner_report(json.dumps(sast_record))
    return ScanContext(
        gateway=MockGateway(),
        corpus=corpus,
        functionality_index=functionality,
        abstraction_index=abstraction,
        embedder=embedder,
        scanner=lambda target: parsed.findings,
    )


class TestModeParsing:
    def test_all_eight_names(self):
        names = [m.value for m in RetrievalMode]
        assert names == [
            "raw", "raw_lsast", "functionality", "functionality_lsast",
            "abstraction", "abstraction_lsast", "combined", "combined_lsast",
        ]

    def test_hyphens_and_case_accepted(self):
        assert RetrievalMode.parse("Combined-LSAST") is RetrievalMode.COMBINED_LSAST
        assert RetrievalMode.parse("raw") is RetrievalMode.RAW

    def test_unknown_mode_lists_choices(self):
        with pytest.raises(ConfigurationError) as exc:
            RetrievalMode.parse("telepathy")
        assert "combined_lsast" in str(exc.value)

    def test_membership_algebra(self):
        F, A = IndexKind.FUNCTIONALITY, IndexKind.ABSTRACTION
        expected = {
            RetrievalMode.RAW: (False, False, False, ()),
            RetrievalMode.RAW_LSAST: (True, False, False, ()),
            RetrievalMode.FUNCTIONALITY: (False, True, False, (F,)),
            RetrievalMode.FUNCTIONALITY_LSAST: (True, True, False, (F,)),
            RetrievalMode.ABSTRACTION: (False, False, True, (A,)),
            RetrievalMode.ABSTRACTION_LSAST: (True, False, True, (A,)),
            RetrievalMode.COMBINED: (False, True, True, (F, A)),
            RetrievalMode.COMBINED_LSAST: (True, True, True, (F, A)),
        }
        for mode, (scanner, functionality, abstraction, kinds) in expected.items():
            assert mode.uses_scanner is scanner
            assert mode.uses_functionality is functionality
            assert mode.uses_abstraction is abstraction
            assert mode.index_kinds == kinds


class TestValidation:
    def test_context_required(self, js_target):
        with pytest.raises(ConfigurationError):
            run_scan(js_target, RetrievalMode.RAW)

    def test_gateway_required(self, js_target):
        with pytest.raises(ConfigurationError):
            run_scan(js_target, RetrievalMode.RAW, context=ScanContext())

    def test_scanner_required_for_lsast_modes(self, js_target):
        context = ScanContext(gateway=MockGateway())
        with pytest.raises(ConfigurationError) as exc:
            run_scan(js_target, RetrievalMode.RAW_LSAST, context=context)
        assert "scanner" in str(exc.value)

    def test_retrieval_dependencies_required(self, js_target):
        context = ScanContext(gateway=MockGateway())
        with pytest.raises(ConfigurationError):
            run_scan(js_target, RetrievalMode.FUNCTIONALITY, context=context)

    def test_stale_index_refused(self, js_target, context, tmp_path, report_dicts):
        extra = dict(report_dicts[0], id=60, title="added later")
        source = tmp_path / "extra.json"
        source.write_text(json.dumps([extra]))
        context.corpus.ingest_reports(source)
        with pytest.raises(ConfigurationError) as exc:
            run_scan(js_target, RetrievalMode.FUNCTIONALITY, context=context)
        assert "rebuild" in str(exc.value).lower()

    @pytest.mark.parametrize("mode", [RetrievalMode.FUNCTIONALITY,
                                      RetrievalMode.ABSTRACTION_LSAST, RetrievalMode.COMBINED])
    def test_index_in_the_wrong_slot_refused(self, js_target, context, mode):
        context.functionality_index, context.abstraction_index = (
            context.abstraction_index, context.functionality_index)
        with pytest.raises(ConfigurationError) as exc:
            run_scan(js_target, mode, context=context)
        assert "functionality" in str(exc.value) and "abstraction" in str(exc.value)
        assert context.gateway.call_count == 0

    def test_k_validated(self, js_target, context):
        with pytest.raises(ConfigurationError):
            run_scan(js_target, RetrievalMode.RAW, k=0, context=context)

    @pytest.mark.parametrize("mode", [m for m in MODES if m.index_kinds])
    def test_catalog_of_another_corpus_state_refused(self, js_target, context, mode):
        catalog = context.corpus._snippets_path
        lines = catalog.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[0] = canonical_json({**json.loads(lines[0]), "corpus_digest": "0" * 64}) + "\n"
        catalog.write_text("".join(lines), encoding="utf-8")
        scanned = []
        context.scanner = lambda target: scanned.append(target) or []
        context.corpus = ReportCorpus(catalog.parent)
        with pytest.raises(CorpusError,
                           match="snippet catalog was built against a different corpus state"):
            run_scan(js_target, mode, context=context)
        assert scanned == []
        assert context.gateway.call_count == 0

    @pytest.mark.parametrize("mode", [RetrievalMode.FUNCTIONALITY_LSAST,
                                      RetrievalMode.ABSTRACTION_LSAST,
                                      RetrievalMode.COMBINED_LSAST])
    def test_other_embedder_refused_before_the_scanner(self, js_target, context, mode):
        scanned = []
        context.scanner = lambda target: scanned.append(target) or []
        context.embedder = OfflineEmbedder(seed=999)
        with pytest.raises(EmbedderMismatchError, match="search attempted with"):
            run_scan(js_target, mode, context=context)
        assert scanned == []
        assert context.gateway.call_count == 0


class TestRunScan:
    def test_raw_mode_minimal_dependencies(self, js_target):
        context = ScanContext(gateway=MockGateway())
        result = run_scan(js_target, RetrievalMode.RAW, context=context)
        assert result.none_found is True
        assert result.scanner_findings == []
        assert result.retrieved_report_ids == {"functionality": [], "abstraction": []}
        assert "SAST" not in context.gateway.last_prompt

    def test_lsast_mode_embeds_scanner_findings(self, js_target, context):
        result = run_scan(js_target, RetrievalMode.RAW_LSAST, context=context)
        prompt = context.gateway.last_prompt
        assert "After scanning the code with a SAST Scanner" in prompt
        assert "'CWE-943 (line 4-5)'" in prompt
        assert len(result.scanner_findings) == 1
        assert "scanner_s" in result.timings

    def test_attach_without_lsast_keeps_prompt_clean(self, js_target, context):
        context.attach_scanner_findings = True
        result = run_scan(js_target, RetrievalMode.FUNCTIONALITY, context=context)
        assert len(result.scanner_findings) == 1
        assert "SAST" not in context.gateway.last_prompt

    def test_scanner_findings_filtered_to_target(self, tmp_path, context):
        other = tmp_path / "unrelated.js"
        other.write_text("var a = 1\n")
        result = run_scan(other, RetrievalMode.RAW_LSAST, context=context)
        assert result.scanner_findings == []

    def test_combined_retrieves_from_both_indexes(self, js_target, context):
        result = run_scan(js_target, RetrievalMode.COMBINED, k=2, context=context)
        assert result.retrieved_report_ids["functionality"]
        assert result.retrieved_report_ids["abstraction"]
        assert result.included_report_ids
        assert set(result.included_report_ids) == (
            set(result.retrieved_report_ids["functionality"])
            | set(result.retrieved_report_ids["abstraction"])
        )

    def test_merge_dedupes_across_sources(self, js_target, context, indexes):
        functionality, abstraction = indexes
        # both narrowed indexes resolve to report 1: the union is one entry
        context.functionality_index = single_entry_index(functionality, 1)
        context.abstraction_index = single_entry_index(abstraction, 1)
        result = run_scan(js_target, RetrievalMode.COMBINED, k=3, context=context)
        assert result.retrieved_report_ids["functionality"] == [1]
        assert result.retrieved_report_ids["abstraction"] == [1]
        assert result.included_report_ids == [1]

    def test_merge_orders_by_similarity_then_index(self):
        report = {i: SimpleNamespace(id=i) for i in range(1, 6)}
        functionality = [(report[1], 0.9), (report[2], 0.5), (report[3], 0.4)]
        abstraction = [(report[4], 0.9), (report[3], 0.8), (report[5], 0.5)]
        merged = pipeline._merge_retrievals(functionality, abstraction)
        # descending similarity; a tie puts the functionality hit first;
        # report 3, found by both, appears once at its best place (0.8)
        assert [r.id for r in merged] == [1, 4, 3, 2, 5]

    def test_retrieved_reports_enter_prompt(self, js_target, context):
        run_scan(js_target, RetrievalMode.FUNCTIONALITY, k=3, context=context)
        prompt = context.gateway.last_prompt
        assert "Relevant vulnerability reports:" in prompt
        assert "title: " in prompt

    def test_empty_target_fails(self, tmp_path, context):
        empty = tmp_path / "empty.js"
        for text in ("", "  \n\t\n   \r\n"):
            empty.write_text(text)
            for mode in MODES:
                with pytest.raises(ScanError, match="is empty"):
                    run_scan(empty, mode, context=context)

    def test_missing_target_fails(self, tmp_path, context):
        with pytest.raises(ScanError):
            run_scan(tmp_path / "ghost.js", RetrievalMode.RAW, context=context)

    def test_scan_call_failure_preserves_retrievals(self, js_target, context):
        class ExplodingScan(MockGateway):
            # derivation calls succeed; only the final scan call fails
            def complete(self, prompt):
                if "You are a very efficient vulnerability scanner." in prompt:
                    raise GatewayError("server on fire")
                return super().complete(prompt)

        context.gateway = ExplodingScan()
        with pytest.raises(ScanError) as exc:
            run_scan(js_target, RetrievalMode.FUNCTIONALITY, k=2, context=context)
        partial = exc.value.partial_result
        assert partial is not None
        assert partial.retrieved_report_ids["functionality"]
        assert partial.predicted == []

    def test_derivation_failure_becomes_scan_error(self, js_target, context):
        class Exploding:
            def complete(self, prompt):
                raise GatewayError("server on fire")

        context.gateway = Exploding()
        with pytest.raises(ScanError) as exc:
            run_scan(js_target, RetrievalMode.FUNCTIONALITY, k=2, context=context)
        assert "retrieval failed" in str(exc.value)

    def test_predictions_parsed_into_result(self, js_target, context):
        reply = "CWE-ID: CWE-79\nReason: echo\nline: 4\ncode-snippet: res.send(u)"
        context.gateway = MockGateway(scan_response=reply)
        result = run_scan(js_target, RetrievalMode.RAW_LSAST, context=context)
        assert [f.cwe_id for f in result.predicted] == ["CWE-79"]
        assert result.none_found is False
        assert result.raw_response == reply

    def test_total_s_covers_validation(self, js_target, context, monkeypatch):
        digest = context.corpus.digest

        def slow_digest():
            time.sleep(0.05)
            return digest()

        monkeypatch.setattr(context.corpus, "digest", slow_digest)
        result = run_scan(js_target, RetrievalMode.COMBINED, context=context)
        assert result.timings["total_s"] >= 0.05

    def test_prompt_digest_is_stable(self, js_target, context):
        first = run_scan(js_target, RetrievalMode.COMBINED_LSAST, context=context)
        second = run_scan(js_target, RetrievalMode.COMBINED_LSAST, context=context)
        assert first.prompt_digest == second.prompt_digest


class TestExpandTargets:
    def test_directory_expansion_filters_and_sorts(self, tmp_path):
        tree = tmp_path / "tree"
        (tree / "b").mkdir(parents=True)
        (tree / "a.js").write_text("x")
        (tree / "b" / "c.php").write_text("x")
        (tree / "b" / "skip.txt").write_text("x")
        (tree / "z.py").write_text("x")
        expanded = expand_targets([tree])
        names = [p.name for p in expanded]
        assert names == ["a.js", "c.php", "z.py"]

    def test_explicit_file_kept_regardless_of_extension(self, tmp_path):
        odd = tmp_path / "notes.txt"
        odd.write_text("x")
        assert expand_targets([odd]) == [odd]

    def test_missing_target_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            expand_targets([tmp_path / "ghost.js"])


class TestBatch:
    def test_results_in_input_order(self, tmp_path, context):
        files = []
        for name in ("b.js", "a.js", "c.js"):
            path = tmp_path / name
            path.write_text(f"var tag = '{name}'\n")
            files.append(path)
        # one worker, and more workers than targets
        for parallelism in (1, 4):
            results = run_scan_batch(files, RetrievalMode.RAW, context=context,
                                     parallelism=parallelism)
            assert [r.target_path for r in results] == [str(p) for p in files]

    def test_failures_inline(self, tmp_path, context):
        good = tmp_path / "good.js"
        good.write_text("var x = 1\n")
        bad = tmp_path / "bad.js"
        bad.write_text("")
        results = run_scan_batch([good, bad], RetrievalMode.RAW, context=context)
        assert not isinstance(results[0], ScanFailure)
        assert isinstance(results[1], ScanFailure)
        assert results[1].error_type == "ScanError"

    def test_blank_target_fails_alone(self, tmp_path, context):
        (tmp_path / "a.js").write_text("var x = 1\n")
        (tmp_path / "b.js").write_text("   \n\n  \n")
        results = run_scan_batch([tmp_path], RetrievalMode.FUNCTIONALITY, context=context)
        assert isinstance(results[0], ScanResult)
        assert isinstance(results[1], ScanFailure)
        assert "is empty" in results[1].error

    def test_blank_code_pattern_fails_alone(self, tmp_path, context):
        class BlankPattern(MockGateway):
            def complete(self, prompt):
                if "Code-Pattern:[xxxx]" in prompt and "no_pattern" in prompt:
                    return "Code-Pattern:[]"
                return super().complete(prompt)

        context.gateway = BlankPattern()
        (tmp_path / "a.js").write_text("var x = 1\n")
        (tmp_path / "b.js").write_text("var no_pattern = 1\n")
        results = run_scan_batch([tmp_path], RetrievalMode.ABSTRACTION, context=context)
        assert isinstance(results[0], ScanResult)
        assert isinstance(results[1], ScanFailure)
        assert "no code pattern" in results[1].error

    def test_all_failed_raises(self, tmp_path, context):
        bad = tmp_path / "bad.js"
        bad.write_text("")
        with pytest.raises(ScanError):
            run_scan_batch([bad], RetrievalMode.RAW, context=context)

    def test_empty_target_list(self, context):
        assert run_scan_batch([], RetrievalMode.RAW, context=context) == []

    def test_parallel_matches_serial(self, tmp_path, context):
        files = []
        for i in range(6):
            path = tmp_path / f"f{i}.js"
            path.write_text(f"var v{i} = {i}\n")
            files.append(path)
        serial = run_scan_batch(files, RetrievalMode.COMBINED, k=2, context=context)
        parallel = run_scan_batch(files, RetrievalMode.COMBINED, k=2,
                                  context=context, parallelism=4)
        for s, p in zip(serial, parallel):
            assert s.prompt_digest == p.prompt_digest
            assert s.included_report_ids == p.included_report_ids

    def test_scans_reach_parallelism_above_setup_workers(self, tmp_path, context):
        parallelism = 6
        assert parallelism > SETUP_WORKERS
        entered = []
        changed = threading.Condition()

        class Held(MockGateway):
            """Holds each scan call until `parallelism` of them are in flight."""

            def complete(self, prompt):
                if SCAN_MARKER in prompt:
                    with changed:
                        entered.append(threading.current_thread())
                        changed.notify_all()
                        if not changed.wait_for(lambda: len(entered) >= parallelism,
                                                timeout=10):
                            raise GatewayError("fewer scans in flight than parallelism")
                return super().complete(prompt)

        targets = tagged_targets(tmp_path, range(parallelism))
        context.gateway = Held()
        results = run_scan_batch(targets, RetrievalMode.RAW, context=context,
                                 parallelism=parallelism)
        assert all(isinstance(r, ScanResult) for r in results)
        assert len(set(entered)) == parallelism

    @pytest.mark.parametrize("mode", [RetrievalMode.RAW, RetrievalMode.COMBINED])
    def test_worker_bug_starts_no_further_scan(self, tmp_path, context, mode):
        class Buggy(ScanCounter):
            def complete(self, prompt):
                if SCAN_MARKER in prompt:
                    super().complete(prompt)
                    raise RuntimeError("gateway bug")
                return super().complete(prompt)

        targets = tagged_targets(tmp_path, range(8))
        context.gateway = Buggy()
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="gateway bug"):
            run_scan_batch(targets, mode, k=2, context=context, parallelism=1)
        assert len(context.gateway.scans) == 1
        assert set(threading.enumerate()) == before

    def test_interrupt_while_waiting_stops_the_scans(self, tmp_path, context):
        class Interrupted(Exception):
            pass

        def interrupted(signum, frame):
            raise Interrupted

        caller = threading.get_ident()

        class Interrupting(ScanCounter):
            def complete(self, prompt):
                if SCAN_MARKER in prompt:
                    if not self.scans:
                        time.sleep(0.05)  # the caller waits for the batch by now
                        signal.pthread_kill(caller, signal.SIGINT)
                    time.sleep(0.01)
                return super().complete(prompt)

        targets = tagged_targets(tmp_path, range(20))
        context.gateway = Interrupting()
        before = set(threading.enumerate())
        handler = signal.signal(signal.SIGINT, interrupted)
        try:
            with pytest.raises(Interrupted):
                run_scan_batch(targets, RetrievalMode.RAW, context=context)
        finally:
            signal.signal(signal.SIGINT, handler)
        # an interrupted Thread.join can mark a running thread stopped, so
        # wait for the worker to leave rather than join it
        deadline = time.monotonic() + 10
        while set(threading.enumerate()) != before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert set(threading.enumerate()) == before
        assert len(context.gateway.scans) < len(targets)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_scanner_value_error_propagates(self, tmp_path, context, parallelism, caplog):
        targets = tagged_targets(tmp_path, range(4))

        def scanner(target):
            if target == targets[2]:
                raise ValueError("scanner bug")
            return []

        context.scanner = scanner
        with pytest.raises(ValueError, match="scanner bug"):
            run_scan_batch(targets, RetrievalMode.RAW_LSAST, context=context,
                           parallelism=parallelism)
        # a ScanFailure is logged as "scan failed for <target>"
        assert "scan failed" not in caplog.text


class TestPersistence:
    def test_record_shape(self, js_target, context, tmp_path):
        result = run_scan(js_target, RetrievalMode.RAW, context=context)
        path = persist_scan(result, tmp_path / "scans")
        record = json.loads(path.read_text())
        assert record["record_version"] == 1
        assert record["record_id"] == record["content_digest"][:12]
        assert record["result"]["target_path"] == str(js_target)
        assert "persisted_at" in record

    def test_load_round_trip(self, js_target, context, tmp_path):
        result = run_scan(js_target, RetrievalMode.COMBINED_LSAST, context=context)
        path = persist_scan(result, tmp_path / "scans")
        loaded = load_scan(path)
        assert loaded.result.to_dict() == result.to_dict()

    def test_tamper_detected(self, js_target, context, tmp_path):
        result = run_scan(js_target, RetrievalMode.RAW, context=context)
        path = persist_scan(result, tmp_path / "scans")
        record = json.loads(path.read_text())
        record["result"]["raw_response"] = "altered"
        path.write_text(json.dumps(record))
        with pytest.raises(RecordIntegrityError):
            load_scan(path)

    def test_timings_excluded_from_digest(self, js_target, context, tmp_path):
        result = run_scan(js_target, RetrievalMode.RAW, context=context)
        path = persist_scan(result, tmp_path / "scans")
        record = json.loads(path.read_text())
        record["result"]["timings"] = {"total_s": 99.0}
        path.write_text(json.dumps(record))
        loaded = load_scan(path)
        assert loaded.result.timings == {"total_s": 99.0}

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "scan-bad.json"
        path.write_text(json.dumps({"record_version": 1}))
        with pytest.raises(RecordIntegrityError):
            load_scan(path)

    def test_non_object_result_rejected(self, tmp_path):
        path = tmp_path / "scan-bad.json"
        path.write_text(json.dumps({
            "record_version": 1, "record_id": "0" * 12, "content_digest": "0" * 64,
            "persisted_at": "2024-01-01T00:00:00+00:00", "result": [1],
        }))
        with pytest.raises(RecordIntegrityError):
            load_scan(path)

    def test_unreadable_json_rejected(self, tmp_path):
        path = tmp_path / "scan-bad.json"
        path.write_text("{nope")
        with pytest.raises(RecordIntegrityError):
            load_scan(path)

    def test_directory_load(self, js_target, context, tmp_path):
        out = tmp_path / "scans"
        for mode in (RetrievalMode.RAW, RetrievalMode.RAW_LSAST):
            persist_scan(run_scan(js_target, mode, context=context), out)
        scans = load_scan_directory(out)
        assert len(scans) == 2

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(RecordIntegrityError):
            load_scan_directory(tmp_path / "nowhere")

    def test_directory_load_skips_a_record_being_written(self, js_target, context, tmp_path):
        out = tmp_path / "scans"
        persist_scan(run_scan(js_target, RetrievalMode.RAW, context=context), out)
        with replacing(out / "scan-0123456789ab-1.json", ScanError) as tmp:
            tmp.write_text('{"record_version": 1, "res', encoding="utf-8")
            assert len(load_scan_directory(out)) == 1

    def test_interrupted_write_leaves_no_record(self, js_target, context, tmp_path,
                                                monkeypatch):
        result = run_scan(js_target, RetrievalMode.RAW, context=context)
        out = tmp_path / "scans"
        out.mkdir()
        real_write_text = Path.write_text

        def write_half_then_fail(self, data, *args, **kwargs):
            real_write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(ScanError):
            persist_scan(result, out)
        monkeypatch.undo()
        assert list(out.iterdir()) == []
        assert load_scan_directory(out) == []

    def _indented_copy(self, path):
        """The record at `path` in the indented layout of earlier versions."""
        record = json.loads(path.read_text(encoding="utf-8"))
        old = path.with_name(f"scan-{record['record_id']}-0.json")
        old.write_text(canonical_json(record, indent=2) + "\n", encoding="utf-8")
        return old

    def test_record_file_is_one_canonical_line(self, js_target, context, tmp_path):
        result = run_scan(js_target, RetrievalMode.COMBINED_LSAST, context=context)
        text = persist_scan(result, tmp_path / "scans").read_text(encoding="utf-8")
        assert text == canonical_json(json.loads(text)) + "\n"
        assert text.count("\n") == 1

    def test_indented_record_still_loads(self, js_target, context, tmp_path):
        result = run_scan(js_target, RetrievalMode.COMBINED_LSAST, context=context)
        out = tmp_path / "scans"
        path = persist_scan(result, out)
        old = self._indented_copy(path)
        path.unlink()
        assert "\n  " in old.read_text(encoding="utf-8")
        loaded = load_scan(old)
        assert loaded.result == result
        [from_directory] = load_scan_directory(out)
        assert from_directory.content_digest == loaded.content_digest
        assert from_directory.result == result

    def test_eval_counts_indented_and_one_line_copies_once(self, js_target, context, tmp_path,
                                                           capsys):
        result = run_scan(js_target, RetrievalMode.RAW_LSAST, context=context)
        assert result.scanner_findings
        out = tmp_path / "scans"
        path = persist_scan(result, out)
        capsys.readouterr()
        assert main(["eval", "--records", str(out), "--format", "json"]) == 0
        alone = capsys.readouterr().out

        self._indented_copy(path)
        assert len(list(out.glob("scan-*.json"))) == 2
        assert main(["eval", "--records", str(out), "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.out == alone
        assert "1 duplicate records counted once" in captured.err


class TestDeterminism:
    def test_consecutive_runs_identical_modulo_volatile_fields(
            self, tmp_path, corpus, indexes, embedder, sast_record):
        functionality, abstraction = indexes
        parsed = parse_scanner_report(json.dumps(sast_record))
        tree = tmp_path / "tree"
        tree.mkdir()
        for i in range(3):
            (tree / f"file{i}.js").write_text(
                f"var q{i} = \"SELECT x FROM t WHERE a='\" + input{i} + \"'\"\n"
            )

        def one_run(out_name):
            context = ScanContext(
                gateway=MockGateway(), corpus=corpus,
                functionality_index=functionality, abstraction_index=abstraction,
                embedder=embedder, scanner=lambda target: parsed.findings,
            )
            results = run_scan_batch([tree], RetrievalMode.COMBINED_LSAST, k=2,
                                     context=context)
            out = tmp_path / out_name
            return [persist_scan(r, out) for r in results]

        first = one_run("run1")
        second = one_run("run2")
        essences_first = [record_essence(json.loads(p.read_text())) for p in first]
        essences_second = [record_essence(json.loads(p.read_text())) for p in second]
        assert essences_first == essences_second


def pinned_result() -> ScanResult:
    """A scan result with every record field set to a fixed value."""
    return ScanResult(
        target_path="src/app/handler.js",
        mode=RetrievalMode.COMBINED_LSAST,
        k=2,
        scanner_findings=[
            Finding(cwe_ids=["89"], rule_id="sqli", title="SQL injection",
                    description="Unsanitized input reaches a query", file_path="app/handler.js",
                    line_start=4, line_end=5, severity="high"),
            Finding(cwe_ids=["79", "80"], rule_id="xss", title="Reflected XSS",
                    description="", file_path="/home/ci/app/handler.js",
                    line_start=9, line_end=9, severity=None),
        ],
        retrieved_report_ids={"functionality": [3, 1], "abstraction": [2]},
        included_report_ids=[3, 2],
        dropped_report_ids=[1],
        predicted=[PredictedFinding(cwe_id="CWE-22", reason="Pfad wird ungeprüft übernommen",
                                    line_start=12, line_end=14, code_snippet="fs.readFile(p)")],
        none_found=False,
        parse_degraded=True,
        raw_response="CWE-ID: CWE-22 — Pfad … ungeprüft ✓\n",
        prompt_digest="ab" * 32,
        template_version="pinned-1",
        timings={"scanner_s": 0.001, "model_s": 0.25, "total_s": 0.5},
    )


class TestRecordSchema:
    # the content digest of every persisted record is this hash's input form;
    # if it changes, records written by earlier versions no longer verify
    PINNED_ESSENCE_SHA256 = "3166f38e9fd742eb3be116f7d58137fea03d30da1d47cb7a004fff8ca215f3d3"

    def test_essence_pinned(self):
        essence = record_essence(pinned_result().to_dict())
        assert hashlib.sha256(essence.encode("utf-8")).hexdigest() == self.PINNED_ESSENCE_SHA256

    def test_round_trip_every_field(self):
        result = pinned_result()
        assert ScanResult.from_dict(result.to_dict()) == result


def layout_variants() -> list:
    """Scan results that exercise every part of the one-line record layout."""
    base = pinned_result()
    findings = [
        Finding(cwe_ids=[str(20 + n), "79"] if n % 3 else [], rule_id=f"rule-{n}",
                title=f"Befund {n} — “quoted”", description="line\nbreak \\ \"q\"",
                file_path=f"src/mödul{n % 4}/f{n}.js", line_start=n + 1, line_end=n + 2 + n % 2,
                severity=(None, "high", "low")[n % 3])
        for n in range(30)
    ]
    return [
        base,
        dataclasses.replace(base, timings={"model_s": 1e-07, "retrieval_s": 0.1 + 0.2,
                                           "scanner_s": 123456.789, "total_s": 2.5e-05}),
        dataclasses.replace(base, timings={}),
        dataclasses.replace(base, predicted=[], none_found=True, parse_degraded=False,
                            raw_response="NONE"),
        dataclasses.replace(base, predicted=[], parse_degraded=True,
                            raw_response=" \x00\x1f emoji \U0001f600 \"}}\" , \"timings\": {"),
        dataclasses.replace(base, scanner_findings=[], included_report_ids=[],
                            dropped_report_ids=[], predicted=[], raw_response="",
                            retrieved_report_ids={"functionality": [], "abstraction": []}),
        dataclasses.replace(base, scanner_findings=findings, mode=RetrievalMode.RAW_LSAST),
    ]


def flip(text: str, anchor: str, offset: int = 0) -> str:
    """`text` with one character after the first `anchor` changed in kind."""
    at = text.index(anchor) + len(anchor) + offset
    old = text[at]
    new = str((int(old) + 1) % 10) if old.isdigit() else ("b" if old == "a" else "a")
    return text[:at] + new + text[at + 1:]


def redump_verdict(text: str) -> bool:
    """The check every record passed before the line layout: re-dump, hash."""
    record = json.loads(text)
    essence = record_essence(record["result"])
    return hashlib.sha256(essence.encode("utf-8")).hexdigest() == record["content_digest"]


class TestRecordLayout:
    """The record line is the head prefix, the essence and the timings tail."""

    @pytest.mark.parametrize("result", layout_variants())
    def test_one_dump_line_is_the_canonical_record(self, result, tmp_path):
        path = persist_scan(result, tmp_path / "scans")
        data = path.read_bytes()
        record = json.loads(data)
        assert data == (canonical_json(record) + "\n").encode("utf-8")
        assert record["content_digest"] == hashlib.sha256(
            record_essence(result.to_dict()).encode("utf-8")).hexdigest()
        assert load_scan(path).result == result

    def test_layout_preconditions(self, tmp_path):
        names = sorted(f.name for f in dataclasses.fields(ScanResult))
        assert names[-1] == "timings", (
            f"ScanResult field {names[-1]!r} sorts after 'timings'; the record line "
            "layout in pipeline.persist_scan no longer equals the canonical record"
        )
        record = json.loads(persist_scan(pinned_result(), tmp_path).read_text(encoding="utf-8"))
        assert sorted(record)[-1] == "result", (
            f"record key {sorted(record)[-1]!r} sorts after 'result'; the record line "
            "layout in pipeline.persist_scan no longer equals the canonical record"
        )

    TAMPERS = {
        # name: (edit of the canonical line, True if it loads, else the refusal)
        "head content_digest byte": (lambda t: flip(t, '"content_digest": "', 5), False),
        "head persisted_at byte": (lambda t: flip(t, '"persisted_at": "', 3), True),
        # the digest still matches; the id it no longer prefixes is refused
        "head record_id byte": (lambda t: flip(t, '"record_id": "', 0), "record id"),
        "essence byte": (lambda t: flip(t, '"prompt_digest": "', 7), False),
        "essence raw_response byte": (lambda t: flip(t, '"raw_response": "', 0), False),
        "timings byte": (lambda t: flip(t, '"model_s": 0.', 1), True),
        "essence space after a comma": (
            lambda t: t.replace('"k": 2, ', '"k": 2,  ', 1), True),
        "added top-level key before result": (
            lambda t: canonical_json({**json.loads(t), "extra": 1}) + "\n", True),
        "added top-level key after result": (
            lambda t: canonical_json({**json.loads(t), "zzz": 1}) + "\n", True),
        "missing trailing newline": (lambda t: t[:-1], True),
        "indented copy": (lambda t: canonical_json(json.loads(t), indent=2) + "\n", True),
        "indented copy, essence byte": (
            lambda t: flip(canonical_json(json.loads(t), indent=2), '"raw_response": "', 0), False),
        "ascii-escaped json.dumps copy": (lambda t: json.dumps(json.loads(t)), True),
        "unsorted json.dumps copy, essence byte": (
            lambda t: json.dumps(json.loads(flip(t, '"raw_response": "', 0))), False),
    }

    @pytest.mark.parametrize("name", list(TAMPERS))
    def test_tamper_matrix_decides_as_the_redump_check(self, name, tmp_path):
        edit, loads = self.TAMPERS[name]
        path = persist_scan(pinned_result(), tmp_path / "scans")
        text = edit(path.read_text(encoding="utf-8"))
        assert text != path.read_text(encoding="utf-8")
        path.write_text(text, encoding="utf-8")
        assert redump_verdict(text) is (loads is not False)
        if loads is True:
            assert load_scan(path).content_digest == json.loads(text)["content_digest"]
        else:
            with pytest.raises(RecordIntegrityError, match=loads or "digest mismatch"):
                load_scan(path)

    def test_canonical_record_verifies_without_a_redump(self, tmp_path, monkeypatch):
        calls = []
        real = pipeline._content_digest
        monkeypatch.setattr(pipeline, "_content_digest",
                            lambda payload: calls.append(1) or real(payload))
        path = persist_scan(pinned_result(), tmp_path / "scans")
        assert calls == []
        load_scan(path)
        assert calls == []
        indented = tmp_path / "scan-indented.json"
        indented.write_text(canonical_json(json.loads(path.read_text(encoding="utf-8")),
                                           indent=2) + "\n", encoding="utf-8")
        load_scan(indented)
        assert calls == [1]

    def test_persist_dumps_each_part_once(self, tmp_path, monkeypatch):
        dumped = []
        real = pipeline.canonical_json
        monkeypatch.setattr(pipeline, "canonical_json",
                            lambda data: dumped.append(real(data)) or dumped[-1])
        path = persist_scan(pinned_result(), tmp_path / "scans")
        # the essence, the head and the timings; never the whole record again
        assert len(dumped) == 3
        assert sum(map(len, dumped)) < len(path.read_text(encoding="utf-8"))


def finding_in(path, line=1):
    return Finding(cwe_ids=["79"], rule_id="r", title="", description="",
                   file_path=path, line_start=line, line_end=line)


class TestHotPath:
    """Work that scales with the report or the corpus is done once, not per scan."""

    def _targets(self, tmp_path, count):
        targets = []
        for n in range(count):
            target = tmp_path / "repo" / f"f{n}.js"
            target.parent.mkdir(exist_ok=True)
            target.write_text(f"var a{n} = req.query.a;\n", encoding="utf-8")
            targets.append(target)
        return targets

    def test_canned_report_paths_parsed_once_per_context(self, tmp_path, monkeypatch):
        import lsast.sast as sast

        targets = self._targets(tmp_path, 6)
        findings = [finding_in(f"repo/f{n % 6}.js", line=n + 1) for n in range(60)]
        context = ScanContext(gateway=MockGateway(), scanner=lambda target: findings)
        parsed = []
        original = sast._path_parts
        monkeypatch.setattr(sast, "_path_parts", lambda path: parsed.append(path) or original(path))
        for target in targets:
            result = run_scan(target, RetrievalMode.RAW_LSAST, context=context)
            assert [f.line_start for f in result.scanner_findings] == [
                f.line_start for f in findings if f.file_path.endswith(target.name)
            ]
        # one parse per distinct finding path, then one per target
        assert len(parsed) == len({f.file_path for f in findings}) + len(targets)

    def test_corpus_digest_computed_once_per_corpus_state(self, js_target, context, tmp_path,
                                                          report_dicts, monkeypatch):
        from lsast.corpus import ReportCorpus, VulnerabilityReport

        context.corpus = ReportCorpus(context.corpus.directory)  # no memo yet
        records = []
        original = VulnerabilityReport.to_record
        monkeypatch.setattr(VulnerabilityReport, "to_record",
                            lambda self: records.append(self.id) or original(self))
        for _ in range(5):
            run_scan(js_target, RetrievalMode.COMBINED, context=context)
        assert len(records) == len(context.corpus)

        source = tmp_path / "extra.json"
        source.write_text(json.dumps([dict(report_dicts[0], id=60, title="added later")]))
        context.corpus.ingest_reports(source)
        records.clear()
        for _ in range(3):
            with pytest.raises(ConfigurationError):
                run_scan(js_target, RetrievalMode.COMBINED, context=context)
        assert len(records) == len(context.corpus)
        assert context.corpus.digest() == ReportCorpus(context.corpus.directory).digest()

    def test_fresh_list_per_target_gets_its_own_findings(self, tmp_path):
        targets = self._targets(tmp_path, 8)
        # each call builds a new list that only names the file being scanned,
        # so an index reused from an earlier list would find nothing
        context = ScanContext(gateway=MockGateway(),
                              scanner=lambda target: [finding_in(f"repo/{target.name}", line=7)])
        results = run_scan_batch(targets, RetrievalMode.RAW_LSAST, context=context)
        for target, result in zip(targets, results):
            assert [(f.file_path, f.line_start) for f in result.scanner_findings] == [
                (f"repo/{target.name}", 7)
            ]

    def test_parallel_scans_never_pair_a_list_with_another_lists_index(self, tmp_path):
        import sys

        targets = self._targets(tmp_path, 48)
        reports = [[finding_in(f"f{n}.js", line=line) for n in range(48)] for line in (1, 2, 3)]
        context = ScanContext(
            gateway=MockGateway(),
            scanner=lambda target: reports[int(target.stem[1:]) % 3],
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_scan_batch(targets, RetrievalMode.RAW_LSAST, context=context,
                                     parallelism=8)
        finally:
            sys.setswitchinterval(interval)
        for n, result in enumerate(results):
            assert [(f.file_path, f.line_start) for f in result.scanner_findings] == [
                (f"f{n}.js", n % 3 + 1)
            ]

    def test_persist_makes_no_deep_copy(self, tmp_path, monkeypatch):
        def no_deepcopy(*args, **kwargs):
            raise AssertionError("copy.deepcopy called while persisting")

        monkeypatch.setattr(copy, "deepcopy", no_deepcopy)
        path = persist_scan(pinned_result(), tmp_path / "scans")
        monkeypatch.undo()
        assert load_scan(path).result == pinned_result()

    def test_to_dict_shares_no_container_with_the_result(self):
        def containers(value, found):
            if isinstance(value, (list, dict)):
                found.add(id(value))
                for item in value.values() if isinstance(value, dict) else value:
                    containers(item, found)
            elif hasattr(value, "__dataclass_fields__"):
                for item in vars(value).values():
                    containers(item, found)
            return found

        result = pinned_result()
        data = result.to_dict()
        assert not containers(result, set()) & containers(data, set())
        data["scanner_findings"][0]["cwe_ids"].append("1")
        data["retrieved_report_ids"]["functionality"].append(9)
        data["timings"]["total_s"] = 9.0
        assert result == pinned_result()

    def test_concurrent_identical_targets_derive_each_key_once(self, tmp_path, context):
        first, second = tmp_path / "a.js", tmp_path / "b.js"
        for target in (first, second):
            target.write_text("var q = \"SELECT * FROM t WHERE a='\" + req.query.a + \"'\";\n")
        entered = {kind: 0 for kind in IndexKind}
        changed = threading.Condition()
        deriving = threading.local()
        model_derivations = []

        class CountingCache(DerivationCache):
            def derive(self, kind, code, llm):
                with changed:
                    entered[kind] += 1
                    changed.notify_all()
                deriving.kind = kind
                try:
                    return super().derive(kind, code, llm)
                finally:
                    deriving.kind = None

        class HeldDerivations(MockGateway):
            def complete(self, prompt):
                kind = getattr(deriving, "kind", None)
                if kind is not None:
                    model_derivations.append(kind)
                    # hold the model call until the other scan has asked for the same key
                    with changed:
                        assert changed.wait_for(lambda: entered[kind] == 2, timeout=10)
                return super().complete(prompt)

        context.gateway = HeldDerivations()
        context.cache = CountingCache()
        results = run_scan_batch([first, second], RetrievalMode.COMBINED, k=2,
                                 context=context, parallelism=2)
        assert entered == {kind: 2 for kind in IndexKind}
        assert sorted(model_derivations, key=lambda kind: kind.value) == [
            IndexKind.ABSTRACTION, IndexKind.FUNCTIONALITY
        ]
        assert results[0].prompt_digest == results[1].prompt_digest


class DerivationRecorder(MockGateway):
    """MockGateway that records each derivation's (kind, tag, thread) and the
    threads of its scan calls, and holds the first scan call until `ready()`
    holds.

    A target's tag is the number in its `var tag_<n>` line. Each derivation
    sleeps a few milliseconds, as a model server would; `empty_summary_for`
    names a tag whose functionality summary comes back empty.
    """

    def __init__(self, ready=lambda recorder: True, empty_summary_for=None):
        super().__init__()
        self.derivations = []
        self.ready = ready
        self.empty_summary_for = empty_summary_for
        self.first_scan_waited = None
        self.scan_threads = set()
        self._changed = threading.Condition()

    def complete(self, prompt):
        if "You are a very efficient vulnerability scanner." in prompt:
            with self._changed:
                self.scan_threads.add(threading.current_thread())
                if self.first_scan_waited is None:
                    self.first_scan_waited = self._changed.wait_for(
                        lambda: self.ready(self), timeout=5)
            return super().complete(prompt)
        kind = IndexKind.ABSTRACTION if "Code-Pattern:[xxxx]" in prompt else IndexKind.FUNCTIONALITY
        tag = int(prompt.split("var tag_", 1)[1].split(" ", 1)[0])
        time.sleep(0.003)
        with self._changed:
            self.derivations.append((kind, tag, threading.current_thread()))
            self._changed.notify_all()
        if kind is IndexKind.FUNCTIONALITY and tag == self.empty_summary_for:
            super().complete(prompt)
            return "  "
        return super().complete(prompt)


def tagged_targets(tmp_path, tags):
    """One file per tag, in order; files of one tag are byte-identical."""
    targets = []
    for position, tag in enumerate(tags):
        path = tmp_path / f"t{position:02d}.js"
        path.write_text(f"var tag_{tag} = req.query.a + '{tag}';\ndb.query(tag_{tag});\n")
        targets.append(path)
    return targets


def lone_outcomes(targets, mode, context, gateway=MockGateway):
    """Each target scanned alone by run_scan, with a cache and gateway of its own:
    its record essence, or its ScanError's message."""
    outcomes = []
    for target in targets:
        lone = dataclasses.replace(context, gateway=gateway(), cache=DerivationCache())
        try:
            outcomes.append(record_essence(run_scan(target, mode, 2, lone).to_dict()))
        except ScanError as exc:
            outcomes.append(str(exc))
    return outcomes


class TestDeriveAhead:

    def test_later_targets_derive_off_the_scan_thread_once_per_key(self, tmp_path, context):
        # 24 targets over 10 distinct texts; position 0's text appears nowhere else
        tags = [0] + [1 + i % 9 for i in range(23)]
        targets = tagged_targets(tmp_path, tags)
        keys = 2 * len(set(tags))
        context.gateway = DerivationRecorder(ready=lambda r: len(r.derivations) == keys)
        results = run_scan_batch(targets, RetrievalMode.COMBINED, k=2, context=context)

        derivations = context.gateway.derivations
        assert sorted((kind.value, tag) for kind, tag, _ in derivations) == sorted(
            (kind.value, tag) for kind in IndexKind for tag in set(tags))
        (scan_thread,) = context.gateway.scan_threads
        assert [tag for _, tag, thread in derivations if thread is scan_thread] == [0, 0]
        assert context.gateway.first_scan_waited is True
        assert [record_essence(r.to_dict()) for r in results] == lone_outcomes(
            targets, RetrievalMode.COMBINED, context)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_failed_derivation_ahead_fails_its_target_as_a_lone_scan(self, tmp_path, context,
                                                                     parallelism):
        tags = [0, 1, 2, 3, 4, 5]
        targets = tagged_targets(tmp_path, tags)
        context.gateway = DerivationRecorder(
            ready=lambda r: any(tag == 4 and thread is not scan_thread
                                for _, tag, thread in r.derivations),
            empty_summary_for=4)
        scan_thread = threading.current_thread()
        results = run_scan_batch(targets, RetrievalMode.FUNCTIONALITY, k=2, context=context,
                                 parallelism=parallelism)
        failure = results[4]
        assert isinstance(failure, ScanFailure)
        assert failure.error_type == "ScanError"
        serial = lone_outcomes(targets, RetrievalMode.FUNCTIONALITY, context,
                              lambda: DerivationRecorder(empty_summary_for=4))
        assert failure.error == serial[4]
        assert "functionality summary came back empty" in failure.error
        assert [record_essence(r.to_dict()) for r in results if isinstance(r, ScanResult)] == [
            essence for position, essence in enumerate(serial) if position != 4]
        # a worker tried it first, and the scan derived it again itself
        assert context.gateway.first_scan_waited is True
        assert [tag for _, tag, _ in context.gateway.derivations].count(4) == 2

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("case", ["success", "all_failed", "gateway_bug",
                                      "raw_success", "raw_all_failed", "raw_gateway_bug"])
    def test_no_thread_left_behind(self, tmp_path, context, case, parallelism):
        # a raw batch derives nothing, so its gateway bug strikes the scan call
        mode = RetrievalMode.RAW if case.startswith("raw_") else RetrievalMode.COMBINED
        case = case.removeprefix("raw_")

        class Gateway(DerivationRecorder):
            def complete(self, prompt):
                scan = "You are a very efficient vulnerability scanner." in prompt
                if case == "all_failed" and scan:
                    raise GatewayError("scan call refused")
                if case == "gateway_bug" and not (scan and mode.index_kinds):
                    raise RuntimeError("gateway bug")
                return super().complete(prompt)

        targets = tagged_targets(tmp_path, [n % 6 for n in range(12)])
        context.gateway = Gateway()
        before = set(threading.enumerate())
        expected = {"success": None, "all_failed": ScanError, "gateway_bug": RuntimeError}[case]
        if expected is None:
            results = run_scan_batch(targets, mode, k=2, context=context,
                                     parallelism=parallelism)
            assert all(isinstance(r, ScanResult) for r in results)
        else:
            with pytest.raises(expected):
                run_scan_batch(targets, mode, k=2, context=context, parallelism=parallelism)
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("fault", ["stale_index", "other_embedder", "k_zero"])
    @pytest.mark.parametrize("mode", [RetrievalMode.FUNCTIONALITY, RetrievalMode.COMBINED_LSAST])
    def test_refused_batch_makes_no_model_call(self, tmp_path, context, report_dicts,
                                               fault, mode):
        targets = tagged_targets(tmp_path, range(8))
        k = 2
        if fault == "stale_index":
            source = tmp_path / "extra.json"
            source.write_text(json.dumps([dict(report_dicts[0], id=60, title="added later")]))
            context.corpus.ingest_reports(source)
        elif fault == "other_embedder":
            context.embedder = OfflineEmbedder(dimension=64)
        else:
            k = 0
        with pytest.raises(ScanError):
            run_scan_batch(targets, mode, k=k, context=context)
        assert context.gateway.call_count == 0

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_batch_over_a_corrupt_catalog_reads_it_once(self, tmp_path, context, monkeypatch,
                                                        parallelism):
        catalog = context.corpus._snippets_path
        corrupt_catalog_line(catalog)
        context.corpus = ReportCorpus(catalog.parent)
        reads = spy_reads(monkeypatch)
        targets = tagged_targets(tmp_path, range(8))
        with pytest.raises(ScanError) as exc:
            run_scan_batch(targets, RetrievalMode.COMBINED_LSAST, k=2, context=context,
                           parallelism=parallelism)
        assert f"{catalog}:3: not valid JSON" in str(exc.value)
        assert reads == ["snippets.jsonl"]
        assert context.gateway.call_count == 0

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_target_over_the_line_budget_derives_nothing(self, tmp_path, context,
                                                          parallelism):
        # targets of 2 lines, and at positions 2, 3 and 5 targets of 4 lines
        targets = tagged_targets(tmp_path, range(8))
        for position in (2, 3, 5):
            with targets[position].open("a") as target:
                target.write("res.send(1);\nres.send(2);\n")
        context.line_budget = 3
        accepted = len(targets) - 3
        # the first scan call waits until every accepted target's keys are derived
        context.gateway = DerivationRecorder(
            ready=lambda r: len(r.derivations) >= 2 * accepted)
        mode = RetrievalMode.COMBINED
        results = run_scan_batch(targets, mode, k=2, context=context, parallelism=parallelism)

        lone_calls = 0
        for target, result in zip(targets, results):
            lone = dataclasses.replace(context, gateway=MockGateway(), cache=DerivationCache())
            if isinstance(result, ScanFailure):
                assert result.error_type == "AnnotationError"
                with pytest.raises(AnnotationError, match="line budget of 3"):
                    run_scan(target, mode, 2, lone)
            else:
                assert record_essence(result.to_dict()) == record_essence(
                    run_scan(target, mode, 2, lone).to_dict())
            lone_calls += lone.gateway.call_count
        assert [isinstance(r, ScanFailure) for r in results].count(True) == 3
        assert context.gateway.first_scan_waited is True
        assert context.gateway.call_count == lone_calls == 3 * accepted


SCAN_MARKER = "You are a very efficient vulnerability scanner."


class ScanCounter(MockGateway):
    """MockGateway that answers scans with one finding and records each scan
    prompt's digest. With `before_failing`, its first scan call fails once
    `before_failing()` has returned true."""

    def __init__(self, before_failing=None):
        super().__init__("CWE-ID: CWE-89\nReason: query built from input\nline: 2\n"
                         "code-snippet: db.query(x)")
        self.scans = []
        self.before_failing = before_failing

    def complete(self, prompt):
        if SCAN_MARKER in prompt:
            with self._lock:
                self.scans.append(hashlib.sha256(prompt.encode("utf-8")).hexdigest())
                first = len(self.scans) == 1
            if first and self.before_failing is not None:
                assert self.before_failing()
                raise GatewayError("scan call refused")
        return super().complete(prompt)


class TestScanReplies:
    """A batch asks the model once per distinct scan prompt."""

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_one_scan_call_per_distinct_prompt(self, tmp_path, context, parallelism):
        targets = tagged_targets(tmp_path, [0, 1, 0, 2, 1, 0, 0])
        context.scanner = lambda target: [finding_in(t.name, line=2) for t in targets]
        context.gateway = ScanCounter()
        mode = RetrievalMode.COMBINED_LSAST
        results = run_scan_batch(targets, mode, k=2, context=context, parallelism=parallelism)
        assert all(isinstance(r, ScanResult) and r.predicted for r in results)
        assert sorted(context.gateway.scans) == sorted({r.prompt_digest for r in results})
        assert len(context.gateway.scans) == 3
        assert [record_essence(r.to_dict()) for r in results] == lone_outcomes(
            targets, mode, context, ScanCounter)

    def test_identical_code_with_other_findings_is_asked_again(self, tmp_path, context):
        # the key is the prompt, not the code
        first, second = tagged_targets(tmp_path, [0, 0])
        context.scanner = lambda target: [finding_in(first.name, line=1),
                                          finding_in(second.name, line=2)]
        context.gateway = ScanCounter()
        results = run_scan_batch([first, second], RetrievalMode.RAW_LSAST, context=context,
                                 parallelism=2)
        assert results[0].prompt_digest != results[1].prompt_digest
        assert sorted(context.gateway.scans) == sorted(r.prompt_digest for r in results)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_failed_scan_call_is_made_again_by_its_duplicate(self, tmp_path, context,
                                                             parallelism):
        entered = []
        changed = threading.Condition()

        class CountingCache(DerivationCache):
            def scan_reply(self, prompt, prompt_digest, llm):
                with changed:
                    entered.append(prompt_digest)
                    changed.notify_all()
                return super().scan_reply(prompt, prompt_digest, llm)

        targets = tagged_targets(tmp_path, [0, 0])
        context.scanner = lambda target: [finding_in(t.name, line=2) for t in targets]

        def duplicate_asked():
            # at parallelism 2 the first call fails only once the duplicate waits on it
            with changed:
                return changed.wait_for(lambda: len(entered) == parallelism, timeout=10)

        context.gateway = gateway = ScanCounter(before_failing=duplicate_asked)
        context.cache = CountingCache()
        mode = RetrievalMode.RAW_LSAST
        results = run_scan_batch(targets, mode, k=2, context=context, parallelism=parallelism)

        (failure,) = [r for r in results if isinstance(r, ScanFailure)]
        (result,) = [r for r in results if isinstance(r, ScanResult)]
        assert len(gateway.scans) == 2
        assert gateway.scans[0] == gateway.scans[1] == result.prompt_digest
        assert [failure.error] == lone_outcomes(
            [Path(failure.target_path)], mode, context,
            lambda: ScanCounter(before_failing=lambda: True))
        assert [record_essence(result.to_dict())] == lone_outcomes(
            [Path(result.target_path)], mode, context, ScanCounter)
