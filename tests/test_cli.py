import json
from pathlib import Path

import pytest

from lsast.cli import main
from lsast.corpus import ReportCorpus
from lsast.gateway import MockGateway
from test_corpus import corrupt_catalog_line


@pytest.fixture
def workspace(tmp_path, report_dicts, sast_record):
    """Config file plus on-disk inputs for a full command walkthrough."""
    corpus_dir = tmp_path / "corpus"
    index_dir = tmp_path / "indexes"
    scan_dir = tmp_path / "scans"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "corpus_dir": str(corpus_dir),
        "index_dir": str(index_dir),
        "scan_dir": str(scan_dir),
    }))

    reports_path = tmp_path / "reports.json"
    reports_path.write_text(json.dumps(report_dicts))

    target = tmp_path / "handler.js"
    target.write_text(
        "var db = require('../models')\n"
        "\n"
        "module.exports.userSearch = function (req, res) {\n"
        "\tvar q = \"SELECT * FROM Users WHERE login='\" + req.body.login + \"'\";\n"
        "\tdb.sequelize.query(q)\n"
        "}\n"
    )
    sast_path = tmp_path / "sast.json"
    sast_path.write_text(json.dumps(sast_record))

    return {
        "config": str(config_path),
        "reports": str(reports_path),
        "target": str(target),
        "sast": str(sast_path),
        "scan_dir": scan_dir,
        "index_dir": index_dir,
        "labels": str(tmp_path / "labels.jsonl"),
    }


def run(workspace, *argv):
    return main(["--config", workspace["config"], *argv])


class TestWalkthrough:
    def test_ingest_index_scan_eval_label(self, workspace, capsys):
        assert run(workspace, "ingest", "--reports", workspace["reports"]) == 0
        out = capsys.readouterr().out
        assert "corpus now holds 3 reports" in out
        assert "snippet catalog" in out

        assert run(workspace, "index") == 0
        capsys.readouterr()
        assert (workspace["index_dir"] / "functionality.jsonl").exists()
        assert (workspace["index_dir"] / "abstraction.jsonl").exists()

        assert run(workspace, "scan", workspace["target"],
                   "--mode", "Combined-LSAST",
                   "--sast-json", workspace["sast"],
                   "--out", str(workspace["scan_dir"]),
                   "--format", "jsonl") == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out.strip())
        assert payload["mode"] == "combined_lsast"
        assert "wrote" in captured.err
        records = list(workspace["scan_dir"].glob("scan-*.json"))
        assert len(records) == 1
        record_id = json.loads(records[0].read_text())["record_id"]

        assert run(workspace, "eval", "--format", "table") == 0
        table = capsys.readouterr().out
        assert "Measure" in table
        assert "combined_lsast" in table

        assert run(workspace, "eval", "--format", "json") == 0
        columns = json.loads(capsys.readouterr().out)["columns"]
        assert [c["name"] for c in columns] == ["combined_lsast"]
        # mock model reports nothing; the scanner's CWE-943 goes unanswered
        assert columns[0]["counts"] == {"tp": 0, "fp": 0, "fn": 1, "tn": 0}

        assert run(workspace, "eval", "--retrieval", "--format", "json") == 0
        retrieval = json.loads(capsys.readouterr().out)["columns"]
        assert retrieval[0]["counts"]["tp"] == 0  # no fixture report covers CWE-943
        assert retrieval[0]["counts"]["fn"] == 1

        assert run(workspace, "label", "--labels", workspace["labels"],
                   "--record", record_id, "--verdict", "fn",
                   "--note", "missed the injection") == 0
        assert "recorded false_negative" in capsys.readouterr().out

        assert run(workspace, "label", "--labels", workspace["labels"],
                   "--list") == 0
        listing = capsys.readouterr().out
        assert record_id in listing
        assert "finding=-1" in listing

        assert run(workspace, "eval", "--truth", "labels",
                   "--labels", workspace["labels"], "--format", "json") == 0
        labeled = json.loads(capsys.readouterr().out)["columns"]
        assert labeled[0]["counts"] == {"tp": 0, "fp": 0, "fn": 1, "tn": 0}

    def test_scan_text_format(self, workspace, capsys):
        run(workspace, "ingest", "--reports", workspace["reports"])
        run(workspace, "index")
        capsys.readouterr()
        assert run(workspace, "scan", workspace["target"],
                   "--mode", "combined_lsast",
                   "--sast-json", workspace["sast"]) == 0
        out = capsys.readouterr().out
        assert f"== {workspace['target']} [combined_lsast, k=3]" in out
        assert "scanner findings: 1" in out
        assert "retrieval: reports" in out
        assert "no additional vulnerabilities reported" in out


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_mode_is_usage_error(self, workspace):
        assert run(workspace, "scan", workspace["target"],
                   "--mode", "telepathy") == 2

    def test_domain_error_is_one(self, workspace, capsys):
        # index before ingest: no corpus, and none is left behind
        assert run(workspace, "index") == 1
        assert "run ingest first" in capsys.readouterr().err
        assert not (Path(workspace["config"]).parent / "corpus").exists()

    def test_fetch_without_endpoint_leaves_no_corpus(self, workspace, capsys):
        assert run(workspace, "ingest", "--reports", workspace["reports"], "--fetch") == 1
        assert "--fetch needs fetch_endpoint" in capsys.readouterr().err
        assert not (Path(workspace["config"]).parent / "corpus").exists()

    def test_index_without_catalog_fails(self, workspace, capsys):
        assert run(workspace, "ingest", "--reports", workspace["reports"],
                   "--no-catalog") == 0
        capsys.readouterr()
        assert run(workspace, "index") == 1
        err = capsys.readouterr().err
        assert "no snippet catalog" in err
        assert str(Path(workspace["config"]).parent / "corpus") in err
        assert not workspace["index_dir"].exists()

    def test_ingest_needs_a_source(self, workspace, capsys):
        assert run(workspace, "ingest") == 1
        capsys.readouterr()

    def test_eval_missing_directory_fails(self, workspace, capsys):
        assert run(workspace, "eval") == 1
        assert "does not exist" in capsys.readouterr().err

    def test_eval_empty_directory_fails(self, workspace, capsys):
        workspace["scan_dir"].mkdir(parents=True)
        assert run(workspace, "eval") == 1
        assert "no scan records" in capsys.readouterr().err

    def test_index_dir_under_a_file_fails_cleanly(self, workspace, tmp_path, capsys):
        assert run(workspace, "ingest", "--reports", workspace["reports"]) == 0
        (tmp_path / "idxfile").write_text("not a directory\n")
        config = json.loads(Path(workspace["config"]).read_text())
        config["index_dir"] = str(tmp_path / "idxfile" / "sub")
        Path(workspace["config"]).write_text(json.dumps(config))
        capsys.readouterr()
        assert run(workspace, "index") == 1
        err = capsys.readouterr().err
        assert "error: cannot write" in err
        assert "functionality.jsonl" in err

    def test_corpus_dir_under_a_file_fails_cleanly(self, workspace, tmp_path, capsys):
        (tmp_path / "afile").write_text("not a directory\n")
        config = json.loads(Path(workspace["config"]).read_text())
        config["corpus_dir"] = str(tmp_path / "afile" / "corpus")
        Path(workspace["config"]).write_text(json.dumps(config))
        # ingest is the one command that creates the corpus
        assert run(workspace, "ingest", "--reports", workspace["reports"]) == 1
        assert "error: cannot create corpus directory" in capsys.readouterr().err

    def test_scan_failure_exits_one(self, workspace, capsys):
        run(workspace, "ingest", "--reports", workspace["reports"])
        run(workspace, "index")
        capsys.readouterr()
        empty = workspace["scan_dir"].parent / "empty.js"
        empty.write_text("")
        assert run(workspace, "scan", str(empty), "--mode", "raw") == 1
        assert "error:" in capsys.readouterr().err


class TestLabelValidation:
    def _scanned(self, workspace, capsys):
        run(workspace, "ingest", "--reports", workspace["reports"])
        run(workspace, "index")
        run(workspace, "scan", workspace["target"], "--mode", "raw",
            "--out", str(workspace["scan_dir"]))
        capsys.readouterr()
        record = list(workspace["scan_dir"].glob("scan-*.json"))[0]
        return json.loads(record.read_text())["record_id"]

    def test_unknown_record_rejected(self, workspace, capsys):
        self._scanned(workspace, capsys)
        assert run(workspace, "label", "--labels", workspace["labels"],
                   "--record", "nope", "--verdict", "tp", "--finding", "0") == 1
        assert "no scan record" in capsys.readouterr().err

    def test_out_of_range_finding_rejected(self, workspace, capsys):
        record_id = self._scanned(workspace, capsys)
        assert run(workspace, "label", "--labels", workspace["labels"],
                   "--record", record_id, "--verdict", "tp",
                   "--finding", "5") == 1
        assert "out of range" in capsys.readouterr().err

    def test_non_fn_requires_finding(self, workspace, capsys):
        record_id = self._scanned(workspace, capsys)
        assert run(workspace, "label", "--labels", workspace["labels"],
                   "--record", record_id, "--verdict", "tp") == 1
        assert "--finding" in capsys.readouterr().err

    def test_fn_rejects_explicit_index(self, workspace, capsys):
        record_id = self._scanned(workspace, capsys)
        assert run(workspace, "label", "--labels", workspace["labels"],
                   "--record", record_id, "--verdict", "fn",
                   "--finding", "2") == 1
        assert "-1" in capsys.readouterr().err

    def test_labels_file_under_a_file_fails_cleanly(self, workspace, tmp_path, capsys):
        record_id = self._scanned(workspace, capsys)
        (tmp_path / "afile").write_text("not a directory\n")
        labels = tmp_path / "afile" / "labels.jsonl"
        assert run(workspace, "label", "--labels", str(labels),
                   "--record", record_id, "--verdict", "fn") == 1
        assert f"error: cannot write {labels}" in capsys.readouterr().err

    def test_list_with_no_file_is_fine(self, workspace, capsys):
        assert run(workspace, "label", "--labels", workspace["labels"],
                   "--list") == 0
        assert "no labels" in capsys.readouterr().out


class TestEvalRegimes:
    def _scanned(self, workspace, capsys):
        run(workspace, "scan", workspace["target"], "--mode", "raw_lsast",
            "--sast-json", workspace["sast"], "--out", str(workspace["scan_dir"]))
        capsys.readouterr()
        record = list(workspace["scan_dir"].glob("scan-*.json"))[0]
        return json.loads(record.read_text())["record_id"]

    @pytest.mark.parametrize("regime", [["--retrieval"], ["--truth", "labels"]])
    def test_truth_file_outside_scanner_regime_rejected(self, workspace, capsys,
                                                        tmp_path, regime):
        self._scanned(workspace, capsys)
        truth = tmp_path / "truth.jsonl"
        truth.write_text(json.dumps({"file": "handler.js", "cwe": "79",
                                     "line_start": 1}) + "\n")
        labels = tmp_path / "labels.jsonl"
        labels.write_text("")
        assert run(workspace, "eval", *regime, "--labels", str(labels),
                   "--truth-file", str(truth)) == 1
        assert "--truth-file" in capsys.readouterr().err

    def test_label_out_of_range_finding_rejected(self, workspace, capsys, tmp_path):
        record_id = self._scanned(workspace, capsys)
        labels = tmp_path / "labels.jsonl"
        labels.write_text(json.dumps({"record": record_id, "finding": 3,
                                      "verdict": "tp"}) + "\n")
        assert run(workspace, "eval", "--truth", "labels",
                   "--labels", str(labels)) == 1
        assert "out of range" in capsys.readouterr().err

    def test_false_negative_labels_keyed_by_note(self, workspace, capsys, tmp_path):
        record_id = self._scanned(workspace, capsys)
        labels = tmp_path / "labels.jsonl"
        fn = {"record": record_id, "finding": -1, "verdict": "fn"}
        labels.write_text("".join(json.dumps(item) + "\n" for item in (
            dict(fn, note="missed sqli"), dict(fn, note="missed xss"), dict(fn, note="missed xss"),
        )))
        assert run(workspace, "eval", "--truth", "labels", "--labels", str(labels),
                   "--format", "json") == 0
        assert json.loads(capsys.readouterr().out)["columns"][0]["counts"]["fn"] == 2
        with labels.open("a") as handle:
            handle.write(json.dumps(dict(fn, finding=7)) + "\n")
        assert run(workspace, "eval", "--truth", "labels", "--labels", str(labels)) == 1
        assert "finding index -1" in capsys.readouterr().err


    def test_duplicate_label_withdraws_a_miss(self, workspace, capsys, tmp_path):
        record_id = self._scanned(workspace, capsys)
        labels = tmp_path / "labels.jsonl"
        for verdict in ("fn", "duplicate"):
            assert run(workspace, "label", "--labels", str(labels), "--record", record_id,
                       "--verdict", verdict, "--finding", "-1", "--note", "missed sqli") == 0
        assert "recorded duplicate" in capsys.readouterr().out
        assert run(workspace, "eval", "--truth", "labels", "--labels", str(labels),
                   "--format", "json") == 0
        assert json.loads(capsys.readouterr().out)["columns"][0]["counts"]["fn"] == 0
        assert run(workspace, "label", "--labels", str(labels), "--record", record_id,
                   "--verdict", "tp", "--finding", "-1") == 1
        assert "need a finding" in capsys.readouterr().err

    def test_withdrawal_that_names_no_miss_refused(self, workspace, capsys, tmp_path):
        record_id = self._scanned(workspace, capsys)
        labels = tmp_path / "labels.jsonl"

        def label(verdict, note):
            return run(workspace, "label", "--labels", str(labels), "--record", record_id,
                       "--verdict", verdict, "--finding", "-1", "--note", note)

        assert label("duplicate", "missed sqli") == 1  # no labels file yet
        assert not labels.exists()
        assert label("fn", "missed sqli") == 0
        written = labels.read_text()
        capsys.readouterr()
        assert label("duplicate", "missed sqlj") == 1
        err = capsys.readouterr().err
        assert record_id in err and "'missed sqlj'" in err
        assert labels.read_text() == written

    def test_rerun_records_counted_once(self, workspace, capsys, tmp_path):
        target = tmp_path / "t.js"
        target.write_text("var a = req.query.a;\nres.send(a);\ndb.query(a);\n")
        sast = tmp_path / "t-sast.json"
        sast.write_text(json.dumps([
            {"cwe_ids": ["79"], "id": "xss", "title": "xss", "full_filename": "t.js",
             "source": {"start": 2, "end": 2}},
            {"cwe_ids": ["89"], "id": "sqli", "title": "sqli", "full_filename": "t.js",
             "source": {"start": 3, "end": 3}},
        ]))
        for _ in range(2):
            assert run(workspace, "scan", str(target), "--mode", "raw_lsast",
                       "--sast-json", str(sast), "--out", str(workspace["scan_dir"])) == 0
        assert len(list(workspace["scan_dir"].glob("scan-*.json"))) == 2
        capsys.readouterr()
        for regime in ([], ["--retrieval"]):
            assert run(workspace, "eval", *regime, "--format", "json") == 0
            captured = capsys.readouterr()
            assert json.loads(captured.out)["columns"][0]["counts"]["fn"] == 2
            assert "1 duplicate records counted once" in captured.err

    def test_truth_file_paths_parsed_once_per_eval(self, workspace, capsys, tmp_path,
                                                    monkeypatch):
        import lsast.sast as sast

        other = tmp_path / "other.js"
        other.write_text("var b = req.query.b;\n")
        for target in (workspace["target"], str(other)):
            assert run(workspace, "scan", target, "--mode", "raw",
                       "--out", str(workspace["scan_dir"])) == 0
        truth = tmp_path / "truth.jsonl"
        truth.write_text("".join(json.dumps(item) + "\n" for item in (
            {"file": "/ci/app/handler.js", "cwe": "89", "line_start": 4},
            {"file": "handler.js", "cwe": "79", "line_start": 5},
            {"file": "other.js", "cwe": "22", "line_start": 1},
            {"file": "app/unscanned.js", "cwe": "78", "line_start": 1},
        )))
        capsys.readouterr()
        parsed = []
        original = sast._path_parts
        monkeypatch.setattr(sast, "_path_parts", lambda path: parsed.append(path) or original(path))
        assert run(workspace, "eval", "--truth-file", str(truth), "--format", "json") == 0
        # /ci/app/handler.js shares only a basename with the scanned handler.js
        assert json.loads(capsys.readouterr().out)["columns"][0]["counts"]["fn"] == 2
        # one parse per truth item, then one per record
        assert len(parsed) == 4 + 2


class TestReadOnlyCorpus:
    """scan and eval read the corpus; only ingest and index create it."""

    def _without_corpus(self, workspace, tmp_path):
        missing = tmp_path / "no-corpus"
        config = json.loads(Path(workspace["config"]).read_text())
        config["corpus_dir"] = str(missing)
        Path(workspace["config"]).write_text(json.dumps(config))
        return missing

    def test_eval_retrieval_leaves_no_corpus_directory(self, workspace, capsys, tmp_path):
        missing = self._without_corpus(workspace, tmp_path)
        assert run(workspace, "scan", workspace["target"], "--mode", "raw_lsast",
                   "--sast-json", workspace["sast"], "--out", str(workspace["scan_dir"])) == 0
        capsys.readouterr()
        assert run(workspace, "eval", "--retrieval", "--format", "json") == 0
        assert json.loads(capsys.readouterr().out)["columns"][0]["counts"]["fn"] == 1
        assert not missing.exists()

    def test_eval_retrieval_needs_the_corpus_it_retrieved_from(self, workspace, capsys,
                                                               tmp_path):
        assert run(workspace, "ingest", "--reports", workspace["reports"]) == 0
        assert run(workspace, "index") == 0
        assert run(workspace, "scan", workspace["target"], "--mode", "combined",
                   "--out", str(workspace["scan_dir"])) == 0
        missing = self._without_corpus(workspace, tmp_path)
        capsys.readouterr()
        assert run(workspace, "eval", "--retrieval") == 1
        err = capsys.readouterr().err
        assert f"corpus directory {missing} does not exist" in err
        assert not missing.exists()

    def test_retrieval_scan_without_corpus_fails_cleanly(self, workspace, capsys, tmp_path):
        missing = self._without_corpus(workspace, tmp_path)
        assert run(workspace, "scan", workspace["target"], "--mode", "functionality") == 1
        assert f"error: corpus directory {missing} does not exist" in capsys.readouterr().err
        assert not missing.exists()


class TestCatalogOnFirstUse:
    """Only the commands that resolve snippets read the snippet catalog."""

    def _catalog(self, workspace):
        return Path(workspace["config"]).parent / "corpus" / "snippets.jsonl"

    def test_ingest_replaces_a_corrupt_catalog(self, workspace, capsys, tmp_path,
                                               report_dicts):
        assert run(workspace, "ingest", "--reports", workspace["reports"]) == 0
        corrupt_catalog_line(self._catalog(workspace))
        more = tmp_path / "more.json"
        more.write_text(json.dumps([dict(report_dicts[0], id=60, title="added later")]))
        capsys.readouterr()
        assert run(workspace, "ingest", "--reports", str(more)) == 0
        assert "corpus now holds 4 reports" in capsys.readouterr().out

        fresh = ReportCorpus(tmp_path / "fresh")
        fresh.ingest_reports(workspace["reports"])
        fresh.ingest_reports(more)
        fresh.build_snippet_catalog(llm=MockGateway())
        assert self._catalog(workspace).read_bytes() == fresh._snippets_path.read_bytes()
        assert run(workspace, "index") == 0

    def test_index_names_the_corrupt_catalog_line(self, workspace, capsys):
        assert run(workspace, "ingest", "--reports", workspace["reports"]) == 0
        corrupt_catalog_line(self._catalog(workspace))
        capsys.readouterr()
        assert run(workspace, "index") == 1
        assert f"error: {self._catalog(workspace)}:3: not valid JSON" in capsys.readouterr().err
        assert not workspace["index_dir"].exists()

    @pytest.mark.parametrize("damage", ["deleted", "corrupt"])
    def test_eval_retrieval_reads_no_catalog(self, workspace, capsys, damage):
        assert run(workspace, "ingest", "--reports", workspace["reports"]) == 0
        assert run(workspace, "index") == 0
        assert run(workspace, "scan", workspace["target"], "--mode", "combined_lsast",
                   "--sast-json", workspace["sast"], "--out", str(workspace["scan_dir"])) == 0
        capsys.readouterr()
        assert run(workspace, "eval", "--retrieval", "--format", "json") == 0
        before = capsys.readouterr().out
        if damage == "deleted":
            self._catalog(workspace).unlink()
        else:
            corrupt_catalog_line(self._catalog(workspace))
        assert run(workspace, "eval", "--retrieval", "--format", "json") == 0
        assert capsys.readouterr().out == before
        assert json.loads(before)["columns"][0]["counts"]["fn"] == 1


class TestIngestFetch:
    def test_fetched_records_ingested_without_staging(self, workspace, tmp_path,
                                                      report_dicts, monkeypatch,
                                                      capsys):
        import tempfile

        import lsast.cli

        config_path = tmp_path / "fetch-config.json"
        config = json.loads(Path(workspace["config"]).read_text())
        config["fetch_endpoint"] = "https://reports.invalid/api"
        config_path.write_text(json.dumps(config))
        fetched = [*report_dicts, dict(report_dicts[0], title="again"),
                   {"title": "no id at all"}]
        monkeypatch.setattr(lsast.cli, "fetch_reports_remote",
                            lambda endpoint, **kwargs: fetched)

        def no_staging(*args, **kwargs):
            raise AssertionError("fetched records were staged in a temp file")

        monkeypatch.setattr(tempfile, "mkstemp", no_staging)
        monkeypatch.setattr(tempfile, "NamedTemporaryFile", no_staging)

        assert main(["--config", str(config_path), "ingest", "--fetch",
                     "--no-catalog"]) == 0
        captured = capsys.readouterr()
        assert "fetched 5 records: corpus now holds 3 reports (1 records skipped)" \
            in captured.out
        assert f"record 3: duplicate id {report_dicts[0]['id']}, first kept" in captured.err
        assert "record 4: report record has no usable id, skipped" in captured.err


class TestConfigErrors:
    def test_secret_in_config_file_blocks_startup(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"api_key": "sk-nope"}))
        assert main(["--config", str(config_path), "index"]) == 1
        err = capsys.readouterr().err
        assert "environment-only" in err
        assert "sk-nope" not in err


GOLDEN = Path(__file__).resolve().parent / "golden" / "eval"
EVAL_REGIMES = {
    "scanner": [],
    "tolerance": ["--line-tolerance", "2"],
    "truth_file": ["--truth-file", "{truth}"],
    "labels": ["--truth", "labels", "--labels", "{labels}"],
    "retrieval": ["--retrieval"],
}


class TestEvalGolden:
    """`lsast eval` output, byte for byte, for every regime and format.

    Each file under tests/golden/eval holds the stdout, a separator line and
    the stderr of one run over the record set built below: four records over
    three modes plus one re-run duplicate, a column whose five ratios all
    have zero denominators, a label override and a duplicate verdict, and a
    retrieved report without a cwe-id.
    """

    @pytest.fixture
    def records(self, workspace, report_dicts, tmp_path, capsys):
        from lsast.gateway import PredictedFinding
        from lsast.pipeline import RetrievalMode, ScanResult, persist_scan
        from lsast.sast import Finding

        reports = tmp_path / "golden-reports.json"
        reports.write_text(json.dumps([*report_dicts, {"id": 4, "title": "no weakness"}]))
        assert run(workspace, "ingest", "--reports", str(reports), "--no-catalog") == 0

        def finding(cwe, start, end):
            return Finding(cwe_ids=[cwe], rule_id=f"r{cwe}", title="t", description="d",
                           file_path="app/a.js", line_start=start, line_end=end)

        def predicted(cwe, line):
            return PredictedFinding(cwe_id=cwe, reason="r", line_start=line, line_end=line,
                                    code_snippet="x")

        scans = [
            ScanResult(target_path="app/a.js", mode=RetrievalMode.RAW_LSAST, k=3,
                       scanner_findings=[finding("89", 3, 4), finding("79", 7, 7)],
                       predicted=[predicted("CWE-89", 4), predicted("CWE-79", 9),
                                  predicted("CWE-22", 12)]),
            ScanResult(target_path="app/b.js", mode=RetrievalMode.COMBINED_LSAST, k=3,
                       scanner_findings=[finding("79", 2, 2)],
                       retrieved_report_ids={"functionality": [2, 1], "abstraction": [2, 4]},
                       predicted=[predicted("CWE-79", 2)]),
            ScanResult(target_path="app/c.js", mode=RetrievalMode.COMBINED_LSAST, k=3,
                       none_found=True),
            ScanResult(target_path="app/d.js", mode=RetrievalMode.RAW, k=3, none_found=True),
        ]
        ids = [json.loads(persist_scan(scan, workspace["scan_dir"]).read_text())["record_id"]
               for scan in scans]
        persist_scan(scans[0], workspace["scan_dir"])  # a re-run of the first scan

        truth = tmp_path / "truth.jsonl"
        truth.write_text("".join(json.dumps(item) + "\n" for item in (
            {"file": "a.js", "cwe": "89", "line_start": 3, "line_end": 5},
            {"file": "app/b.js", "cwe": "CWE-79", "line_start": 2},
            {"file": "c.js", "cwe": "22", "line_start": 4},
        )))
        a, b, c, _ = ids
        labels = tmp_path / "labels.jsonl"
        labels.write_text("".join(json.dumps(item) + "\n" for item in (
            {"record": a, "finding": 0, "verdict": "tp"},
            {"record": a, "finding": 1, "verdict": "tp"},
            {"record": a, "finding": 1, "verdict": "fp"},
            {"record": a, "finding": 2, "verdict": "fp"},
            {"record": a, "finding": 2, "verdict": "dup"},
            {"record": a, "finding": -1, "verdict": "fn"},
            {"record": b, "finding": 0, "verdict": "true_positive"},
            {"record": c, "finding": -1, "verdict": "fn"},
        )))
        capsys.readouterr()
        return {"truth": str(truth), "labels": str(labels)}

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("regime", list(EVAL_REGIMES))
    def test_output_pinned(self, workspace, records, capsys, regime, fmt):
        argv = [arg.format(**records) for arg in EVAL_REGIMES[regime]]
        assert run(workspace, "eval", *argv, "--format", fmt) == 0
        captured = capsys.readouterr()
        expected = (GOLDEN / f"{regime}-{fmt}.txt").read_text(encoding="utf-8")
        assert captured.out + "--- stderr ---\n" + captured.err == expected
