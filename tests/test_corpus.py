import json

import pytest

from lsast.corpus import (
    CodeSnippet,
    ExtractionMethod,
    ReportCorpus,
    Severity,
    VulnerabilityReport,
    extract_code_snippets,
    fetch_reports_remote,
)
from lsast.errors import CorpusError, RemoteFetchError, ReportNotFoundError
from lsast.gateway import MockGateway


class TestSeverity:
    def test_recognized_levels(self):
        assert Severity.parse("High") == (Severity.HIGH, True)
        assert Severity.parse("critical") == (Severity.CRITICAL, True)

    def test_empty_and_none_variants_recognized(self):
        assert Severity.parse("") == (Severity.UNKNOWN, True)
        assert Severity.parse("none") == (Severity.UNKNOWN, True)

    def test_unrecognized_flags(self):
        level, recognized = Severity.parse("catastrophic")
        assert level is Severity.UNKNOWN
        assert recognized is False


class TestVulnerabilityReport:
    def test_record_round_trip(self, report_dicts):
        report, warnings = VulnerabilityReport.from_record(report_dicts[0])
        assert warnings == []
        assert report.id == 1
        assert report.cwe_id == "CWE-89"
        assert report.to_record() == report_dicts[0]

    def test_unparseable_cwe_cleared_with_warning(self, report_dicts):
        record = dict(report_dicts[0], **{"cwe-id": "???"})
        report, warnings = VulnerabilityReport.from_record(record)
        assert report.cwe_id == ""
        assert warnings

    def test_missing_cwe_warns(self, report_dicts):
        record = {k: v for k, v in report_dicts[0].items() if k != "cwe-id"}
        report, warnings = VulnerabilityReport.from_record(record)
        assert report.cwe_id == ""
        assert warnings

    def test_nested_weakness_supplies_cwe(self, report_dicts):
        record = {k: v for k, v in report_dicts[0].items()
                  if k not in ("cwe-id", "cwe-title")}
        record["weakness"] = {"id": 1337, "external_id": "cwe-89",
                              "name": "SQL Injection"}
        report, warnings = VulnerabilityReport.from_record(record)
        assert report.cwe_id == "CWE-89"
        assert report.cwe_title == "SQL Injection"
        assert warnings == []

    def test_nested_weakness_numeric_id_fallback(self, report_dicts):
        record = {k: v for k, v in report_dicts[0].items() if k != "cwe-id"}
        record["weakness"] = {"id": 79}
        report, _ = VulnerabilityReport.from_record(record)
        assert report.cwe_id == "CWE-79"

    def test_flat_cwe_wins_over_nested(self, report_dicts):
        record = dict(report_dicts[0])
        record["weakness"] = {"external_id": "cwe-22", "name": "Traversal"}
        report, _ = VulnerabilityReport.from_record(record)
        assert report.cwe_id == "CWE-89"
        assert report.cwe_title == report_dicts[0]["cwe-title"]

    def test_bad_id_rejected(self, report_dicts):
        with pytest.raises(ValueError):
            VulnerabilityReport.from_record(dict(report_dicts[0], id=0))
        with pytest.raises(ValueError):
            VulnerabilityReport.from_record(dict(report_dicts[0], id="seven"))


class TestExtractSnippets:
    def test_fenced_blocks_in_document_order(self, report_dicts):
        report, _ = VulnerabilityReport.from_record(report_dicts[0])
        snippets = extract_code_snippets(report)
        assert len(snippets) == 1
        assert snippets[0].extraction_method is ExtractionMethod.FENCED_BLOCK
        assert "SELECT * FROM t" in snippets[0].text

    def test_multiple_blocks_get_dense_ordinals(self):
        report = VulnerabilityReport(
            id=9, title="t", severity_rating="low", cve_ids=[], cwe_id="CWE-1",
            cwe_title="x",
            vulnerability_information="```\nfirst\n```\nmid\n```js\nsecond\n```",
        )
        snippets = extract_code_snippets(report)
        assert [s.ordinal for s in snippets] == [0, 1]
        assert [s.text for s in snippets] == ["first", "second"]

    def test_empty_fenced_block_skipped(self):
        report = VulnerabilityReport(
            id=9, title="t", severity_rating="low", cve_ids=[], cwe_id="CWE-1",
            cwe_title="x",
            vulnerability_information="```\n\n```\n```\nreal\n```",
        )
        snippets = extract_code_snippets(report)
        assert [s.text for s in snippets] == ["real"]

    def test_llm_fallback_when_no_fences(self, report_dicts):
        report, _ = VulnerabilityReport.from_record(report_dicts[2])
        snippets = extract_code_snippets(report, llm=MockGateway())
        assert len(snippets) == 1
        assert snippets[0].extraction_method is ExtractionMethod.LLM_EXTRACTED

    def test_no_fences_no_llm_returns_nothing(self, report_dicts):
        report, _ = VulnerabilityReport.from_record(report_dicts[2])
        assert extract_code_snippets(report, llm=None) == []


class TestReportCorpus:
    def test_ingest_list_file(self, corpus):
        assert len(corpus) == 3
        assert corpus.get_report(2).title == "Stored XSS in profile page"

    def test_ingest_jsonl_file(self, tmp_path, report_dicts):
        source = tmp_path / "reports.jsonl"
        source.write_text("\n".join(json.dumps(r) for r in report_dicts))
        corpus = ReportCorpus(tmp_path / "c")
        summary = corpus.ingest_reports(source)
        assert summary.count == 3

    def test_ingest_directory_recurses_sorted(self, tmp_path, report_dicts):
        src = tmp_path / "src"
        (src / "sub").mkdir(parents=True)
        (src / "a.json").write_text(json.dumps(report_dicts[0]))
        (src / "sub" / "b.json").write_text(json.dumps(report_dicts[1:]))
        corpus = ReportCorpus(tmp_path / "c")
        assert corpus.ingest_reports(src).count == 3

    def test_duplicate_ids_keep_first_with_warning(self, tmp_path, report_dicts):
        source = tmp_path / "reports.json"
        clone = dict(report_dicts[0], title="imposter")
        source.write_text(json.dumps([report_dicts[0], clone]))
        corpus = ReportCorpus(tmp_path / "c")
        summary = corpus.ingest_reports(source)
        assert summary.count == 1
        assert summary.warnings
        assert corpus.get_report(1).title == report_dicts[0]["title"]

    def test_malformed_record_skipped_with_warning(self, tmp_path, report_dicts):
        source = tmp_path / "reports.json"
        source.write_text(json.dumps([report_dicts[0], {"id": -4}]))
        corpus = ReportCorpus(tmp_path / "c")
        summary = corpus.ingest_reports(source)
        assert summary.count == 1
        assert summary.skipped == 1

    def test_missing_source_raises(self, tmp_path):
        corpus = ReportCorpus(tmp_path / "c")
        with pytest.raises(CorpusError):
            corpus.ingest_reports(tmp_path / "nope.json")

    def test_reload_from_disk(self, tmp_path, report_dicts):
        source = tmp_path / "reports.json"
        source.write_text(json.dumps(report_dicts))
        first = ReportCorpus(tmp_path / "c")
        first.ingest_reports(source)
        second = ReportCorpus(tmp_path / "c")
        assert len(second) == 3
        assert second.digest() == first.digest()

    def test_corrupt_store_line_names_location(self, tmp_path, report_dicts):
        source = tmp_path / "reports.json"
        source.write_text(json.dumps(report_dicts))
        corpus = ReportCorpus(tmp_path / "c")
        corpus.ingest_reports(source)
        store = tmp_path / "c" / "reports.jsonl"
        store.write_text(store.read_text() + "{broken\n")
        with pytest.raises(CorpusError) as exc:
            ReportCorpus(tmp_path / "c")
        assert "4" in str(exc.value)

    def test_ingest_into_replaced_directory_raises(self, tmp_path, report_dicts):
        corpus = ReportCorpus(tmp_path / "c")
        (tmp_path / "c").rmdir()
        (tmp_path / "c").write_text("not a directory\n")
        with pytest.raises(CorpusError, match="cannot write"):
            corpus.ingest_records(report_dicts)
        assert len(corpus) == 0

    def test_unknown_report_id(self, corpus):
        with pytest.raises(ReportNotFoundError):
            corpus.get_report(99)

    def test_digest_tracks_content(self, tmp_path, report_dicts):
        a = ReportCorpus(tmp_path / "a")
        b = ReportCorpus(tmp_path / "b")
        src1 = tmp_path / "one.json"
        src1.write_text(json.dumps(report_dicts[:1]))
        src2 = tmp_path / "two.json"
        src2.write_text(json.dumps(report_dicts))
        a.ingest_reports(src1)
        b.ingest_reports(src2)
        assert a.digest() != b.digest()


class TestSnippetCatalog:
    def test_sequences_start_at_one_in_stored_order(self, corpus):
        pairs = corpus.snippets()
        assert [seq for seq, _ in pairs] == [1, 2, 3]
        assert pairs[0][1].report_id == 1

    def test_catalog_counts(self, tmp_path, report_dicts):
        source = tmp_path / "reports.json"
        source.write_text(json.dumps(report_dicts))
        corpus = ReportCorpus(tmp_path / "c")
        corpus.ingest_reports(source)
        summary = corpus.build_snippet_catalog(llm=MockGateway())
        assert summary.count == 3
        assert summary.llm_extracted == 1
        assert summary.reports_without_code == 0

    def test_without_llm_report_lacking_fences_has_no_code(self, tmp_path, report_dicts):
        source = tmp_path / "reports.json"
        source.write_text(json.dumps(report_dicts))
        corpus = ReportCorpus(tmp_path / "c")
        corpus.ingest_reports(source)
        summary = corpus.build_snippet_catalog(llm=None)
        assert summary.count == 2
        assert summary.reports_without_code == 1

    def test_catalog_survives_reload(self, corpus, tmp_path):
        reloaded = ReportCorpus(corpus.directory)
        assert [seq for seq, _ in reloaded.snippets()] == [1, 2, 3]
        assert reloaded.catalog_corpus_digest == corpus.digest()

    def test_resolve_sequence(self, corpus):
        assert corpus.resolve_sequence(2).report_id == 2

    def test_catalog_records_corpus_digest(self, corpus):
        assert corpus.catalog_corpus_digest == corpus.digest()


class FakeResponse:
    def __init__(self, status_code=200, payload=None, headers=None, body_text="x"):
        self.status_code = status_code
        self._payload = payload
        self.headers = headers or {}
        self.text = body_text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def get(self, url, params=None, headers=None, timeout=None):
        self.requests.append({"url": url, "params": dict(params or {}),
                              "headers": dict(headers or {})})
        if not self.responses:
            raise AssertionError("fetch made more requests than scripted")
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class TestFetchRemote:
    def test_paginates_until_short_page(self, monkeypatch):
        monkeypatch.delenv("LSAST_HACKTIVITY_TOKEN", raising=False)
        page1 = FakeResponse(payload={"reports": [{"id": i} for i in range(1, 4)]})
        page2 = FakeResponse(payload={"reports": [{"id": 4}]})
        session = FakeSession([page1, page2])
        records = fetch_reports_remote("https://example.test/api", session=session,
                                       per_page=3, page_limit=10)
        assert [r["id"] for r in records] == [1, 2, 3, 4]
        assert [r["params"]["page"] for r in session.requests] == [1, 2]

    def test_stops_at_empty_page(self, monkeypatch):
        monkeypatch.delenv("LSAST_HACKTIVITY_TOKEN", raising=False)
        session = FakeSession([
            FakeResponse(payload={"data": [{"id": 1}, {"id": 2}]}),
            FakeResponse(payload={"data": []}),
        ])
        records = fetch_reports_remote("https://example.test/api", session=session,
                                       per_page=2, page_limit=10)
        assert len(records) == 2

    def test_bare_list_shape(self, monkeypatch):
        monkeypatch.delenv("LSAST_HACKTIVITY_TOKEN", raising=False)
        session = FakeSession([FakeResponse(payload=[{"id": 1}])])
        records = fetch_reports_remote("https://example.test/api", session=session)
        assert records == [{"id": 1}]

    def test_token_header_from_environment(self, monkeypatch):
        monkeypatch.setenv("LSAST_HACKTIVITY_TOKEN", "hx-secret")
        session = FakeSession([FakeResponse(payload=[])])
        fetch_reports_remote("https://example.test/api", session=session)
        assert session.requests[0]["headers"]["Authorization"] == "Bearer hx-secret"

    def test_rate_limit_then_success(self, monkeypatch):
        monkeypatch.delenv("LSAST_HACKTIVITY_TOKEN", raising=False)
        session = FakeSession([
            FakeResponse(status_code=429, headers={"Retry-After": "0"}),
            FakeResponse(payload=[{"id": 1}]),
        ])
        records = fetch_reports_remote("https://example.test/api", session=session)
        assert records == [{"id": 1}]

    def test_rate_limit_every_try_raises_without_extra_backoff(self, monkeypatch):
        monkeypatch.delenv("LSAST_HACKTIVITY_TOKEN", raising=False)
        sleeps = []
        monkeypatch.setattr("time.sleep", sleeps.append)
        session = FakeSession([FakeResponse(status_code=429, headers={"Retry-After": "0"})] * 3)
        with pytest.raises(RemoteFetchError, match="after 3 attempts"):
            fetch_reports_remote("https://example.test/api", session=session, retries=2)
        assert len(session.requests) == 3
        assert sleeps == [0.0, 0.0]  # Retry-After only, no backoff on top

    def test_server_error_raises(self, monkeypatch):
        monkeypatch.delenv("LSAST_HACKTIVITY_TOKEN", raising=False)
        session = FakeSession([FakeResponse(status_code=503)])
        with pytest.raises(RemoteFetchError):
            fetch_reports_remote("https://example.test/api", session=session)

    def test_non_json_body_raises(self, monkeypatch):
        monkeypatch.delenv("LSAST_HACKTIVITY_TOKEN", raising=False)
        session = FakeSession([FakeResponse(payload=None)])
        with pytest.raises(RemoteFetchError):
            fetch_reports_remote("https://example.test/api", session=session)

    def test_time_window_filters_dated_keeps_undated(self, monkeypatch):
        monkeypatch.delenv("LSAST_HACKTIVITY_TOKEN", raising=False)
        batch = [
            {"id": 1, "created_at": "2020-05-01T10:00:00Z"},
            {"id": 2, "created_at": "2023-01-01T00:00:00Z"},
            {"id": 3, "disclosed_at": "2020-07-15"},
            {"id": 4},
        ]
        session = FakeSession([FakeResponse(payload=batch)])
        records = fetch_reports_remote("https://example.test/api", session=session,
                                       time_window=("2020-01-01", "2020-12-31"))
        assert [r["id"] for r in records] == [1, 3, 4]
        assert session.requests[0]["params"]["from"] == "2020-01-01"

    def test_zero_page_limit_is_noop(self):
        assert fetch_reports_remote("https://example.test/api", page_limit=0) == []
