"""Vulnerability-report corpus: ingestion, persistence, snippet extraction.

Storage layout under the corpus directory:
    reports.jsonl   one canonical JSON record per line, append-only
    snippets.jsonl  header line, then one snippet record per line

Record field names follow the upstream report schema and are normative:
id, title, severity_rating, cve_ids, cwe-id, cwe-title,
vulnerability_information.

Sequence numbers: the snippet catalog assigns a stable integer (starting at
1) to every (report, snippet ordinal) pair, enumerating reports in stored
order. Vector indexes store only the sequence; correlation resolves it back
through the catalog, so a catalog built against a different corpus state is
detectable via the recorded corpus digest.
"""

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import requests

from .errors import CorpusError, ReportNotFoundError, RemoteFetchError
from .index import abstract_code
from .jsonio import append_jsonl, canonical_json, read_jsonl, replacing
from .sast import normalize_cwe
from .transport import send

HACKTIVITY_TOKEN_ENV = "LSAST_HACKTIVITY_TOKEN"

_FENCED_BLOCK_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


class Severity(Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
    CRITICAL = "critical"
    UNKNOWN = "unknown"

    @classmethod
    def parse(cls, value) -> tuple["Severity", bool]:
        """Normalize a severity string; returns (severity, recognized)."""
        text = str(value).strip().lower() if value is not None else ""
        if text in ("", "none", "unknown"):
            return cls.UNKNOWN, True
        try:
            return cls(text), True
        except ValueError:
            return cls.UNKNOWN, False


class ExtractionMethod(Enum):
    FENCED_BLOCK = "fenced_block"
    LLM_EXTRACTED = "llm_extracted"


@dataclass
class VulnerabilityReport:
    """One disclosed vulnerability report."""

    id: int
    title: str
    severity_rating: Severity
    cve_ids: list[str]
    cwe_id: str  # "CWE-<n>" or "" when the report carries none
    cwe_title: str
    vulnerability_information: str

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "severity_rating": self.severity_rating.value,
            "cve_ids": list(self.cve_ids),
            "cwe-id": self.cwe_id,
            "cwe-title": self.cwe_title,
            "vulnerability_information": self.vulnerability_information,
        }

    @classmethod
    def from_record(cls, record: dict) -> tuple["VulnerabilityReport", list[str]]:
        """Build a report from a raw record; returns (report, warnings).

        Raises:
            ValueError: record is not an object or lacks a usable integer id.
        """
        if not isinstance(record, dict):
            raise ValueError(f"report record must be an object, got {type(record).__name__}")
        raw_id = record.get("id")
        if isinstance(raw_id, bool) or not isinstance(raw_id, (int, str)):
            raise ValueError("report record has no usable id")
        try:
            report_id = int(raw_id)
        except (TypeError, ValueError):
            raise ValueError(f"report id {raw_id!r} is not an integer") from None
        if report_id <= 0:
            raise ValueError(f"report id must be positive, got {report_id}")

        warnings = []
        severity, recognized = Severity.parse(record.get("severity_rating"))
        if not recognized:
            warnings.append(
                f"report {report_id}: unrecognized severity "
                f"{record.get('severity_rating')!r}, mapped to unknown"
            )

        raw_cwe = record.get("cwe-id", "")
        cwe_title = str(record.get("cwe-title", ""))
        weakness = record.get("weakness")
        if isinstance(weakness, dict):
            # fetched records nest the weakness; flat fields win when both exist
            if not raw_cwe:
                raw_cwe = weakness.get("external_id") or weakness.get("id") or ""
            if not cwe_title:
                cwe_title = str(weakness.get("name", ""))
        cwe_id = ""
        if raw_cwe:
            normalized = normalize_cwe(raw_cwe)
            if normalized is None:
                warnings.append(f"report {report_id}: unparseable cwe-id {raw_cwe!r}, cleared")
            else:
                cwe_id = normalized
        else:
            warnings.append(f"report {report_id}: no cwe-id")

        cve_ids = record.get("cve_ids") or []
        if not isinstance(cve_ids, list):
            cve_ids = [str(cve_ids)]
        report = cls(
            id=report_id,
            title=str(record.get("title", "")),
            severity_rating=severity,
            cve_ids=[str(c) for c in cve_ids],
            cwe_id=cwe_id,
            cwe_title=cwe_title,
            vulnerability_information=str(record.get("vulnerability_information", "")),
        )
        return report, warnings


@dataclass
class CodeSnippet:
    """One code snippet extracted from a report body."""

    report_id: int
    ordinal: int
    text: str
    extraction_method: ExtractionMethod

    def to_record(self, sequence: int) -> dict:
        return {
            "sequence": sequence,
            "report_id": self.report_id,
            "ordinal": self.ordinal,
            "text": self.text,
            "method": self.extraction_method.value,
        }


@dataclass
class IngestSummary:
    count: int
    skipped: int = 0
    warnings: list[str] = field(default_factory=list)


@dataclass
class CatalogSummary:
    count: int
    llm_extracted: int = 0
    reports_without_code: int = 0


def extract_code_snippets(report: VulnerabilityReport, llm=None) -> list[CodeSnippet]:
    """Pull code snippets out of a report body.

    Fenced code blocks win (document order, info string dropped, blocks that
    are empty after trimming skipped). Only when none exist and a gateway is
    supplied is a single llm_extracted snippet requested via the code-pattern
    protocol; the "no code" answer yields an empty list.

    Raises:
        GatewayError / DerivationError: gateway failed or answered without
            the marker. Distinct from "no code present", which returns [].
    """
    body = report.vulnerability_information
    texts = []
    for match in _FENCED_BLOCK_RE.finditer(body):
        text = match.group(1).strip("\n")
        if text.strip():
            texts.append(text)
    if texts:
        return [
            CodeSnippet(report.id, ordinal, text, ExtractionMethod.FENCED_BLOCK)
            for ordinal, text in enumerate(texts)
        ]
    if llm is None or not body.strip():
        return []
    pattern = abstract_code(body, llm)
    if pattern is None or not pattern.strip():
        return []
    return [CodeSnippet(report.id, 0, pattern, ExtractionMethod.LLM_EXTRACTED)]


class ReportCorpus:
    """Persistent, id-keyed store of vulnerability reports.

    Concurrent readers are safe; ingestion assumes a single writer.
    """

    REPORTS_FILE = "reports.jsonl"
    SNIPPETS_FILE = "snippets.jsonl"
    CATALOG_VERSION = 1

    def __init__(self, directory):
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CorpusError(f"cannot create corpus directory {self.directory}: {exc}") from None
        self._reports: dict[int, VulnerabilityReport] = {}
        self._sequences: dict[int, CodeSnippet] = {}
        self._catalog_corpus_digest: str | None = None
        self._load()

    # -- persistence ------------------------------------------------------

    @property
    def _reports_path(self) -> Path:
        return self.directory / self.REPORTS_FILE

    @property
    def _snippets_path(self) -> Path:
        return self.directory / self.SNIPPETS_FILE

    def _load(self):
        if self._reports_path.exists():
            for line_no, record in read_jsonl(self._reports_path, CorpusError):
                try:
                    report, _ = VulnerabilityReport.from_record(record)
                except ValueError as exc:
                    raise CorpusError(
                        f"{self._reports_path}:{line_no}: corrupt record: {exc}"
                    ) from None
                # first occurrence wins, matching ingest semantics
                self._reports.setdefault(report.id, report)
        self._load_catalog()

    def _load_catalog(self):
        self._sequences = {}
        self._catalog_corpus_digest = None
        if not self._snippets_path.exists():
            return
        records = read_jsonl(self._snippets_path, CorpusError)
        for position, (line_no, record) in enumerate(records):
            try:
                if position == 0:  # the header
                    self._catalog_corpus_digest = record.get("corpus_digest")
                    continue
                self._sequences[record["sequence"]] = CodeSnippet(
                    report_id=record["report_id"],
                    ordinal=record["ordinal"],
                    text=record["text"],
                    extraction_method=ExtractionMethod(record["method"]),
                )
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise CorpusError(
                    f"{self._snippets_path}:{line_no}: corrupt catalog: {exc}"
                ) from None

    def digest(self) -> str:
        """Content digest over the canonical form of every stored report."""
        hasher = hashlib.sha256()
        for report in self._reports.values():
            hasher.update(canonical_json(report.to_record()).encode("utf-8"))
            hasher.update(b"\n")
        return hasher.hexdigest()

    # -- ingestion --------------------------------------------------------

    def _iter_source_records(self, source: Path):
        """Yield raw records from a file or a directory of files."""
        if source.is_dir():
            paths = sorted(
                p for p in source.iterdir()
                if p.is_dir() or (p.is_file() and p.suffix.lower() in (".json", ".jsonl"))
            )
            for path in paths:
                yield from self._iter_source_records(path)
            return
        text = source.read_text(encoding="utf-8", errors="replace")
        if not text.strip():
            return
        try:
            document = json.loads(text)
            if isinstance(document, list):
                yield from document
            else:
                yield document
            return
        except json.JSONDecodeError:
            pass
        # fall back to one record per line
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                yield {"__malformed__": line[:100]}

    def ingest_reports(self, source) -> IngestSummary:
        """Ingest report records from a file or directory; see ingest_records.

        Raises:
            CorpusError: source path unreadable.
        """
        source = Path(source)
        if not source.exists():
            raise CorpusError(f"ingest source does not exist: {source}")
        try:
            records = list(self._iter_source_records(source))
        except OSError as exc:
            raise CorpusError(f"cannot read ingest source {source}: {exc}") from None
        return self.ingest_records(records)

    def ingest_records(self, records) -> IngestSummary:
        """Ingest raw report records and append the new ones to the store.

        Duplicate ids (within the input or against the stored corpus) keep
        the first occurrence and record a warning. Malformed records are
        skipped with a reason; ingestion continues. The in-memory corpus
        changes only once the append has succeeded.

        Raises:
            CorpusError: the store cannot be written.
        """
        warnings: list[str] = []
        skipped = 0
        appended: dict[int, VulnerabilityReport] = {}
        for index, record in enumerate(records):
            if isinstance(record, dict) and "__malformed__" in record:
                warnings.append(f"record {index}: not valid JSON, skipped")
                skipped += 1
                continue
            try:
                report, report_warnings = VulnerabilityReport.from_record(record)
            except ValueError as exc:
                warnings.append(f"record {index}: {exc}, skipped")
                skipped += 1
                continue
            warnings.extend(report_warnings)
            if report.id in self._reports or report.id in appended:
                warnings.append(f"record {index}: duplicate id {report.id}, first kept")
                continue
            appended[report.id] = report
        if appended:
            append_jsonl(self._reports_path, [r.to_record() for r in appended.values()],
                         CorpusError)
            self._reports.update(appended)
        return IngestSummary(count=len(self._reports), skipped=skipped, warnings=warnings)

    # -- access -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._reports)

    def __iter__(self):
        return iter(self._reports.values())

    def get_report(self, report_id: int) -> VulnerabilityReport:
        try:
            return self._reports[report_id]
        except KeyError:
            raise ReportNotFoundError(f"no report with id {report_id}") from None

    # -- snippet catalog ---------------------------------------------------

    def build_snippet_catalog(self, llm=None) -> CatalogSummary:
        """Extract snippets for every report and assign sequence numbers.

        Deterministic for a given corpus state and gateway: reports in stored
        order, snippets by ordinal, sequences starting at 1.
        """
        sequences: dict[int, CodeSnippet] = {}
        counter = 0
        llm_extracted = 0
        without_code = 0
        for report in self._reports.values():
            snippets = extract_code_snippets(report, llm=llm)
            if not snippets:
                without_code += 1
                continue
            for snippet in snippets:
                counter += 1
                sequences[counter] = snippet
                if snippet.extraction_method is ExtractionMethod.LLM_EXTRACTED:
                    llm_extracted += 1
        header = {
            "version": self.CATALOG_VERSION,
            "corpus_digest": self.digest(),
        }
        with (replacing(self._snippets_path, CorpusError) as tmp,
              open(tmp, "w", encoding="utf-8") as handle):
            handle.write(canonical_json(header) + "\n")
            for sequence, snippet in sequences.items():
                handle.write(canonical_json(snippet.to_record(sequence)) + "\n")
        self._sequences = sequences
        self._catalog_corpus_digest = header["corpus_digest"]
        return CatalogSummary(
            count=counter, llm_extracted=llm_extracted, reports_without_code=without_code
        )

    def snippets(self) -> list[tuple[int, CodeSnippet]]:
        """All cataloged snippets as (sequence, snippet), in sequence order."""
        return sorted(self._sequences.items())

    @property
    def catalog_corpus_digest(self) -> str | None:
        """Corpus digest recorded when the snippet catalog was built."""
        return self._catalog_corpus_digest

    def resolve_sequence(self, sequence: int) -> CodeSnippet:
        # raises KeyError; correlate() turns that into an integrity error
        return self._sequences[sequence]


def fetch_reports_remote(endpoint: str, time_window: tuple[str, str] | None = None,
                         page_limit: int = 10, per_page: int = 100,
                         session=None, retries: int = 2) -> list[dict]:
    """Pull raw report records from a paginated disclosure endpoint.

    Optional plumbing: nothing else depends on it. The bearer token comes
    from the LSAST_HACKTIVITY_TOKEN environment variable and is never logged.
    Accepts both {"reports": [...]} and {"data": [...]} response shapes;
    stops at an empty page or after page_limit pages. When time_window
    (from-date, to-date, ISO "YYYY-MM-DD") is given, records carrying a
    created_at/disclosed_at timestamp outside it are filtered out. Each page
    request retries under the shared policy of `transport.send`.

    Raises:
        RemoteFetchError: transport failure after retries, non-success
            status, or unusable response body.
    """
    if page_limit <= 0:
        return []
    session = session if session is not None else requests.Session()
    headers = {}
    token = os.environ.get(HACKTIVITY_TOKEN_ENV)
    if token:
        headers["Authorization"] = f"Bearer {token}"

    collected: list[dict] = []
    for page in range(1, page_limit + 1):
        params = {"page": page, "per_page": per_page}
        if time_window is not None:
            params["from"], params["to"] = time_window
        response = send(session, "get", endpoint, f"page {page}", RemoteFetchError, retries,
                        params=params, headers=headers, timeout=30)
        try:
            data = response.json()
        except ValueError:
            raise RemoteFetchError(f"page {page} returned a non-JSON body") from None
        if isinstance(data, dict):
            batch = data.get("reports", data.get("data", []))
        elif isinstance(data, list):
            batch = data
        else:
            raise RemoteFetchError(f"page {page} returned an unexpected shape")
        if not isinstance(batch, list) or not batch:
            break
        collected.extend(r for r in batch if isinstance(r, dict))
        if len(batch) < per_page:
            break

    if time_window is not None:
        lo, hi = time_window
        def in_window(record):
            stamp = record.get("created_at") or record.get("disclosed_at")
            if not isinstance(stamp, str) or not stamp:
                return True  # keep undated records; ingest can still use them
            return lo <= stamp[:10] <= hi
        collected = [r for r in collected if in_window(r)]
    return collected
