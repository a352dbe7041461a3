"""Conventional-scanner adapter.

Parses the scanner's machine-readable report into normalized findings and
renders them as the compact strings embedded in prompts. The accepted report
shape is one finding object, a list of finding objects, or a mapping whose
list values are groups (severity buckets); groups are flattened in document
order. Normative record fields: cwe_ids, id, title, description,
full_filename, line_number, source.start, source.end.
"""

import json
import logging
import re
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath, PureWindowsPath

from .errors import ScannerExecutionError, ScannerReportError, ScannerTimeoutError

logger = logging.getLogger(__name__)

DEFAULT_SCANNER_TIMEOUT = 300.0

_KNOWN_SEVERITIES = {"critical", "high", "medium", "low", "warning", "info"}

_CWE_RE = re.compile(r"(?i)cwe[-_ ]?0*(\d+)")
_DIGITS_RE = re.compile(r"0*(\d+)")


def normalize_cwe(value) -> str | None:
    """Normalize a CWE spelling ("79", "cwe-79", "CWE-079") to "CWE-79".

    Returns None when no numeric id can be found.
    """
    text = str(value)
    # all-digit text (isdecimal accepts exactly what `\d` matches) skips the
    # regexes; leading zeros go first, as `0*` drops them before int()
    if text.isdecimal():
        return f"CWE-{int(text.lstrip('0') or '0')}"
    match = _CWE_RE.search(text) or _DIGITS_RE.search(text)
    if match is None:
        return None
    return f"CWE-{int(match.group(1))}"


@dataclass
class Finding:
    """One scanner-detected vulnerability.

    cwe_ids holds numeric strings without the "CWE-" prefix, as the scanner
    emits them. line_start/line_end are 1-based and inclusive.
    """

    cwe_ids: list[str]
    rule_id: str
    title: str
    description: str
    file_path: str
    line_start: int
    line_end: int
    severity: str | None = None


@dataclass
class ParsedReport:
    findings: list[Finding]
    warnings: list[str] = field(default_factory=list)


def _coerce_cwe_ids(raw) -> list[str]:
    """Extract numeric cwe id strings; unusable elements are dropped."""
    if raw is None:
        return []
    if isinstance(raw, (str, int)):
        raw = [raw]
    if not isinstance(raw, list):
        return []
    ids = []
    for element in raw:
        if isinstance(element, bool):
            continue
        if isinstance(element, int):
            ids.append(str(element))
            continue
        if isinstance(element, str):
            normalized = normalize_cwe(element)
            if normalized is not None:
                ids.append(normalized.removeprefix("CWE-"))
    return ids


def _int_or_none(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, str) and value.strip().isdecimal():
        return int(value.strip())
    return None


def _record_to_finding(record: dict, index: int, warnings: list[str],
                       group_severity: str | None) -> Finding | None:
    cwe_ids = _coerce_cwe_ids(record.get("cwe_ids"))
    if not cwe_ids:
        warnings.append(f"record {index}: no usable cwe_ids, skipped")
        return None

    start = end = None
    source = record.get("source")
    if isinstance(source, dict):
        start = _int_or_none(source.get("start"))
        end = _int_or_none(source.get("end"))
        if start is not None and end is None:
            end = start
    if start is None:
        line_number = _int_or_none(record.get("line_number"))
        if line_number is not None:
            start = end = line_number
    if start is None or end is None:
        warnings.append(f"record {index}: missing both source range and line_number, skipped")
        return None
    if start < 1 or end < 1 or start > end:
        warnings.append(f"record {index}: invalid line range {start}..{end}, skipped")
        return None

    severity = record.get("severity")
    if not isinstance(severity, str) or not severity:
        severity = group_severity

    return Finding(
        cwe_ids=cwe_ids,
        rule_id=str(record.get("id", "")),
        title=str(record.get("title", "")),
        description=str(record.get("description", "")),
        file_path=str(record.get("full_filename", "")),
        line_start=start,
        line_end=end,
        severity=severity,
    )


def parse_scanner_report(report_text) -> ParsedReport:
    """Parse a scanner report document into findings plus warnings.

    Never raises on arbitrary bytes beyond the structured errors below:
    malformed records inside a well-formed document are skipped with a
    warning naming the record index.

    Args:
        report_text: the report document as str or bytes.

    Raises:
        ScannerReportError: document is not valid JSON, has an unexpected
            top-level shape, or contains a non-object record (the error names
            the record index).
    """
    if isinstance(report_text, (bytes, bytearray)):
        report_text = bytes(report_text).decode("utf-8", errors="replace")
    if not isinstance(report_text, str):
        raise ScannerReportError(f"report must be text, got {type(report_text).__name__}")
    try:
        document = json.loads(report_text)
    except (json.JSONDecodeError, ValueError) as exc:
        raise ScannerReportError(f"malformed scanner report: {exc}") from None

    # (record, severity hint from the enclosing group key, if any)
    records: list[tuple[object, str | None]] = []
    if isinstance(document, list):
        records = [(record, None) for record in document]
    elif isinstance(document, dict):
        looks_like_record = any(
            key in document for key in ("cwe_ids", "line_number", "source")
        )
        if looks_like_record:
            records = [(document, None)]
        else:
            for key, value in document.items():
                if isinstance(value, list):
                    hint = key.lower() if isinstance(key, str) and key.lower() in _KNOWN_SEVERITIES else None
                    records.extend((record, hint) for record in value)
    else:
        raise ScannerReportError(
            f"unexpected top-level value of type {type(document).__name__}"
        )

    findings: list[Finding] = []
    warnings: list[str] = []
    for index, (record, hint) in enumerate(records):
        if not isinstance(record, dict):
            raise ScannerReportError(f"record {index}: not an object")
        finding = _record_to_finding(record, index, warnings, hint)
        if finding is not None:
            findings.append(finding)
    return ParsedReport(findings=findings, warnings=warnings)


def format_findings(findings: list[Finding]) -> list[str]:
    """Render findings as prompt strings, one entry per (finding, cwe id) pair.

    Order-preserving: finding order, then cwe id order within a finding.
    Each string is "CWE-<id> (line <a>)" for a single-line finding and
    "CWE-<id> (line <a>-<b>)" for a range.
    """
    formatted = []
    for finding in findings:
        for cwe in finding.cwe_ids:
            if finding.line_start == finding.line_end:
                span = f"(line {finding.line_start})"
            else:
                span = f"(line {finding.line_start}-{finding.line_end})"
            formatted.append(f"CWE-{cwe} {span}")
    return formatted


def _path_parts(path: str) -> tuple[str, ...]:
    # Scanner reports may carry absolute paths from another machine; compare
    # by path components so "/Users/x/repos/app/core/a.js" matches "core/a.js".
    parts = PureWindowsPath(path).parts if "\\" in path else PurePosixPath(path).parts
    return tuple(part for part in parts if part not in ("/", "\\"))


class FindingIndex:
    """Findings bucketed by the last component of their file path.

    Each distinct path is parsed once, here; `for_file` then examines only
    the bucket whose key is the target's last component, the one place a
    suffix match can come from. Order within a bucket is list order. Built
    over a snapshot: findings appended to the source list later are not seen.
    """

    def __init__(self, findings):
        self._count = 0
        self._buckets: dict[str, list[tuple[tuple[str, ...], object]]] = {}
        parsed: dict[str, tuple[str, ...]] = {}  # a report repeats each path many times
        for finding in findings:
            self._count += 1
            parts = parsed.get(finding.file_path)
            if parts is None:
                parts = parsed[finding.file_path] = _path_parts(finding.file_path)
            if parts:
                self._buckets.setdefault(parts[-1], []).append((parts, finding))

    def __len__(self) -> int:
        return self._count

    def for_file(self, target_path) -> list:
        """Findings whose file path refers to `target_path`, in list order.

        Matches when one path's component sequence is a suffix of the other's,
        which tolerates differing roots between scanner host and local checkout.
        """
        target_parts = _path_parts(str(target_path))
        if not target_parts:
            return []
        kept = []
        for parts, finding in self._buckets.get(target_parts[-1], ()):
            shorter, longer = sorted((parts, target_parts), key=len)
            if longer[-len(shorter):] == shorter:
                kept.append(finding)
        return kept


def filter_findings_for_file(findings, target_path) -> list:
    """Keep findings whose file path refers to `target_path`; see FindingIndex.

    `findings` is a list of objects with a `file_path`, or a FindingIndex
    built over one. Indexing a list costs one path parse per finding, so a
    caller that matches one list against many targets builds the index once.
    """
    if not isinstance(findings, FindingIndex):
        findings = FindingIndex(findings)
    return findings.for_file(target_path)


def run_external_scanner(command: str, target_path,
                         timeout: float = DEFAULT_SCANNER_TIMEOUT) -> ParsedReport:
    """Run the configured scanner command against one target and parse its report.

    The command template must contain "{target}"; an optional "{output}"
    placeholder names a file the scanner writes its report to (otherwise
    stdout is parsed). Substitution happens per shlex token, so paths with
    spaces survive. A nonzero exit that still produced a parseable report is
    accepted: scanners conventionally exit nonzero when findings exist.

    Raises:
        ConfigurationError-like ScannerExecutionError: empty command or
            missing "{target}" placeholder.
        ScannerTimeoutError: the scanner exceeded `timeout` seconds.
        ScannerExecutionError: nonzero exit with no parseable report.
        ScannerReportError: zero exit but unparseable report.
    """
    if not command or "{target}" not in command:
        raise ScannerExecutionError(
            "scanner command template must contain a {target} placeholder"
        )
    tokens = shlex.split(command)
    output_file = None
    if any("{output}" in token for token in tokens):
        handle = tempfile.NamedTemporaryFile(
            mode="w", suffix=".json", prefix="scanner-", delete=False
        )
        handle.close()
        output_file = Path(handle.name)
    try:
        resolved = []
        for token in tokens:
            token = token.replace("{target}", str(target_path))
            if output_file is not None:
                token = token.replace("{output}", str(output_file))
            resolved.append(token)
        logger.debug("running scanner: %s", resolved)
        try:
            proc = subprocess.run(
                resolved, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise ScannerTimeoutError(
                f"scanner timed out after {timeout}s on {target_path}"
            ) from None
        except OSError as exc:
            raise ScannerExecutionError(f"scanner could not be started: {exc}") from None

        if output_file is not None:
            report_text = output_file.read_text(encoding="utf-8") if output_file.exists() else ""
        else:
            report_text = proc.stdout

        if not report_text.strip():
            if proc.returncode != 0:
                raise ScannerExecutionError(
                    f"scanner exited {proc.returncode} with no report; "
                    f"stderr: {proc.stderr.strip()[:500]}"
                )
            return ParsedReport(findings=[], warnings=["scanner produced an empty report"])
        try:
            return parse_scanner_report(report_text)
        except ScannerReportError:
            if proc.returncode != 0:
                raise ScannerExecutionError(
                    f"scanner exited {proc.returncode} without a parseable report; "
                    f"stderr: {proc.stderr.strip()[:500]}"
                ) from None
            raise
    finally:
        if output_file is not None:
            output_file.unlink(missing_ok=True)
