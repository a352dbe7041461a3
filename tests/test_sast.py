import json
import random
import re
import sys

import pytest

from lsast.errors import ScannerExecutionError, ScannerReportError, ScannerTimeoutError
from pathlib import PurePosixPath, PureWindowsPath

from lsast import sast
from lsast.sast import (
    Finding,
    FindingIndex,
    filter_findings_for_file,
    format_findings,
    normalize_cwe,
    parse_scanner_report,
    run_external_scanner,
)


_FORMATTED_RE = re.compile(r"^CWE-(\d+) \(line (\d+)(?:-(\d+))?\)$")


def parse_formatted_finding(text: str) -> tuple[str, int, int]:
    """Recover (cwe id, line_start, line_end) from a `format_findings` string.

    Raises:
        ScannerReportError: text does not match the formatted shape.
    """
    match = _FORMATTED_RE.match(text)
    if match is None:
        raise ScannerReportError(f"not a formatted finding: {text!r}")
    cwe, start, end = match.group(1), int(match.group(2)), match.group(3)
    return cwe, start, int(end) if end is not None else start


class TestNormalizeCwe:
    def test_plain_number(self):
        assert normalize_cwe("78") == "CWE-78"

    def test_prefixed(self):
        assert normalize_cwe("CWE-943") == "CWE-943"

    def test_int_input(self):
        assert normalize_cwe(89) == "CWE-89"

    def test_case_and_separator_variants(self):
        assert normalize_cwe("cwe_78") == "CWE-78"
        assert normalize_cwe("Cwe 611") == "CWE-611"

    def test_leading_zeros_dropped(self):
        assert normalize_cwe("CWE-078") == "CWE-78"
        assert normalize_cwe("007") == "CWE-7"

    def test_unparseable(self):
        assert normalize_cwe("not a cwe") is None
        assert normalize_cwe("") is None
        assert normalize_cwe(None) is None

    @staticmethod
    def regex_only(value):
        """normalize_cwe as it was before its all-digits shortcut."""
        text = str(value)
        match = sast._CWE_RE.search(text) or sast._DIGITS_RE.search(text)
        return None if match is None else f"CWE-{int(match.group(1))}"

    @pytest.mark.parametrize("value", [
        "0", "007", "000", "79", "\u0667\u0669", "\u0660\u0660\u0667", "\u0667" + "9",
        "", "-5", "79a", "CWE-079", " 79", "\u00b2", True, False, 0, 79, -5,
        "0" * 5000 + "7",
    ])
    def test_digit_shortcut_agrees_with_the_regexes(self, value):
        assert normalize_cwe(value) == self.regex_only(value)

    def test_isdecimal_is_exactly_what_backslash_d_matches(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\d", every) == [c for c in every if c.isdecimal()]


class TestParseScannerReport:
    def test_flat_list(self, sast_record):
        report = parse_scanner_report(json.dumps(sast_record))
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.cwe_ids == ["943"]
        assert finding.line_start == 4
        assert finding.line_end == 5
        assert report.warnings == []

    def test_single_record_object(self, sast_record):
        report = parse_scanner_report(json.dumps(sast_record[0]))
        assert len(report.findings) == 1

    def test_severity_grouped_layout(self, sast_record):
        grouped = {"high": sast_record, "low": []}
        report = parse_scanner_report(json.dumps(grouped))
        assert len(report.findings) == 1
        assert report.findings[0].severity == "high"

    def test_line_number_fallback_when_no_source(self):
        record = {"cwe_ids": ["78"], "id": "r", "line_number": 39,
                  "full_filename": "a.js"}
        report = parse_scanner_report(json.dumps(record))
        assert report.findings[0].line_start == 39
        assert report.findings[0].line_end == 39

    def test_source_end_defaults_to_start(self):
        record = {"cwe_ids": ["78"], "id": "r", "full_filename": "a.js",
                  "source": {"start": 7}}
        report = parse_scanner_report(json.dumps(record))
        assert report.findings[0].line_end == 7

    def test_bytes_input(self, sast_record):
        report = parse_scanner_report(json.dumps(sast_record).encode())
        assert len(report.findings) == 1

    def test_invalid_json_raises(self):
        with pytest.raises(ScannerReportError):
            parse_scanner_report("{not json")

    def test_non_object_record_raises(self):
        with pytest.raises(ScannerReportError) as exc:
            parse_scanner_report(json.dumps([42]))
        assert "record 0" in str(exc.value)

    def test_record_without_cwe_is_skipped_with_warning(self):
        record = [{"id": "r", "cwe_ids": [], "line_number": 3, "full_filename": "a.js"}]
        report = parse_scanner_report(json.dumps(record))
        assert report.findings == []
        assert len(report.warnings) == 1

    def test_reversed_range_skipped_with_warning(self):
        record = [{"id": "r", "cwe_ids": ["78"], "full_filename": "a.js",
                   "source": {"start": 9, "end": 4}}]
        report = parse_scanner_report(json.dumps(record))
        assert report.findings == []
        assert report.warnings

    @pytest.mark.parametrize("field", [{"line_number": "²"}, {"source": {"start": "²"}}])
    def test_non_decimal_digit_line_skipped_with_warning(self, field):
        # "²".isdigit() holds, yet int("²") raises
        records = [{"id": "r", "cwe_ids": ["78"], "full_filename": "a.js", **field},
                   {"id": "s", "cwe_ids": ["89"], "full_filename": "a.js", "line_number": 3}]
        report = parse_scanner_report(json.dumps(records))
        assert [f.line_start for f in report.findings] == [3]
        assert [w.split(":")[0] for w in report.warnings] == ["record 0"]

    def test_integer_cwe_ids_accepted(self):
        record = [{"id": "r", "cwe_ids": [78, "CWE-89"], "line_number": 1,
                   "full_filename": "a.js"}]
        report = parse_scanner_report(json.dumps(record))
        assert report.findings[0].cwe_ids == ["78", "89"]


class TestFormatting:
    def test_range_format(self):
        finding = Finding(cwe_ids=["78"], rule_id="r", title="", description="",
                          file_path="a.js", line_start=39, line_end=44)
        assert format_findings([finding]) == ["CWE-78 (line 39-44)"]

    def test_single_line_format(self):
        finding = Finding(cwe_ids=["611"], rule_id="r", title="", description="",
                          file_path="a.js", line_start=235, line_end=235)
        assert format_findings([finding]) == ["CWE-611 (line 235)"]

    def test_one_entry_per_cwe(self):
        finding = Finding(cwe_ids=["78", "89"], rule_id="r", title="", description="",
                          file_path="a.js", line_start=1, line_end=2)
        assert format_findings([finding]) == ["CWE-78 (line 1-2)", "CWE-89 (line 1-2)"]

    def test_parse_formatted_round_trip_random(self):
        rng = random.Random(1291)
        for _ in range(10_000):
            cwe = rng.randrange(1, 1500)
            start = rng.randrange(1, 10_000)
            end = start if rng.random() < 0.5 else start + rng.randrange(1, 500)
            finding = Finding(cwe_ids=[str(cwe)], rule_id="r", title="",
                              description="", file_path="a.js",
                              line_start=start, line_end=end)
            [formatted] = format_findings([finding])
            assert parse_formatted_finding(formatted) == (str(cwe), start, end)

    def test_parse_formatted_rejects_noise(self):
        with pytest.raises(ScannerReportError):
            parse_formatted_finding("CWE-78 at line 3")
        with pytest.raises(ScannerReportError):
            parse_formatted_finding("")


class TestFilterForFile:
    def _finding(self, path):
        return Finding(cwe_ids=["78"], rule_id="r", title="", description="",
                       file_path=path, line_start=1, line_end=1)

    def test_suffix_of_absolute_scanner_path(self):
        findings = [self._finding("/Users/User/repos/dvna/core/appHandler.js")]
        assert filter_findings_for_file(findings, "core/appHandler.js") == findings

    def test_target_longer_than_finding_path(self):
        findings = [self._finding("appHandler.js")]
        assert filter_findings_for_file(findings, "/work/core/appHandler.js") == findings

    def test_non_matching_file_excluded(self):
        findings = [self._finding("core/appHandler.js")]
        assert filter_findings_for_file(findings, "core/other.js") == []

    def test_basename_collision_requires_component_match(self):
        findings = [self._finding("a/handler.js")]
        assert filter_findings_for_file(findings, "b/handler.js") == []

    def test_windows_separators(self):
        findings = [self._finding("repos\\dvna\\core\\appHandler.js")]
        assert filter_findings_for_file(findings, "core/appHandler.js") == findings


def reference_filter(findings, target_path):
    """The per-finding loop FindingIndex replaced, kept as the oracle."""

    def parts_of(path):
        parts = PureWindowsPath(path).parts if "\\" in path else PurePosixPath(path).parts
        return tuple(part for part in parts if part not in ("/", "\\"))

    target_parts = parts_of(str(target_path))
    kept = []
    for finding in findings:
        parts = parts_of(finding.file_path)
        if not parts or not target_parts:
            continue
        shorter, longer = sorted((parts, target_parts), key=len)
        if longer[-len(shorter):] == shorter:
            kept.append(finding)
    return kept


class TestFindingIndexOracle:
    COMPONENTS = ["core", "app", "a", "b", "..", ".", "handler.js", "app.js", "x.py"]
    ROOTS = ["", "", "/", "//", "C:\\", "\\", "\\\\srv\\share\\", "C:"]
    ODD = ["", "/", "\\", "C:\\", ".", "handler.js", "\\handler.js", "core//handler.js"]

    def _path(self, rng):
        if rng.random() < 0.1:
            return rng.choice(self.ODD)
        windows = rng.random() < 0.4
        root = rng.choice(self.ROOTS) if windows else rng.choice(["", "", "/"])
        names = [rng.choice(self.COMPONENTS) for _ in range(rng.randint(1, 4))]
        return root + ("\\" if windows else "/").join(names)

    def _findings(self, rng, count):
        findings = []
        repeated = self._path(rng)
        for n in range(count):
            path = repeated if rng.random() < 0.3 else self._path(rng)
            findings.append(Finding(cwe_ids=[str(n)], rule_id="r", title="", description="",
                                    file_path=path, line_start=1, line_end=1))
        return findings

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_reference_loop_in_order(self, seed):
        rng = random.Random(seed)
        findings = self._findings(rng, rng.randint(0, 120))
        index = FindingIndex(findings)
        assert len(index) == len(findings)
        targets = [self._path(rng) for _ in range(40)] + self.ODD
        targets += [f.file_path for f in rng.sample(findings, min(10, len(findings)))]
        for target in targets:
            want = [id(f) for f in reference_filter(findings, target)]
            assert [id(f) for f in index.for_file(target)] == want, target
            assert [id(f) for f in filter_findings_for_file(findings, target)] == want
            assert [id(f) for f in filter_findings_for_file(index, target)] == want

    @pytest.mark.parametrize("seed", range(5))
    def test_parses_each_distinct_path_once(self, seed, monkeypatch):
        rng = random.Random(seed)
        findings = self._findings(rng, 200)
        parsed = []
        original = sast._path_parts
        monkeypatch.setattr(sast, "_path_parts", lambda path: parsed.append(path) or original(path))
        index = FindingIndex(findings)
        assert sorted(parsed) == sorted({f.file_path for f in findings})
        monkeypatch.undo()
        for target in [f.file_path for f in findings[:20]] + self.ODD:
            want = [id(f) for f in reference_filter(findings, target)]
            assert [id(f) for f in index.for_file(target)] == want, target


class TestRunExternalScanner:
    def _command(self, script):
        return f"{sys.executable} -c {json.dumps(script)}"

    def test_stdout_report(self, tmp_path, sast_record):
        target = tmp_path / "t.js"
        target.write_text("x\n")
        script = f"import sys; print({json.dumps(json.dumps(sast_record))})"
        report = run_external_scanner(self._command(script) + " {target}", target)
        assert len(report.findings) == 1

    def test_output_file_report(self, tmp_path, sast_record):
        target = tmp_path / "t.js"
        target.write_text("x\n")
        # single line: shlex keeps a quoted \n as two characters
        script = (f"import sys; open(sys.argv[2], 'w')"
                  f".write({json.dumps(json.dumps(sast_record))})")
        command = f"{sys.executable} -c {json.dumps(script)} {{target}} {{output}}"
        report = run_external_scanner(command, target)
        assert len(report.findings) == 1

    def test_nonzero_exit_with_parseable_report_accepted(self, tmp_path, sast_record):
        # Scanners conventionally exit nonzero when they find something.
        target = tmp_path / "t.js"
        target.write_text("x\n")
        script = (f"import sys; print({json.dumps(json.dumps(sast_record))}); "
                  "sys.exit(1)")
        report = run_external_scanner(self._command(script) + " {target}", target)
        assert len(report.findings) == 1

    def test_empty_output_zero_exit_is_empty_report(self, tmp_path):
        target = tmp_path / "t.js"
        target.write_text("x\n")
        report = run_external_scanner(self._command("pass") + " {target}", target)
        assert report.findings == []
        assert report.warnings

    def test_empty_output_nonzero_exit_raises(self, tmp_path):
        target = tmp_path / "t.js"
        target.write_text("x\n")
        script = "import sys; sys.stderr.write('boom'); sys.exit(3)"
        with pytest.raises(ScannerExecutionError) as exc:
            run_external_scanner(self._command(script) + " {target}", target)
        assert "boom" in str(exc.value)

    def test_timeout_raises(self, tmp_path):
        target = tmp_path / "t.js"
        target.write_text("x\n")
        script = "import time; time.sleep(30)"
        with pytest.raises(ScannerTimeoutError):
            run_external_scanner(self._command(script) + " {target}", target,
                                 timeout=0.3)

    def test_missing_target_placeholder_rejected(self, tmp_path):
        target = tmp_path / "t.js"
        target.write_text("x\n")
        with pytest.raises(ScannerExecutionError):
            run_external_scanner("echo hello", target)

    def test_missing_binary_raises(self, tmp_path):
        target = tmp_path / "t.js"
        target.write_text("x\n")
        with pytest.raises(ScannerExecutionError):
            run_external_scanner("/nonexistent/scanner {target}", target)
