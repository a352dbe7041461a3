import hashlib

import pytest

from lsast.annotate import annotate_lines
from lsast.corpus import VulnerabilityReport
from lsast.errors import DerivationError, PromptBudgetError
from lsast.prompts import (
    ABSTRACTION_PROMPT,
    FUNCTIONALITY_PROMPT,
    SCAN_PROMPT_RAW,
    SCAN_PROMPT_SAST,
    build_scan_prompt,
    format_bearer_result,
    parse_code_pattern,
    render_derivation_prompt,
    render_report_block,
)

# Frozen template fingerprints. A change to any template is a contract
# change and must be made deliberately, with these updated in the same
# commit.
SAST_TEMPLATE_SHA256 = "af03b41395903a14231ff9dd5dac44710ae8922498444cd49f84597d2b01c033"
RAW_TEMPLATE_SHA256 = "b981826fae82fc54e1ad67de593bd0d871b9b365ad519cb342cd2dc5f30a07ae"
ABSTRACTION_SHA256 = "3e735fa12267a56191881514e50986ebd0cb6d7e5f63a1a4c4e541440c81c095"
FUNCTIONALITY_SHA256 = "6f34e63e95bfffad37d9ef9f028b2b491feb00eb1e2575757f7ec9fcf20c20c6"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestTemplates:
    def test_frozen_digests(self):
        assert _sha(SCAN_PROMPT_SAST) == SAST_TEMPLATE_SHA256
        assert _sha(SCAN_PROMPT_RAW) == RAW_TEMPLATE_SHA256
        assert _sha(ABSTRACTION_PROMPT) == ABSTRACTION_SHA256
        assert _sha(FUNCTIONALITY_PROMPT) == FUNCTIONALITY_SHA256

    def test_raw_template_never_mentions_the_scanner(self):
        assert "SAST" not in SCAN_PROMPT_RAW
        assert "{bearer_result}" not in SCAN_PROMPT_RAW

    def test_templates_share_the_instruction_header(self):
        anchor = "You are a very efficient vulnerability scanner.\n"
        assert anchor in SCAN_PROMPT_SAST
        assert anchor in SCAN_PROMPT_RAW


class TestBearerResultBlock:
    def test_multi_entry_layout(self):
        findings = ["CWE-943 (line 59-65)",
                    "CWE-78 (line 39-44)"]
        assert format_bearer_result(findings) == (
            "[\n"
            "\t\t'CWE-943 (line 59-65)', \n"
            "\t\t'CWE-78 (line 39-44)'\n"
            "]"
        )

    def test_single_entry(self):
        assert format_bearer_result(["CWE-611 (line 235)"]) == (
            "[\n\t\t'CWE-611 (line 235)'\n]"
        )

    def test_empty_renders_empty_list(self):
        assert format_bearer_result([]) == "[]"


class TestBuildScanPrompt:
    def _annotated(self):
        return annotate_lines("var x = input()\neval(x)")

    def test_sast_prompt_substitutes_both_slots(self):
        findings = ["CWE-94 (line 2)"]
        built = build_scan_prompt(self._annotated(), sast=findings)
        assert built.text.startswith("Code:\nline 1: var x = input()\n")
        assert "\t\t'CWE-94 (line 2)'" in built.text
        assert "{target_code}" not in built.text
        assert "{bearer_result}" not in built.text

    def test_raw_prompt_has_no_scanner_vocabulary(self):
        built = build_scan_prompt(self._annotated(), sast=None)
        assert "SAST" not in built.text
        assert built.text.startswith("Code:\nline 1: ")

    def test_code_containing_placeholders_is_not_expanded(self):
        # Target code that spells a placeholder must pass through verbatim.
        annotated = annotate_lines("print('{bearer_result}')\nprint('{target_code}')")
        findings = ["CWE-94 (line 1)"]
        built = build_scan_prompt(annotated, sast=findings)
        assert "line 1: print('{bearer_result}')" in built.text
        assert "line 2: print('{target_code}')" in built.text

    def test_reports_render_before_instructions(self):
        report = VulnerabilityReport(
            id=7, title="Demo", severity_rating="low", cve_ids=[],
            cwe_id="CWE-89", cwe_title="SQLi",
            vulnerability_information="Body text.",
        )
        built = build_scan_prompt(self._annotated(),
                                  sast=["CWE-94 (line 2)"],
                                  reports=[report])
        section = built.text.find("Relevant vulnerability reports:")
        instructions = built.text.find("You are a very efficient vulnerability scanner.")
        assert 0 < section < instructions
        assert "title: Demo" in built.text
        assert built.included_report_ids == [7]
        assert built.dropped_report_ids == []

    def test_budget_drops_reports_from_the_back(self):
        reports = [
            VulnerabilityReport(id=i, title=f"R{i}", severity_rating="low",
                                cve_ids=[], cwe_id="CWE-89", cwe_title="t",
                                vulnerability_information="x" * 400)
            for i in (1, 2, 3)
        ]
        no_reports = build_scan_prompt(self._annotated(), sast=[]).text
        budget = len(no_reports) + 1000
        built = build_scan_prompt(self._annotated(), sast=[], reports=reports,
                                  char_budget=budget)
        assert built.dropped_report_ids
        assert built.included_report_ids + built.dropped_report_ids == [1, 2, 3]
        assert len(built.text) <= budget

    def test_budget_never_truncates_code(self):
        annotated = annotate_lines("\n".join(f"x = {i}" for i in range(200)))
        with pytest.raises(PromptBudgetError):
            build_scan_prompt(annotated, sast=[], char_budget=100)

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            build_scan_prompt(annotate_lines(""), sast=[])


class TestReportBlock:
    def test_layout(self):
        block = render_report_block("T", "CWE-79", "XSS", "Line one.\nLine two.")
        assert block == (
            "title: T\n"
            "cwe-id: CWE-79\n"
            "cwe-title: XSS\n"
            "vulnerability_information:\n"
            "Line one.\nLine two."
        )


class TestDerivationPrompts:
    def test_abstraction_prompt_embeds_code(self):
        prompt = render_derivation_prompt(ABSTRACTION_PROMPT, "print(1)")
        assert "print(1)" in prompt
        assert "{target_code}" not in prompt

    def test_parse_code_pattern_happy_path(self):
        text = "Some preamble\nCode-Pattern:[x = x(x)]\n"
        assert parse_code_pattern(text) == "x = x(x)"

    def test_parse_code_pattern_takes_last_bracket(self):
        # Brackets inside the pattern must not end it early.
        text = "Code-Pattern:[a[0] = b[1]]"
        assert parse_code_pattern(text) == "a[0] = b[1]"

    def test_parse_code_pattern_no_code_answer(self):
        assert parse_code_pattern("Code-Pattern:[no code]") is None
        assert parse_code_pattern("Code-Pattern:[ No Code ]") is None
        assert parse_code_pattern("Code-Pattern:[]") is None
        assert parse_code_pattern("Code-Pattern:[ \n\t ]") is None

    def test_parse_code_pattern_missing_marker_raises(self):
        with pytest.raises(DerivationError):
            parse_code_pattern("I could not find anything.")

    def test_parse_code_pattern_unclosed_raises(self):
        with pytest.raises(DerivationError):
            parse_code_pattern("Code-Pattern:[x = 1")
