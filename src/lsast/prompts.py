"""Prompt templates and assembly.

The templates are frozen resources: their sha256 digests are asserted in the
test suite so an accidental edit (a stripped trailing space, a "fixed"
misspelling) fails loudly. The scan template's misspellings are deliberate
and load-bearing: the response parser accepts both spellings, but the emitted
prompt must reproduce the original text exactly.

Placeholders are substituted with str.replace, never str.format, because the
substituted code routinely contains braces. {bearer_result} is substituted
before {target_code} so injected code cannot smuggle a placeholder token.
"""

from dataclasses import dataclass, field

from .errors import DerivationError, PromptBudgetError
from .sast import FormattedFinding

TEMPLATE_VERSION = "1"

DEFAULT_PROMPT_CHAR_BUDGET = 24000

# Scan prompt, scanner-assisted variant. Do not edit: digest-pinned.
SCAN_PROMPT_SAST = (
    "Code:\n"
    "{target_code}\n"
    "\n"
    "After scanning the code with a SAST Scanner we receive following vulnerabilities:\n"
    "{bearer_result}\n"
    "\n"
    "You are a very efficient vulnerability scanner.\n"
    "Follow these tasks carefully:\n"
    "- Evaluate whether the given code includes any more vulnerabilities other then the ones found by the SAST Scanner.\n"
    "- Only output vulnerabilities that were not found by the SAST Scanner.\n"
    "- There can be multiple vulnerabilities\n"
    "- Only output vulnerabilites that are 100 percent certain to be present in the given code.\n"
    "- If you dont find any additional vulnerabilties just answer: \"no additional vulnerabilties found\"\n"
    "- If you find a vulnerability structure your answer like this:\n"
    "\"CWE-ID: <CWE-ID>\n"
    "Reason: <reason why code is vulnerable>\n"
    "line: <the lines that cause the vulnerability>\n"
    "code-snippet: <the code-snippet that cause the vulnerability>\""
)

# Scan prompt, plain variant: the scanner section and both scanner-referencing
# instruction lines are gone, their replacements reworded minimally.
SCAN_PROMPT_RAW = (
    "Code:\n"
    "{target_code}\n"
    "\n"
    "You are a very efficient vulnerability scanner.\n"
    "Follow these tasks carefully:\n"
    "- Evaluate whether the given code includes any vulnerabilities.\n"
    "- There can be multiple vulnerabilities\n"
    "- Only output vulnerabilites that are 100 percent certain to be present in the given code.\n"
    "- If you dont find any vulnerabilties just answer: \"no vulnerabilties found\"\n"
    "- If you find a vulnerability structure your answer like this:\n"
    "\"CWE-ID: <CWE-ID>\n"
    "Reason: <reason why code is vulnerable>\n"
    "line: <the lines that cause the vulnerability>\n"
    "code-snippet: <the code-snippet that cause the vulnerability>\""
)

# Code-abstraction derivation prompt. The trailing spaces on the intro line
# and on items 1, 2, 3, and 5 are part of the frozen text.
ABSTRACTION_PROMPT = (
    "{target_code}\n"
    "\n"
    "Given the code snippet, please remove all contextual information and variable names, leaving only the syntactic structure intact. \n"
    "1. The task involves extracting the core syntactic structure of the code while removing all contextual information and variable names, leaving only the essential code pattern intact. \n"
    "2. This process requires meticulous attention to detail and a thorough understanding of the code's structure. \n"
    "3. Focus on identifying and preserving the fundamental syntax elements, such as loops, conditionals, function definitions, and method invocations, while disregarding any specific variable names, comments, or non-essential whitespace. \n"
    "4. The resulting isolated code pattern will serve as a basis for further analysis and comparison, aiding in the identification of similar code patterns across multiple codebases or vulnerability reports.\n"
    "5. Use the format: Code-Pattern:[xxxx], placing the extracted Code Pattern inside the brackets. \n"
    "6. If there is no code only answer \"Code-Pattern:[no code]\""
)

# Functionality-summary derivation prompt.
FUNCTIONALITY_PROMPT = (
    "{target_code}\n"
    "\n"
    "Follow these tasks:\n"
    "1. Outline the operational purpose of the provided code using imperative language, such as 'Calculate bank account balance.' Your explanation should be brief, no more than one paragraph and within 40-50 words.\n"
    "2. Ensure your description focuses solely on the functionality or business logic without referencing specific variables, functions, or expressions."
)

CODE_PATTERN_MARKER = "Code-Pattern:"
NO_CODE_ANSWER = "no code"

REPORT_SECTION_HEADER = "Relevant vulnerability reports:"

# Instruction-block anchor shared by both scan templates; the report section
# is inserted immediately before it, between code and instructions.
_INSTRUCTION_ANCHOR = "You are a very efficient vulnerability scanner.\n"


def format_bearer_result(findings: list[FormattedFinding]) -> str:
    """Render formatted findings as the bracketed, quoted list the prompt embeds.

    Entry lines are tab-tab-indented and, except for the last, end with a
    comma and a trailing space. Zero findings render as "[]".
    """
    if not findings:
        return "[]"
    body = ", \n".join("\t\t'" + finding.text + "'" for finding in findings)
    return "[\n" + body + "\n]"


def render_report_block(title: str, cwe_id: str, cwe_title: str,
                        vulnerability_information: str) -> str:
    return (
        f"title: {title}\n"
        f"cwe-id: {cwe_id}\n"
        f"cwe-title: {cwe_title}\n"
        "vulnerability_information:\n"
        f"{vulnerability_information}"
    )


@dataclass
class BuiltPrompt:
    """Assembled scan prompt plus the report ids that made it in (or got dropped)."""

    text: str
    included_report_ids: list[int] = field(default_factory=list)
    dropped_report_ids: list[int] = field(default_factory=list)


def _assemble(template: str, annotated_text: str, bearer_result: str | None,
              report_blocks: list[str]) -> str:
    head, tail = template.split(_INSTRUCTION_ANCHOR, 1)
    if bearer_result is not None:
        head = head.replace("{bearer_result}", bearer_result)
    head = head.replace("{target_code}", annotated_text)
    section = ""
    if report_blocks:
        section = REPORT_SECTION_HEADER + "\n\n" + "\n\n".join(report_blocks) + "\n\n"
    return head + section + _INSTRUCTION_ANCHOR + tail


def build_scan_prompt(annotated, sast: list[FormattedFinding] | None = None,
                      reports=None,
                      char_budget: int = DEFAULT_PROMPT_CHAR_BUDGET) -> BuiltPrompt:
    """Assemble the scan prompt for one target.

    Args:
        annotated: AnnotatedSource for the target code.
        sast: formatted scanner findings; None selects the raw variant, which
            contains no scanner vocabulary at all.
        reports: retrieved vulnerability reports, ordered most relevant first
            (each needs title, cwe_id, cwe_title, vulnerability_information,
            id). When the prompt exceeds char_budget, reports are dropped from
            the back (lowest similarity first) until it fits.

    Raises:
        ValueError: annotated source is empty.
        PromptBudgetError: over budget even with every report dropped; the
            code itself is never truncated.
    """
    if not annotated.text:
        raise ValueError("cannot build a scan prompt for empty annotated source")
    template = SCAN_PROMPT_RAW if sast is None else SCAN_PROMPT_SAST
    bearer_result = None if sast is None else format_bearer_result(sast)

    kept = list(reports) if reports else []
    blocks = [
        render_report_block(r.title, r.cwe_id, r.cwe_title, r.vulnerability_information)
        for r in kept
    ]
    dropped: list[int] = []
    while True:
        text = _assemble(template, annotated.text, bearer_result, blocks)
        if len(text) <= char_budget:
            break
        if not kept:
            raise PromptBudgetError(
                f"prompt is {len(text)} chars with no reports left to drop "
                f"(budget {char_budget}); refusing to truncate code"
            )
        dropped.append(kept.pop().id)
        blocks.pop()
    return BuiltPrompt(
        text=text,
        included_report_ids=[r.id for r in kept],
        dropped_report_ids=list(reversed(dropped)),
    )


def render_derivation_prompt(template: str, code: str) -> str:
    """Substitute {target_code} into a derivation prompt template."""
    return template.replace("{target_code}", code)


def parse_code_pattern(response: str) -> str | None:
    """Extract the pattern from a "Code-Pattern:[...]" response.

    Takes the substring between the first "[" after the marker and the LAST
    "]" in the response, so patterns containing brackets survive. Returns
    None for the "no code" answer and for a blank pattern.

    Raises:
        DerivationError: marker or brackets missing; the raw response is
            preserved in the message for audit.
    """
    marker_at = response.find(CODE_PATTERN_MARKER)
    if marker_at < 0:
        raise DerivationError(
            f"response lacks the {CODE_PATTERN_MARKER!r} marker: {response[:200]!r}"
        )
    open_at = response.find("[", marker_at + len(CODE_PATTERN_MARKER))
    close_at = response.rfind("]")
    if open_at < 0 or close_at < open_at:
        raise DerivationError(
            f"response lacks a bracketed pattern: {response[:200]!r}"
        )
    pattern = response[open_at + 1:close_at]
    if pattern.strip().lower() in ("", NO_CODE_ANSWER):
        return None
    return pattern
