"""Chat-completion gateway and structured response parsing.

A "gateway" is anything with complete(prompt) -> response text. ChatClient
speaks the JSON-over-HTTP chat-completion protocol of common local model
servers; MockGateway is a deterministic offline stand-in used by tests, the
acceptance suite, and the "mock:" endpoint scheme.

The API key is read from the LSAST_API_KEY environment variable at request
time and is never logged or persisted.
"""

import hashlib
import os
import re
from dataclasses import dataclass

import requests

from .errors import GatewayError
from .sast import normalize_cwe
from .transport import send

API_KEY_ENV = "LSAST_API_KEY"

_VALID_ROLES = {"system", "user", "assistant"}

_NONE_FOUND_RE = re.compile(r"(?i)no\s+(?:additional\s+)?vulnerabil(?:i)?ties\s+found")
# Field markers are line-anchored; an optional leading quote covers model
# output that reproduces the quoted schema from the prompt.
_BLOCK_START_RE = re.compile(r'(?im)^[ \t]*(")?[ \t]*CWE-ID[ \t]*:')
_REASON_RE = re.compile(r'(?im)^[ \t]*(")?[ \t]*Reason[ \t]*:(.*)$')
_LINE_RE = re.compile(r'(?im)^[ \t]*(")?[ \t]*line[ \t]*:(.*)$')
_SNIPPET_RE = re.compile(r'(?im)^[ \t]*(")?[ \t]*code-snippet[ \t]*: ?')


@dataclass
class ChatRequest:
    """One chat-completion request.

    messages is an ordered list of {"role": ..., "content": ...} dicts with
    roles from {system, user, assistant}.
    """

    model: str
    messages: list[dict]
    temperature: float = 0.0
    max_tokens: int = 2048
    seed: int | None = None

    def __post_init__(self):
        if not self.messages:
            raise ValueError("messages must be non-empty")
        for message in self.messages:
            if message.get("role") not in _VALID_ROLES:
                raise ValueError(f"invalid message role: {message.get('role')!r}")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")

    def to_payload(self) -> dict:
        payload = {
            "model": self.model,
            "messages": self.messages,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        return payload


@dataclass
class PredictedFinding:
    """One model-asserted vulnerability, parsed from a scan response."""

    cwe_id: str
    reason: str
    line_start: int
    line_end: int
    code_snippet: str


@dataclass
class ScanResponse:
    findings: list[PredictedFinding]
    none_found: bool
    raw_text: str
    parse_degraded: bool = False


class ChatClient:
    """Client for a chat-completions route on a local model server.

    Args:
        endpoint: full URL of the chat-completions route.
        model: model name sent in every request.
        timeout: per-request timeout in seconds.
        retries: retry attempts after the first request, under the shared
            policy of `transport.send`.
        temperature, max_tokens, seed: decoding defaults for complete().
    """

    def __init__(self, endpoint: str, model: str, *, timeout: float = 120.0,
                 retries: int = 2, temperature: float = 0.0,
                 max_tokens: int = 2048, seed: int | None = 0):
        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout
        self.retries = retries
        self.temperature = temperature
        self.max_tokens = max_tokens
        self.seed = seed
        self.last_usage: dict | None = None
        self.total_tokens = 0
        self.session = requests.Session()

    def complete(self, prompt: str) -> str:
        request = ChatRequest(
            model=self.model,
            messages=[{"role": "user", "content": prompt}],
            temperature=self.temperature,
            max_tokens=self.max_tokens,
            seed=self.seed,
        )
        return self.chat(request)

    def chat(self, request: ChatRequest) -> str:
        headers = {}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        response = send(self.session, "post", self.endpoint, "chat endpoint", GatewayError,
                        self.retries, json=request.to_payload(), headers=headers,
                        timeout=self.timeout)
        try:
            data = response.json()
            content = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            raise GatewayError(
                f"malformed chat response: {response.text[:200]}"
            ) from None
        usage = data.get("usage")
        if isinstance(usage, dict):
            self.last_usage = usage
            total = usage.get("total_tokens")
            if isinstance(total, int):
                self.total_tokens += total
        return content


class MockGateway:
    """Deterministic offline gateway.

    Derivation prompts get a stable pseudo-derivation (identifier-collapsed
    pattern, hash-tagged summary); scan prompts get `scan_response` when set,
    otherwise the appropriate none-found sentence. A stand-in for wiring and
    determinism tests, not a simulation of any model.
    """

    def __init__(self, scan_response: str | None = None):
        self.scan_response = scan_response
        self.calls: list[str] = []

    def complete(self, prompt: str) -> str:
        self.calls.append(prompt)
        if "You are a very efficient vulnerability scanner." in prompt:
            if self.scan_response is not None:
                return self.scan_response
            if "SAST" in prompt:
                return "no additional vulnerabilties found"
            return "no vulnerabilties found"
        if "Code-Pattern:[xxxx]" in prompt:
            code = prompt.split("\n\nGiven the code snippet,", 1)[0]
            pattern = re.sub(r"[A-Za-z_][A-Za-z0-9_]*", "x", code)
            pattern = re.sub(r"\s+", " ", pattern).strip()[:200]
            if not pattern:
                return "Code-Pattern:[no code]"
            return f"Code-Pattern:[{pattern}]"
        if "operational purpose" in prompt:
            code = prompt.split("\n\nFollow these tasks:", 1)[0]
            tag = hashlib.sha256(code.encode("utf-8")).hexdigest()[:12]
            return f"Perform the operation identified by {tag}."
        return ""


def _unquote(value: str, opened_with_quote: bool) -> str:
    value = value.strip()
    if opened_with_quote and value.endswith('"'):
        value = value[:-1].rstrip()
    return value


def _parse_block(block: str) -> PredictedFinding | None:
    first_line, _, _ = block.partition("\n")
    cwe = normalize_cwe(first_line)
    if cwe is None:
        return None

    line_match = _LINE_RE.search(block)
    if line_match is None:
        return None
    numbers = [int(n) for n in re.findall(r"\d+", line_match.group(2))]
    if not numbers or min(numbers) < 1:
        return None

    reason_match = _REASON_RE.search(block)
    reason = ""
    if reason_match:
        reason = _unquote(reason_match.group(2), reason_match.group(1) == '"')

    snippet_match = _SNIPPET_RE.search(block)
    if snippet_match:
        snippet = block[snippet_match.end():].rstrip()
        if snippet_match.group(1) == '"' and snippet.endswith('"'):
            snippet = snippet[:-1].rstrip()
    else:
        snippet = ""

    return PredictedFinding(
        cwe_id=cwe,
        reason=reason,
        line_start=min(numbers),
        line_end=max(numbers),
        code_snippet=snippet,
    )


def parse_scan_response(text) -> ScanResponse:
    """Parse model output into findings or a none-found verdict.

    Accepts both the prompt's misspelled none-found sentence and the correct
    spelling, case-insensitively, with or without "additional". Finding
    blocks are keyed by line-anchored "CWE-ID:" markers; within a block the
    line field accepts "39", "39-44", and "39, 41, 44" (span is min..max) and
    the code snippet runs to the end of the block. Field values that start a
    line with one of the block markers cannot be recovered (limitation of the
    line-keyed format).

    Never raises on arbitrary input: text with neither the sentence nor any
    parseable block comes back parse-degraded with the raw text preserved.
    """
    if isinstance(text, (bytes, bytearray)):
        text = bytes(text).decode("utf-8", errors="replace")
    if not isinstance(text, str):
        text = str(text)

    starts = list(_BLOCK_START_RE.finditer(text))
    findings: list[PredictedFinding] = []
    any_block_failed = False
    for i, match in enumerate(starts):
        end = starts[i + 1].start() if i + 1 < len(starts) else len(text)
        block = text[match.end():end]
        finding = _parse_block(block)
        if finding is None:
            any_block_failed = True
        else:
            findings.append(finding)

    if findings:
        return ScanResponse(
            findings=findings,
            none_found=False,
            raw_text=text,
            parse_degraded=any_block_failed,
        )
    if _NONE_FOUND_RE.search(text):
        return ScanResponse(
            findings=[], none_found=True, raw_text=text, parse_degraded=any_block_failed
        )
    return ScanResponse(findings=[], none_found=False, raw_text=text, parse_degraded=True)


def render_finding(finding: PredictedFinding) -> str:
    """Render one finding as the four-line block the scan prompt prescribes.

    Raises:
        ValueError: reason contains a newline (the schema keeps it on one
            line; only the code snippet may span lines).
    """
    if "\n" in finding.reason:
        raise ValueError("reason must be a single line")
    if finding.line_start == finding.line_end:
        span = str(finding.line_start)
    else:
        span = f"{finding.line_start}-{finding.line_end}"
    return (
        f"CWE-ID: {finding.cwe_id}\n"
        f"Reason: {finding.reason}\n"
        f"line: {span}\n"
        f"code-snippet: {finding.code_snippet}"
    )
