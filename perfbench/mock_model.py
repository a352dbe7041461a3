"""Bench-local mock model: a MockGateway that answers scan prompts with findings.

Derivation prompts (functionality summaries, code patterns) are passed to
lsast's MockGateway unchanged. Scan prompts get 0-3 well-formed finding
blocks chosen by `plan_answer`, which sees only the prompt's code section and
its SAST list. The generator calls the same function with the code and the
findings it wrote, so the evaluation counts are known before the scan runs.

Latency is a fixed sleep per call, split by kind; it is 0 unless a workload
sets it.
"""

import hashlib
import random
import re
import threading
import time

from lsast import MockGateway

SCAN_MARKER = "You are a very efficient vulnerability scanner."
SAST_MARKER = "After scanning the code with a SAST Scanner we receive following vulnerabilities:\n"

# CWEs the scanner never reports, so an invented finding can never match truth.
MODEL_ONLY_CWES = (209, 312, 400, 770, 1004)

_ANNOTATION_RE = re.compile(r"^line \d+: ", re.MULTILINE)
_FORMATTED_RE = re.compile(r"'CWE-(\d+) \(line (\d+)(?:-(\d+))?\)'")


def plan_answer(source: str, sast: list) -> list:
    """Choose the findings the mock model reports for one target.

    `source` is the target text with newlines normalised and trailing
    newlines stripped; `sast` lists the scanner entries in the prompt as
    (cwe number, line_start, line_end). Returns (cwe number, line_start,
    line_end, is_true_positive) tuples in answer order. True positives
    repeat a SAST entry exactly; false positives use a CWE the scanner never
    reports.
    """
    entries = sorted(sast)
    digest = hashlib.sha256((source + "\0" + repr(entries)).encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    total = rng.randint(0, 3)
    n_tp = min(len(entries), rng.randint(0, total))
    answer = [(*entry, True) for entry in rng.sample(entries, n_tp)]
    line_count = source.count("\n") + 1
    for _ in range(total - n_tp):
        start = rng.randint(1, line_count)
        answer.append((rng.choice(MODEL_ONLY_CWES), start, min(line_count, start + rng.randint(0, 2)), False))
    rng.shuffle(answer)
    return answer


def render_answer(source: str, answer: list, with_sast: bool) -> str:
    if not answer:
        return "no additional vulnerabilties found" if with_sast else "no vulnerabilties found"
    lines = source.split("\n")
    blocks = []
    for cwe, start, end, _ in answer:
        span = str(start) if start == end else f"{start}-{end}"
        blocks.append(
            f"CWE-ID: CWE-{cwe}\n"
            f"Reason: input reaches a CWE-{cwe} sink without validation\n"
            f"line: {span}\n"
            f"code-snippet: {lines[start - 1].strip()}"
        )
    return "\n\n".join(blocks)


def _split_scan_prompt(prompt: str) -> tuple[str, list]:
    """Recover (source, SAST entries) from a scan prompt."""
    code_end = prompt.index("\n\n")
    source = _ANNOTATION_RE.sub("", prompt[len("Code:\n"):code_end])
    sast = []
    at = prompt.find(SAST_MARKER)
    if at >= 0:
        section = prompt[at + len(SAST_MARKER):prompt.index("\n\n", at)]
        for cwe, start, end in _FORMATTED_RE.findall(section):
            sast.append((int(cwe), int(start), int(end or start)))
    return source, sast


class SlowMockGateway:
    """MockGateway with findings-bearing scan answers, latency and call counters.

    Thread-safe: the counters and busy time are updated under a lock, so one
    instance can serve a parallel scan batch.
    """

    def __init__(self, derive_latency_s: float = 0.0, scan_latency_s: float = 0.0):
        self._inner = MockGateway()
        self._latency = {"derive": derive_latency_s, "scan": scan_latency_s}
        self._lock = threading.Lock()
        self.calls = {"derive": 0, "scan": 0}
        self.busy_s = 0.0

    def complete(self, prompt: str) -> str:
        t0 = time.perf_counter()
        kind = "scan" if SCAN_MARKER in prompt else "derive"
        if kind == "scan":
            source, sast = _split_scan_prompt(prompt)
            text = render_answer(source, plan_answer(source, sast), SAST_MARKER in prompt)
        else:
            text = self._inner.complete(prompt)
        if self._latency[kind]:
            time.sleep(self._latency[kind])
        elapsed = time.perf_counter() - t0
        with self._lock:
            self.calls[kind] += 1
            self.busy_s += elapsed
        return text
