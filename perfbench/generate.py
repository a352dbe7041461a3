"""Seeded generator of benchmark inputs: reports, target trees, scanner reports.

Everything is drawn from one `random.Random(seed)`, so a seed fixes every
byte written. The generator also predicts what the program should output:
the mock model's answer per target (see mock_model.plan_answer) and from it
the confusion counts of the scanner-truth and labels evaluation regimes.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from mock_model import plan_answer

SCANNER_CWES = {
    20: "Improper Input Validation",
    22: "Path Traversal",
    78: "OS Command Injection",
    79: "Cross-site Scripting",
    89: "SQL Injection",
    94: "Code Injection",
    200: "Exposure of Sensitive Information",
    327: "Use of a Broken Cryptographic Algorithm",
    352: "Cross-Site Request Forgery",
    434: "Unrestricted File Upload",
    502: "Deserialization of Untrusted Data",
    601: "Open Redirect",
    611: "XML External Entity Reference",
    798: "Use of Hard-coded Credentials",
    918: "Server-Side Request Forgery",
}
SEVERITIES = ("critical", "high", "medium", "low")
EXTENSIONS = ("js", "ts", "php", "java", "py")

_NOUNS = (
    "user", "order", "cart", "token", "session", "file", "query", "name", "price", "item",
    "account", "invoice", "config", "cache", "payload", "request", "response", "row",
    "result", "value", "key", "buffer", "stream", "hash", "salt", "profile", "upload",
    "comment", "message", "coupon", "tenant", "report", "avatar", "ticket", "webhook",
    "template", "redirect", "filter", "page", "limit", "offset", "email", "role", "grant",
)
_VERBS = (
    "load", "save", "fetch", "render", "parse", "build", "check", "update", "delete",
    "resolve", "format", "send", "merge", "apply", "sign", "verify", "encode", "decode",
)
_WORDS = (
    "the", "endpoint", "server", "attacker", "parameter", "value", "handler", "request",
    "response", "is", "passed", "without", "validation", "into", "a", "query", "which",
    "allows", "remote", "users", "to", "read", "write", "arbitrary", "data", "when", "an",
    "authenticated", "session", "cookie", "admin", "panel", "upload", "directory", "this",
    "issue", "was", "reported", "fixed", "in", "version", "release", "affected", "page",
    "template", "input", "field", "escaped", "properly", "before", "being", "rendered",
)


def _ident(rng: random.Random, style: str) -> str:
    parts = [rng.choice(_VERBS if rng.random() < 0.3 else _NOUNS), rng.choice(_NOUNS)]
    if style == "py":
        return "_".join(parts)
    return parts[0] + parts[1].capitalize()


def _sentence(rng: random.Random, low: int = 8, high: int = 18) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randint(low, high))]
    return " ".join(words).capitalize() + "."


def _paragraph(rng: random.Random) -> str:
    return " ".join(_sentence(rng) for _ in range(rng.randint(2, 5)))


def _statement(rng: random.Random, lang: str) -> str:
    a, b, c = (_ident(rng, lang) for _ in range(3))
    n = rng.randint(0, 999)
    key = rng.choice(_NOUNS)
    if lang == "py":
        return rng.choice((
            f"{a} = request.args.get('{key}')",
            f"{a} = {b}.{rng.choice(_VERBS)}({c}, {n})",
            f"cursor.execute(\"SELECT * FROM {key}s WHERE id = \" + {a})",
            f"if {a} is None: return {b}",
            f"{a} = [{b}.{key} for {b} in {c} if {b}]",
            f"log.info('{rng.choice(_VERBS)} {key}: %s', {a})",
            f"{a}['{key}'] = {b}.get('{key}', {n})",
            f"# {_sentence(rng, 4, 9)}",
            f"with open(os.path.join(BASE, {a})) as {b}: {c} = {b}.read()",
        ))
    if lang == "php":
        return rng.choice((
            f"${a} = $_GET['{key}'];",
            f"${a} = ${b}->{rng.choice(_VERBS)}(${c}, {n});",
            f"$res = mysqli_query($conn, \"SELECT * FROM {key}s WHERE id = \" . ${a});",
            f"if (empty(${a})) {{ return ${b}; }}",
            f"echo '<div>' . ${a} . '</div>';",
            f"// {_sentence(rng, 4, 9)}",
            f"${a}['{key}'] = ${b}['{key}'] ?? {n};",
            f"include(BASE_DIR . ${a});",
        ))
    decl = {"js": "const", "ts": "const", "java": "String"}[lang]
    return rng.choice((
        f"{decl} {a} = {b}.{rng.choice(_VERBS)}({c}, {n});",
        f"if ({a} == null) {{ return {b}; }}",
        f"for (int i = 0; i < {a}.length; i++) {{ {b}.add({a}[i]); }}" if lang == "java"
        else f"for (let i = 0; i < {a}.length; i++) {{ {b}.push({a}[i]); }}",
        f"{decl} {a} = db.query(\"SELECT * FROM {key}s WHERE id = \" + {b});",
        f"res.send(\"<div>\" + {a} + \"</div>\");",
        f"// {_sentence(rng, 4, 9)}",
        f"{a}.{key} = {b}.{key} || {n};",
        f"{decl} {a} = readFile(path.join(BASE, {b}));",
        f"logger.info(\"{rng.choice(_VERBS)} {key}\", {a});",
    ))


def _short_statement(rng: random.Random, lang: str) -> str:
    a = _ident(rng, lang)
    if lang == "py":
        return rng.choice((f"return {a}", "pass", f"{a} += 1", ""))
    if lang == "php":
        return rng.choice((f"return ${a};", f"${a}++;", ""))
    return rng.choice((f"return {a};", f"{a}++;", "break;", ""))


def _function_lines(rng: random.Random, lang: str, body: int) -> list[str]:
    name = _ident(rng, lang)
    args = ", ".join(_ident(rng, lang) for _ in range(rng.randint(1, 3)))
    stmts = [(_short_statement if rng.random() < 0.35 else _statement)(rng, lang) for _ in range(body)]
    if lang == "py":
        return [f"def {name}({args}):", *("    " + s for s in stmts), ""]
    if lang == "php":
        args = ", ".join("$" + a for a in args.split(", "))
        return [f"function {name}({args}) {{", *("    " + s for s in stmts), "}", ""]
    if lang == "java":
        return [f"    public Object {name}(Object {args.split(', ')[0]}) {{",
                *("        " + s for s in stmts), "    }", ""]
    return [f"export async function {name}({args}) {{", *("  " + s for s in stmts), "}", ""]


# Cap on a target's line-annotated size, so that code plus the scanner list
# and template always fit the default 24,000-char prompt budget.
MAX_ANNOTATED_CHARS = 21000


def make_code(rng: random.Random, lang: str, lines: int) -> str:
    """Source text of `lines` lines (newline-terminated), fewer if over the cap."""
    header = {
        "py": ["import os", "from flask import request", ""],
        "php": ["<?php", ""],
        "java": ["package app;", "", "public class Handler {"],
        "js": ["const path = require('path');", ""],
        "ts": ["import path from 'path';", ""],
    }[lang]
    out = list(header)
    while len(out) < lines - 1:
        out.extend(_function_lines(rng, lang, rng.randint(3, 12)))
    out = out[:lines - 1] + (["}"] if lang == "java" else [_statement(rng, lang)])
    while sum(len(f"line {i}: {text}") + 1 for i, text in enumerate(out, 1)) > MAX_ANNOTATED_CHARS:
        out.pop(-2)
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Shape:
    """Input-size knobs of one workload."""

    reports: int
    targets: int
    target_lines: tuple[int, int]
    findings_per_target: tuple[int, int]
    repo_wide_report: bool = False  # severity-grouped, absolute CI paths
    multi_snippet_share: float = 0.15
    no_code_share: float = 0.10
    long_body_share: float = 0.10
    duplicate_share: float = 0.0


@dataclass
class Inputs:
    """Paths written and outputs predicted for one generated workload."""

    reports_path: Path | None
    sast_path: Path
    targets: list[str]  # relative to the run directory
    entries: dict = field(default_factory=dict)  # target -> [(cwe, line_start, line_end)]
    answers: dict = field(default_factory=dict)  # target -> plan_answer list
    report_cwes: dict = field(default_factory=dict)  # report id -> "CWE-n"
    scanner_counts: dict = field(default_factory=dict)
    label_counts: dict = field(default_factory=dict)

    def label_for(self, target: str) -> tuple[int, str]:
        """The one verdict recorded per record: (finding index, verdict)."""
        answer = self.answers[target]
        if not answer:
            return -1, "fn"
        return 0, "tp" if answer[0][3] else "fp"


def _exact_share(rng: random.Random, count: int, share: float) -> set[int]:
    """Exactly round(share * count) distinct indices, so every seed has the same mix."""
    return set(rng.sample(range(count), round(share * count)))


def make_reports(rng: random.Random, shape: Shape) -> list[dict]:
    n = shape.reports
    no_code = _exact_share(rng, n, shape.no_code_share)
    multi = set(rng.sample(sorted(set(range(n)) - no_code), round(shape.multi_snippet_share * n)))
    long_body = _exact_share(rng, n, shape.long_body_share)
    reports = []
    for index in range(n):
        cwe = rng.choice(list(SCANNER_CWES))
        lang = rng.choice(EXTENSIONS)
        parts = [_paragraph(rng)]
        if index not in no_code:
            for _ in range(rng.randint(2, 3) if index in multi else 1):
                code = "\n".join(_function_lines(rng, lang, rng.randint(2, 8))).rstrip("\n")
                parts.append(f"```{lang}\n{code}\n```")
                parts.append(_sentence(rng))
        else:
            parts.extend(_paragraph(rng) for _ in range(rng.randint(1, 3)))
        if index in long_body:
            target_len = rng.randint(5000, 12000)
            while sum(len(p) for p in parts) < target_len:
                parts.append(_paragraph(rng))
        reports.append({
            "id": index + 1,
            "title": f"{SCANNER_CWES[cwe]} in {_ident(rng, 'js')} handler",
            "severity_rating": rng.choice(SEVERITIES),
            "cve_ids": [f"CVE-20{rng.randint(10, 24)}-{rng.randint(1000, 99999)}"] if rng.random() < 0.4 else [],
            "cwe-id": f"CWE-{cwe}",
            "cwe-title": SCANNER_CWES[cwe],
            "vulnerability_information": "\n\n".join(parts),
        })
    return reports


def _target_paths(rng: random.Random, count: int) -> list[str]:
    paths = []
    for i in range(count):
        dirs = [rng.choice(("api", "core", "web", "admin", "lib", "services"))]
        dirs += [rng.choice(_NOUNS) for _ in range(rng.randint(0, 2))]
        paths.append("/".join(["src", *dirs, f"{rng.choice(_NOUNS)}_{i:04d}.{rng.choice(EXTENSIONS)}"]))
    return paths


def _draw_entries(rng: random.Random, line_count: int, count: int) -> list[tuple[int, int, int]]:
    entries = []
    for _ in range(count):
        start = rng.randint(1, line_count)
        entries.append((rng.choice(list(SCANNER_CWES)), start, min(line_count, start + rng.randint(0, 4))))
    return entries


def _finding_record(rng: random.Random, rel: str, entry: tuple[int, int, int],
                    source_lines: list[str], repo_wide: bool, repo: str) -> dict:
    cwe, start, end = entry
    rule = f"lang_{SCANNER_CWES[cwe].lower().replace(' ', '_').replace('-', '_')}"
    if not repo_wide:
        filename = rel
    elif rng.random() < 0.1:
        filename = f"D:\\a\\{repo}\\{repo}\\" + rel.replace("/", "\\")
    else:
        filename = f"/home/runner/work/{repo}/{repo}/{rel}"
    fingerprint = hashlib.sha1(f"{rule}:{rel}:{start}:{end}".encode()).hexdigest()
    return {
        "cwe_ids": [str(cwe)],
        "id": rule,
        "title": f"{SCANNER_CWES[cwe]} detected",
        "description": _sentence(rng),
        "documentation_url": f"https://docs.example.invalid/rules/{rule}",
        "line_number": start,
        "full_filename": filename,
        "filename": rel,
        "source": {"start": start, "end": end, "column": {"start": 1, "end": 40}},
        "sink": {"start": start, "end": end, "content": source_lines[start - 1].strip()},
        "parent_line_number": start,
        "snippet": source_lines[start - 1].strip(),
        "fingerprint": f"{fingerprint}_0",
    }


def generate(seed: int, shape: Shape, workspace: Path) -> Inputs:
    """Write reports.json, sast.json and the target tree under `workspace`.

    Targets live under workspace/repo, the directory scans run from; their
    paths are returned relative to it.
    """
    rng = random.Random(seed)
    workspace.mkdir(parents=True, exist_ok=True)
    repo_dir = workspace / "repo"
    reports_path = None
    report_cwes = {}
    if shape.reports:
        reports = make_reports(rng, shape)
        reports_path = workspace / "reports.json"
        reports_path.write_text(json.dumps(reports), encoding="utf-8")
        report_cwes = {r["id"]: r["cwe-id"] for r in reports}

    unique = shape.targets - int(shape.targets * shape.duplicate_share)
    paths = _target_paths(rng, unique)
    sources = {}
    entries_of = {}
    for rel in paths:
        lang = rel.rsplit(".", 1)[1]
        sources[rel] = make_code(rng, lang, rng.randint(*shape.target_lines))
        line_count = sources[rel].count("\n")
        entries_of[rel] = _draw_entries(rng, line_count, rng.randint(*shape.findings_per_target))
    # vendored byte-identical copies of other targets; the scanner reports
    # the same findings in a copy as in its original
    for i in range(shape.targets - unique):
        original = rng.choice(paths[:unique])
        copy = f"vendor/lib{i:03d}/{original.rsplit('/', 1)[1]}"
        paths.append(copy)
        sources[copy] = sources[original]
        entries_of[copy] = entries_of[original]
    rng.shuffle(paths)

    repo = f"app{seed % 1000}"
    records: dict = {severity: [] for severity in SEVERITIES} if shape.repo_wide_report else []
    inputs = Inputs(reports_path=reports_path, sast_path=workspace / "sast.json",
                    targets=paths, report_cwes=report_cwes)
    scanner = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    labels = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for rel in paths:
        path = repo_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(sources[rel], encoding="utf-8")
        source = sources[rel].rstrip("\n")
        lines = source.split("\n")
        entries = entries_of[rel]
        for entry in entries:
            record = _finding_record(rng, rel, entry, lines, shape.repo_wide_report, repo)
            if shape.repo_wide_report:
                records[rng.choice(SEVERITIES)].append(record)
            else:
                records.append({**record, "severity": rng.choice(SEVERITIES)})
        answer = plan_answer(source, entries)
        inputs.entries[rel] = entries
        inputs.answers[rel] = answer
        hits = sum(1 for *_, is_tp in answer if is_tp)
        scanner["tp"] += hits
        scanner["fp"] += len(answer) - hits
        scanner["fn"] += len(entries) - hits
        _, verdict = inputs.label_for(rel)
        labels[verdict] += 1
    inputs.sast_path.write_text(json.dumps(records), encoding="utf-8")
    inputs.scanner_counts = scanner
    inputs.label_counts = labels
    return inputs
