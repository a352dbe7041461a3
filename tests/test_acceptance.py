"""Acceptance checks: one test per shipping criterion, named CRITERION 1-8.

Each test prints a single "CRITERION n: PASS" line on success (visible with
pytest -s); under pytest -v the test outcome itself is the pass/fail line.
"""

import hashlib
import json
import math
import random
import string
import time

import numpy as np
import pytest

from lsast.annotate import annotate_lines, normalize_newlines
from lsast.errors import LsastError
from lsast.evaluation import (
    ConfusionCounts,
    EvalLabel,
    Verdict,
    compute_metrics,
    confusion_from_labels,
    confusion_from_matching,
    format_percent,
    match_findings,
    truth_from_findings,
)
from lsast.gateway import (
    MockGateway,
    PredictedFinding,
    parse_scan_response,
    render_finding,
)
from lsast.index import IndexEntry, IndexKind, OfflineEmbedder, VectorIndex
from lsast.pipeline import (
    RetrievalMode,
    ScanContext,
    record_essence,
    persist_scan,
    run_scan,
    run_scan_batch,
    load_scan_directory,
)
from lsast.prompts import (
    SCAN_PROMPT_RAW,
    SCAN_PROMPT_SAST,
    build_scan_prompt,
    format_bearer_result,
)
from lsast.sast import (
    Finding,
    format_findings,
    parse_scanner_report,
)
from test_annotate import strip_annotations
from test_evaluation import f1_consistent
from test_sast import parse_formatted_finding


# =============================================================================
# CRITERION 1: metric reconstruction from derived integer confusion counts
# =============================================================================

# (tp, fp, fn) -> the published percent strings they must reproduce
PUBLISHED_RECONSTRUCTIONS = [
    ((6, 4, 15), ("28.57%", "100%", "24%", "60%", "38.71%")),
    ((5, 5, 16), ("23.81%", "100%", "19.23%", "50%", "32.26%")),
    ((3, 15, 6), ("33.33%", "100%", "12.50%", "16.67%", "22.22%")),
    ((31, 5, 14), ("68.89%", "100%", "62%", "86.11%", "76.54%")),
    ((15, 4, 27), ("35.71%", "100%", "32.61%", "78.95%", "49.18%")),
]


def test_criterion_1_metric_reconstruction():
    started = time.perf_counter()

    for (tp, fp, fn), expected in PUBLISHED_RECONSTRUCTIONS:
        metrics = compute_metrics(ConfusionCounts(tp=tp, fp=fp, fn=fn))
        produced = tuple(format_percent(v) for v in (
            metrics.tp_rate, metrics.fp_rate, metrics.accuracy,
            metrics.precision, metrics.f1,
        ))
        assert produced == expected, f"counts ({tp},{fp},{fn})"
        # each reconstructed column is internally consistent
        assert f1_consistent(
            float(expected[3].rstrip("%")),
            float(expected[0].rstrip("%")),
            float(expected[4].rstrip("%")),
        )

    # the published raw-mode column fails its own F1 identity:
    # harmonic(63.16, 17.91) is 27.90, not the printed 38.71
    assert f1_consistent(63.16, 17.91, 38.71) is False

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print("CRITERION 1: PASS")


# =============================================================================
# CRITERION 2: prompt fidelity against the published worked example
# =============================================================================

SAST_TEMPLATE_SHA256 = "af03b41395903a14231ff9dd5dac44710ae8922498444cd49f84597d2b01c033"
RAW_TEMPLATE_SHA256 = "b981826fae82fc54e1ad67de593bd0d871b9b365ad519cb342cd2dc5f30a07ae"
ASSEMBLED_EXAMPLE_SHA256 = "fdd44d2997394c88a43604cf23cda32270bdc38c566ba4903a51673cee9ef12d"

# the worked example's scanner findings, already formatted
EXAMPLE_FINDINGS = [
    "CWE-943 (line 59-65)",
    "CWE-943 (line 85-89)",
    "CWE-943 (line 107-111)",
    "CWE-943 (line 145-149)",
    "CWE-611 (line 235)",
    "CWE-78 (line 39-44)",
]

# the worked example's target excerpt (tab-indented Node.js handler)
EXAMPLE_SOURCE = (
    "var db = require('../models')\n"
    "\n"
    "module.exports.userSearch = function (req, res) {\n"
    "\tvar query = \"SELECT name,id FROM Users WHERE login='\" + req.body.login + \"'\";\n"
    "\tdb.sequelize.query(query, {\n"
    "\t\tmodel: db.User\n"
    "\t}).then(user => {\n"
    "\t\tif (user.length) {\n"
    "\t\t\tvar output = {\n"
)


def test_criterion_2_prompt_fidelity():
    started = time.perf_counter()

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    assert digest(SCAN_PROMPT_SAST) == SAST_TEMPLATE_SHA256
    assert digest(SCAN_PROMPT_RAW) == RAW_TEMPLATE_SHA256

    annotated = annotate_lines(EXAMPLE_SOURCE)
    built = build_scan_prompt(annotated, sast=EXAMPLE_FINDINGS)

    substituted = SCAN_PROMPT_SAST.replace(
        "{target_code}", annotated.text
    ).replace(
        "{bearer_result}", format_bearer_result(EXAMPLE_FINDINGS)
    )
    assert built.text == substituted  # byte-exact

    assert digest(built.text) == ASSEMBLED_EXAMPLE_SHA256

    raw = build_scan_prompt(annotated, sast=None)
    assert raw.text.count("SAST") == 0

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print("CRITERION 2: PASS")


# =============================================================================
# CRITERION 3: parser round trips at volume
# =============================================================================

def test_criterion_3_round_trips():
    rng = random.Random(20260816)

    # (a) formatted-finding parse . format identity, 10^4 cases
    for _ in range(10_000):
        cwe = str(rng.randint(1, 1500))
        start = rng.randint(1, 5000)
        end = start if rng.random() < 0.5 else start + rng.randint(1, 400)
        finding = Finding(cwe_ids=[cwe], rule_id="r", title="", description="",
                          file_path="a.js", line_start=start, line_end=end)
        [formatted] = format_findings([finding])
        assert parse_formatted_finding(formatted) == (cwe, start, end)

    # (b) strip . annotate identity, 10^4 cases
    line_chars = string.ascii_letters + string.digits + " \t(){};'\"=+-*/.,<>!&|"
    for _ in range(10_000):
        lines = [
            "".join(rng.choice(line_chars) for _ in range(rng.randint(0, 60)))
            for _ in range(rng.randint(0, 30))
        ]
        source = "\n".join(lines)
        if rng.random() < 0.3:
            source += rng.choice(["\n", "\r\n", "\n\n"])
        if rng.random() < 0.2:
            source = source.replace("\n", "\r\n")
        annotated = annotate_lines(source)
        assert strip_annotations(annotated.text) == normalize_newlines(source)

    # (c) parse_scan_response . render_finding identity, 10^3 cases
    # charset avoids ":" and "-" so generated text cannot imitate field markers
    safe = string.ascii_letters + string.digits + " ()$+=*;.,_"
    for _ in range(1_000):
        findings = []
        for _ in range(rng.randint(1, 3)):
            reason = "".join(
                rng.choice(safe) for _ in range(rng.randint(1, 70))
            ).strip() or "r"
            snippet_lines = [
                ("".join(rng.choice(safe) for _ in range(rng.randint(1, 50)))
                 ).rstrip() or "y"
                for _ in range(rng.randint(1, 4))
            ]
            start = rng.randint(1, 900)
            end = start if rng.random() < 0.5 else start + rng.randint(1, 90)
            findings.append(PredictedFinding(
                cwe_id=f"CWE-{rng.randint(1, 1400)}",
                reason=reason,
                line_start=start,
                line_end=end,
                code_snippet="\n".join(snippet_lines),
            ))
        rendered = "\n".join(render_finding(f) for f in findings)
        response = parse_scan_response(rendered)
        assert not response.parse_degraded
        assert not response.none_found
        assert response.findings == findings

    print("CRITERION 3: PASS")


# =============================================================================
# CRITERION 4: retrieval equals exhaustive brute force, exactly
# =============================================================================

class DyadicEmbedder:
    """Deterministic unit embeddings whose cosines are exact in float64.

    Each vector has m nonzero components (m in {4, 16}), every one +-1/sqrt(m)
    with sqrt(m) a power of two, so the norm is exactly 1 and every pairwise
    dot product is a multiple of 1/16. Exact scores make "equals brute force"
    well defined: ranking cannot hinge on summation order, and score ties are
    bit-exact, so the declared tie-break is what actually decides them.
    """

    identity = "dyadic-test"

    def __init__(self, dimension: int):
        self.dimension = dimension

    def embed(self, text: str) -> np.ndarray:
        seed = int.from_bytes(
            hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
        rng = random.Random(seed)
        m = 16 if (self.dimension >= 16 and rng.random() < 0.5) else 4
        vector = np.zeros(self.dimension, dtype=np.float64)
        for position in rng.sample(range(self.dimension), m):
            vector[position] = rng.choice((-1.0, 1.0)) / math.sqrt(m)
        return vector


def _brute_force_top_k(entries, query, k):
    """Reference ranking: pure-Python cosine, (-score, sequence) order."""
    scored = []
    for entry in entries:
        score = math.fsum(
            float(a) * float(b) for a, b in zip(entry.embedding, query)
        )
        scored.append((entry.sequence, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [sequence for sequence, _ in scored[:k]]


def test_criterion_4_retrieval_oracle():
    rng = random.Random(41)
    words = ["query", "select", "login", "user", "token", "path", "exec",
             "read", "write", "parse", "render", "fetch"]

    def random_text():
        return " ".join(rng.choice(words) for _ in range(rng.randint(2, 8)))

    for round_number in range(100):
        dimension = rng.randint(8, 64)
        embedder = DyadicEmbedder(dimension=dimension)
        n = rng.randint(1, 200)

        # distinct shuffled sequence numbers; duplicate texts force exact ties
        sequences = rng.sample(range(1, 10 * n + 10), n)
        texts = []
        for _ in range(n):
            if texts and rng.random() < 0.25:
                texts.append(rng.choice(texts))
            else:
                texts.append(random_text())

        entries = [
            IndexEntry(sequence=seq, kind=IndexKind.FUNCTIONALITY,
                       derived_text=text, embedding=embedder.embed(text))
            for seq, text in zip(sequences, texts)
        ]
        index = VectorIndex(IndexKind.FUNCTIONALITY, dimension,
                            embedder.identity, "digest", entries)

        query = embedder.embed(random_text())
        for k in (1, 3, 10, n + 5):
            hits = index.search_embedded(query, k)
            got = [hit.entry.sequence for hit in hits]
            expected = _brute_force_top_k(entries, query, k)
            assert got == expected, (
                f"round {round_number}: dim={dimension} n={n} k={k}"
            )
            assert len(got) == min(k, n)

    print("CRITERION 4: PASS")


# =============================================================================
# CRITERION 5: retrieval-mode algebra over assembled prompts
# =============================================================================

SCANNER_SECTION_MARK = "After scanning the code with a SAST Scanner"
FUNCTIONALITY_REPORT_TITLE = "SQL injection in user search"
ABSTRACTION_REPORT_TITLE = "Stored XSS in profile page"


def _single_report_index(full_index, corpus, report_id):
    """Narrow an index to the entries of one report, keeping its envelope."""
    keep = []
    for entry in full_index.entries:
        snippet = corpus.resolve_sequence(entry.sequence)
        if snippet.report_id == report_id:
            keep.append(entry)
    assert keep, f"no index entries for report {report_id}"
    return VectorIndex(full_index.kind, full_index.dimension,
                       full_index.embedder_id, full_index.corpus_digest, keep)


def test_criterion_5_mode_algebra(corpus, indexes, embedder, js_target,
                                  sast_record):
    functionality_full, abstraction_full = indexes
    # functionality retrieval can only surface report 1, abstraction only
    # report 2, so section membership is decidable from the prompt text
    functionality_index = _single_report_index(functionality_full, corpus, 1)
    abstraction_index = _single_report_index(abstraction_full, corpus, 2)
    findings = parse_scanner_report(json.dumps(sast_record)).findings

    checked = 0
    for mode in RetrievalMode:
        gateway = MockGateway()
        context = ScanContext(
            gateway=gateway,
            corpus=corpus,
            functionality_index=functionality_index,
            abstraction_index=abstraction_index,
            embedder=embedder,
            scanner=lambda target: findings,
        )
        run_scan(js_target, mode, k=3, context=context)
        prompt = gateway.last_prompt

        assert (SCANNER_SECTION_MARK in prompt) == mode.uses_scanner, mode
        checked += 1
        assert (FUNCTIONALITY_REPORT_TITLE in prompt) == mode.uses_functionality, mode
        checked += 1
        assert (ABSTRACTION_REPORT_TITLE in prompt) == mode.uses_abstraction, mode
        checked += 1

    assert checked == 24  # 8 modes x 3 sections
    print("CRITERION 5: PASS")


# =============================================================================
# CRITERION 6: end-to-end determinism of persisted records
# =============================================================================

FIXTURE_FILES = {
    "auth.js": "function login(u, p) {\n  return db.query(\"SELECT * FROM users WHERE name='\" + u + \"'\");\n}\n",
    "files.js": "var path = req.params.path;\nres.sendFile('/srv/data/' + path);\n",
    "render.js": "element.innerHTML = req.query.message;\n",
    "shell.js": "var cp = require('child_process');\ncp.exec('convert ' + req.body.name);\n",
    "xml.js": "var doc = libxml.parseXml(req.body.payload, { noent: true });\n",
}


def test_criterion_6_determinism(tmp_path, report_dicts, sast_record):
    from lsast.corpus import ReportCorpus

    corpus_dir = tmp_path / "corpus"
    corpus = ReportCorpus(corpus_dir)
    reports_path = tmp_path / "reports.json"
    reports_path.write_text(json.dumps(report_dicts))
    corpus.ingest_reports(reports_path)
    corpus.build_snippet_catalog(llm=MockGateway())

    tree = tmp_path / "tree"
    tree.mkdir()
    for name, body in sorted(FIXTURE_FILES.items()):
        (tree / name).write_text(body)
    # scanner findings resolve per file name; reuse the canned report with
    # the file path rewritten so every target gets one finding
    canned = []
    for name in FIXTURE_FILES:
        record = dict(sast_record[0])
        record["full_filename"] = name
        canned.append(record)
    findings = parse_scanner_report(json.dumps(canned)).findings

    embedder = OfflineEmbedder()

    def one_run(out_dir):
        gateway = MockGateway()
        functionality, _ = VectorIndex.build(
            corpus, IndexKind.FUNCTIONALITY, llm=gateway, embedder=embedder)
        abstraction, _ = VectorIndex.build(
            corpus, IndexKind.ABSTRACTION, llm=gateway, embedder=embedder)
        context = ScanContext(
            gateway=gateway,
            corpus=corpus,
            functionality_index=functionality,
            abstraction_index=abstraction,
            embedder=embedder,
            scanner=lambda target: findings,
            attach_scanner_findings=True,
        )
        results = run_scan_batch([tree], RetrievalMode.COMBINED_LSAST, k=2,
                                 context=context)
        for result in results:
            persist_scan(result, out_dir)
        # integrity check on the way: every record must load clean
        assert len(load_scan_directory(out_dir)) == len(results)
        return [
            record_essence(json.loads(path.read_text()))
            for path in sorted(out_dir.glob("scan-*.json"))
        ]

    first = one_run(tmp_path / "run1")
    second = one_run(tmp_path / "run2")
    assert len(first) == len(FIXTURE_FILES)
    assert first == second  # byte-identical modulo timestamps
    print("CRITERION 6: PASS")


# =============================================================================
# CRITERION 7: evaluation regimes
# =============================================================================

def test_criterion_7_evaluation_regimes():
    # scanner-as-oracle: 21 truth spans, 6 matched, 4 off-CWE predictions
    truth_findings = [
        Finding(cwe_ids=["89"], rule_id="r", title="", description="",
                file_path="app.js", line_start=10 * i + 1, line_end=10 * i + 4)
        for i in range(21)
    ]
    truth = truth_from_findings(truth_findings)
    predicted = [
        PredictedFinding(cwe_id="CWE-89", reason="match", line_start=10 * i + 1,
                         line_end=10 * i + 4, code_snippet="")
        for i in range(6)
    ] + [
        PredictedFinding(cwe_id="CWE-22", reason="miss", line_start=700 + i,
                         line_end=700 + i, code_snippet="")
        for i in range(4)
    ]
    counts = confusion_from_matching(match_findings(predicted, truth))
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (6, 4, 15, 0)

    # labels regime: duplicate verdicts never move the counts
    records = {"rec-a": {0, 1, 2}, "rec-b": {0, 1}}
    base_labels = [
        EvalLabel("rec-a", 0, Verdict.TRUE_POSITIVE),
        EvalLabel("rec-a", 1, Verdict.FALSE_POSITIVE),
        EvalLabel("rec-a", -1, Verdict.FALSE_NEGATIVE),
        EvalLabel("rec-b", 0, Verdict.TRUE_POSITIVE),
    ]
    with_duplicates = base_labels + [
        EvalLabel("rec-a", 2, Verdict.DUPLICATE),
        EvalLabel("rec-b", 1, Verdict.DUPLICATE),
    ]
    before = confusion_from_labels(base_labels, set(records))
    after = confusion_from_labels(with_duplicates, set(records))
    assert (before.tp, before.fp, before.fn, before.tn) == (2, 1, 1, 0)
    assert (after.tp, after.fp, after.fn, after.tn) == \
           (before.tp, before.fp, before.fn, before.tn)
    print("CRITERION 7: PASS")


# =============================================================================
# CRITERION 8: parser robustness under fuzz
# =============================================================================

VALID_SCANNER_DOC = json.dumps({
    "high": [{
        "cwe_ids": ["89"], "id": "rule", "title": "t", "description": "d",
        "full_filename": "a.js", "source": {"start": 3, "end": 9},
    }],
    "low": [{
        "cwe_ids": ["79", "80"], "id": "rule2", "title": "t2",
        "filename": "b.js", "line_number": 12,
    }],
})

VALID_SCAN_REPLY = (
    'CWE-ID: CWE-89\n'
    'Reason: concatenated query\n'
    'line: 4-5\n'
    'code-snippet: db.query(q)\n'
    '\n'
    'CWE-ID: CWE-79\n'
    'Reason: unescaped output\n'
    'line: 12\n'
    'code-snippet: res.send(x)\n'
)


def _mutate(rng, text: str) -> bytes:
    data = bytearray(text.encode("utf-8"))
    for _ in range(rng.randint(1, 8)):
        choice = rng.random()
        if not data:
            break
        if choice < 0.35:  # flip a byte
            data[rng.randrange(len(data))] = rng.randrange(256)
        elif choice < 0.6:  # delete a slice
            start = rng.randrange(len(data))
            del data[start:start + rng.randint(1, 10)]
        elif choice < 0.85:  # insert noise
            start = rng.randrange(len(data) + 1)
            noise = bytes(rng.randrange(256) for _ in range(rng.randint(1, 10)))
            data[start:start] = noise
        else:  # truncate
            del data[rng.randrange(len(data)):]
    return bytes(data)


def test_criterion_8_parser_robustness():
    rng = random.Random(0xFADE)
    cases = []
    for _ in range(4_000):  # pure noise
        cases.append(bytes(rng.randrange(256)
                           for _ in range(rng.randint(0, 300))))
    for _ in range(3_000):
        cases.append(_mutate(rng, VALID_SCANNER_DOC))
    for _ in range(3_000):
        cases.append(_mutate(rng, VALID_SCAN_REPLY))
    assert len(cases) == 10_000

    crashes = 0
    for case in cases:
        try:
            parse_scanner_report(case)
        except LsastError:
            pass  # structured rejection is a pass
        except Exception:  # noqa: BLE001 - the point is to catch anything
            crashes += 1
        try:
            response = parse_scan_response(case)
            assert response is not None
        except LsastError:
            pass
        except Exception:  # noqa: BLE001
            crashes += 1

    assert crashes == 0
    print("CRITERION 8: PASS")
