"""Evaluation harness: matching, confusion counts, metric suite, tables.

Two ground-truth regimes are supported. Scanner-as-oracle treats the
conventional scanner's findings as truth and matches model predictions
against them (the matching rule is declared here and configurable, since no
canonical rule exists for this data). The labels regime counts hand-assigned
verdicts, with duplicate-verdict items excluded from every count.

tn defaults to 0: every evaluated file contained vulnerabilities, so true
negatives never arise. Ratios with a zero denominator are defined as 0 and
flagged rather than left undefined, keeping table rendering total.
"""

import logging
from dataclasses import dataclass, field
from enum import Enum

from .errors import EvaluationError
from .gateway import PredictedFinding
from .index import IndexKind
from .jsonio import append_jsonl, read_jsonl
from .sast import Finding, normalize_cwe

logger = logging.getLogger(__name__)

# The five measures in table order, as (MetricsReport field, table title).
METRICS = (
    ("tp_rate", "TP-Rate"),
    ("fp_rate", "FP-Rate"),
    ("accuracy", "Accuracy"),
    ("precision", "Precision"),
    ("f1", "F1-Score"),
)


class Verdict(Enum):
    TRUE_POSITIVE = "true_positive"
    FALSE_POSITIVE = "false_positive"
    FALSE_NEGATIVE = "false_negative"
    DUPLICATE = "duplicate"

    @classmethod
    def parse(cls, value: str) -> "Verdict":
        text = str(value).strip().lower()
        aliases = {
            "tp": cls.TRUE_POSITIVE,
            "fp": cls.FALSE_POSITIVE,
            "fn": cls.FALSE_NEGATIVE,
            "dup": cls.DUPLICATE,
        }
        if text in aliases:
            return aliases[text]
        try:
            return cls(text)
        except ValueError:
            valid = ", ".join([m.value for m in cls] + list(aliases))
            raise EvaluationError(f"unknown verdict {value!r}; expected one of: {valid}") from None


@dataclass(frozen=True)
class GroundTruthItem:
    """One known vulnerability: file, normalized CWE, inclusive line span."""

    file_path: str
    cwe_id: str
    line_start: int
    line_end: int


@dataclass(frozen=True)
class EvalLabel:
    """One hand-assigned verdict for a predicted finding.

    finding_index is -1 for false_negative labels, which reference a missed
    vulnerability rather than a prediction.
    """

    record_id: str
    finding_index: int
    verdict: Verdict
    note: str = ""


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn
        )


@dataclass
class MetricsReport:
    """The five derived measures, as fractions in [0, 1].

    flags names every ratio whose denominator was zero (defined as 0).
    """

    tp_rate: float
    fp_rate: float
    accuracy: float
    precision: float
    f1: float
    flags: list[str] = field(default_factory=list)

    def values(self) -> dict[str, float]:
        """The five measures by field name, in METRICS order."""
        return {name: getattr(self, name) for name, _ in METRICS}


@dataclass
class Matching:
    matched: list[tuple[int, int]]  # (predicted index, truth index)
    unmatched_predicted: list[int]
    unmatched_truth: list[int]


def truth_from_findings(findings: list[Finding]) -> list[GroundTruthItem]:
    """Expand scanner findings into ground-truth items, one per CWE id."""
    items = []
    for finding in findings:
        for cwe in finding.cwe_ids:
            normalized = normalize_cwe(cwe)
            if normalized is None:
                continue
            items.append(GroundTruthItem(
                file_path=finding.file_path,
                cwe_id=normalized,
                line_start=finding.line_start,
                line_end=finding.line_end,
            ))
    return items


def match_findings(predicted: list[PredictedFinding], truth: list[GroundTruthItem],
                   line_tolerance: int = 0) -> Matching:
    """Greedy one-to-one matching of predictions to truth items.

    A pair is eligible when the normalized CWE ids are equal and the
    prediction's span overlaps the truth span widened by line_tolerance on
    each side. Predictions claim truth items in prediction order; among
    eligible truth items the smallest span distance (L1 over endpoints)
    wins, then the earliest truth index. All items must refer to one file;
    callers group by file first.
    """
    if line_tolerance < 0:
        raise EvaluationError("line_tolerance must be >= 0")
    taken = [False] * len(truth)
    matched: list[tuple[int, int]] = []
    for p_index, pred in enumerate(predicted):
        pred_cwe = normalize_cwe(pred.cwe_id)
        best = None
        for t_index, item in enumerate(truth):
            if taken[t_index] or pred_cwe != item.cwe_id:
                continue
            lo = item.line_start - line_tolerance
            hi = item.line_end + line_tolerance
            if pred.line_start > hi or pred.line_end < lo:
                continue
            distance = abs(pred.line_start - item.line_start) + abs(pred.line_end - item.line_end)
            if best is None or (distance, t_index) < best[:2]:
                best = (distance, t_index)
        if best is not None:
            taken[best[1]] = True
            matched.append((p_index, best[1]))
    matched_preds = {p for p, _ in matched}
    return Matching(
        matched=matched,
        unmatched_predicted=[i for i in range(len(predicted)) if i not in matched_preds],
        unmatched_truth=[i for i in range(len(truth)) if not taken[i]],
    )


def confusion_from_matching(matching: Matching) -> ConfusionCounts:
    return ConfusionCounts(
        tp=len(matching.matched),
        fp=len(matching.unmatched_predicted),
        fn=len(matching.unmatched_truth),
        tn=0,
    )


def validate_label(label: EvalLabel, records):
    """Check that `label` names a known record and an in-range finding.

    `records` maps record id to ScanResult, or is a set of known ids, which
    checks the record id only. false_negative labels reference no finding,
    so their index is not checked.

    Raises:
        EvaluationError: unknown record, or out-of-range finding index.
    """
    if label.record_id not in records:
        raise EvaluationError(f"no scan record {label.record_id!r}")
    if hasattr(records, "keys") and label.verdict is not Verdict.FALSE_NEGATIVE:
        findings = len(records[label.record_id].predicted)
        if not 0 <= label.finding_index < findings:
            raise EvaluationError(
                f"record {label.record_id!r} has {findings} findings; "
                f"index {label.finding_index} is out of range"
            )


def confusion_from_labels(labels: list[EvalLabel], records) -> ConfusionCounts:
    """Count verdicts over persisted scans.

    `records` is as for validate_label, which every label must pass.
    duplicate verdicts are excluded from every count. A later label for the
    same (record, finding index) overrides an earlier one, so an append-only
    labels file stays correctable.

    Raises:
        EvaluationError: a label references an unknown record or an
            out-of-range finding index.
    """
    effective: dict[tuple[str, int], EvalLabel] = {}
    for label in labels:
        validate_label(label, records)
        effective[(label.record_id, label.finding_index)] = label
    counts = ConfusionCounts()
    for label in effective.values():
        if label.verdict is Verdict.TRUE_POSITIVE:
            counts.tp += 1
        elif label.verdict is Verdict.FALSE_POSITIVE:
            counts.fp += 1
        elif label.verdict is Verdict.FALSE_NEGATIVE:
            counts.fn += 1
        # duplicates fall through: excluded entirely
    return counts


def compute_metrics(counts: ConfusionCounts) -> MetricsReport:
    """Derive the five measures from confusion counts.

    Every ratio with a zero denominator is defined as 0 and flagged.
    """
    def ratio(numerator, denominator):
        return numerator / denominator if denominator else None

    tp, fp, fn, tn = counts.tp, counts.fp, counts.fn, counts.tn
    tp_rate, precision = ratio(tp, tp + fn), ratio(tp, tp + fp)
    ratios = dict(  # in the order their flags are listed
        tp_rate=tp_rate,
        fp_rate=ratio(fp, fp + tn),
        precision=precision,
        accuracy=ratio(tp + tn, tp + fp + fn + tn),
        # precision + tp_rate is positive exactly when tp is
        f1=ratio(2 * precision * tp_rate, precision + tp_rate) if tp else None,
    )
    flags = [f"{name} denominator is zero; defined as 0"
             for name, value in ratios.items() if value is None]
    return MetricsReport(**{name: value or 0.0 for name, value in ratios.items()}, flags=flags)


def format_percent(value: float) -> str:
    """Render a fraction as a percentage, 2 decimals, ".00" trimmed.

    1.0 -> "100%", 0.24 -> "24%", 0.125 -> "12.50%", 0.0689655 -> "6.90%".
    """
    text = f"{value * 100:.2f}"
    if text.endswith(".00"):
        text = text[:-3]
    return text + "%"


def f1_consistent(precision_pct: float, tp_rate_pct: float, f1_pct: float,
                  tolerance: float = 0.02) -> bool:
    """Check that a printed F1 follows from its own precision and TP-rate.

    All arguments are percentages as printed (2 decimals). The tolerance
    absorbs the rounding of precision and TP-rate; a genuinely inconsistent
    column misses by whole percentage points.
    """
    if precision_pct + tp_rate_pct == 0:
        return f1_pct == 0
    harmonic = 2 * precision_pct * tp_rate_pct / (precision_pct + tp_rate_pct)
    return abs(harmonic - f1_pct) <= tolerance


def evaluate_retrieval(results, corpus) -> tuple[MetricsReport, ConfusionCounts, list[str]]:
    """Judge retrieval quality against the scanner's CWEs per file.

    Each retrieved report counts as tp when its cwe-id appears among the
    scanner's CWEs for that file, else fp; scanner CWEs never covered by any
    retrieved report count as fn. Reports without a cwe-id are skipped with
    a warning. Truth is each result's attached scanner findings. `corpus` is
    read only for retrieved reports, so it may be None when no result
    retrieved any.

    Returns (metrics, counts, warnings).
    """
    warnings: list[str] = []
    counts = ConfusionCounts()
    for result in results:
        truth_cwes = {item.cwe_id for item in truth_from_findings(result.scanner_findings)}
        retrieved_ids = dict.fromkeys(
            report_id
            for kind in IndexKind
            for report_id in result.retrieved_report_ids.get(kind.value, [])
        )
        covered = set()
        for report_id in retrieved_ids:
            report = corpus.get_report(report_id)
            if not report.cwe_id:
                warnings.append(
                    f"report {report_id} has no cwe-id; skipped for {result.target_path}"
                )
                continue
            if report.cwe_id in truth_cwes:
                counts.tp += 1
                covered.add(report.cwe_id)
            else:
                counts.fp += 1
        counts.fn += len(truth_cwes - covered)
    return compute_metrics(counts), counts, warnings


def render_metrics_table(rows) -> str:
    """Render named metric reports as a fixed-column text table.

    `rows` is a list of (name, MetricsReport) pairs. Columns are
    approaches; rows are the five measures in canonical order. Flagged zero
    ratios are marked with "*" and footnoted.

    Raises:
        EvaluationError: no rows.
    """
    if not rows:
        raise EvaluationError("cannot render an empty metrics table")

    def cells_for(report: MetricsReport) -> list[str]:
        flagged = {flag.split(" ", 1)[0] for flag in report.flags}
        return [
            format_percent(value) + ("*" if key in flagged else "")
            for key, value in report.values().items()
        ]

    names = [name for name, _ in rows]
    columns = [cells_for(report) for _, report in rows]
    header = ["Measure", *names]
    table_rows = [
        [title, *(column[i] for column in columns)]
        for i, (_, title) in enumerate(METRICS)
    ]
    widths = [
        max(len(line[i]) for line in [header, *table_rows])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip()
        for line in [header, *table_rows]
    ]
    footnotes = []
    for name, report in rows:
        for flag in report.flags:
            footnotes.append(f"* {name}: {flag}")
    if footnotes:
        lines.append("")
        lines.extend(footnotes)
    return "\n".join(lines)


# -- file formats -------------------------------------------------------------

def _integer(value, key: str) -> int:
    """A JSON integer or an integer string; booleans and fractions are refused."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{key} must be an integer, got {value!r}")


def load_ground_truth(path) -> list[GroundTruthItem]:
    """Read ground-truth items from a JSONL file.

    Record shape: {"file": <path>, "cwe": <id>, "line_start": <n>,
    "line_end": <n>} (line_end defaults to line_start). Lines are integers
    with 1 <= line_start <= line_end.

    Raises:
        EvaluationError: unreadable file or malformed record.
    """
    items = []
    for line_no, record in read_jsonl(path, EvaluationError):
        try:
            cwe = normalize_cwe(record["cwe"])
            if cwe is None:
                raise ValueError(f"unparseable cwe {record['cwe']!r}")
            start = _integer(record["line_start"], "line_start")
            end = _integer(record.get("line_end", start), "line_end")
            if not 1 <= start <= end:
                raise ValueError(f"line span {start}..{end} is not 1 <= line_start <= line_end")
            items.append(GroundTruthItem(
                file_path=str(record["file"]),
                cwe_id=cwe,
                line_start=start,
                line_end=end,
            ))
        except (KeyError, ValueError, TypeError) as exc:
            raise EvaluationError(f"{path}:{line_no}: bad ground-truth record: {exc}") from None
    return items


def load_labels(path) -> list[EvalLabel]:
    """Read labels from a JSONL file.

    Record shape: {"record": <record id>, "finding": <index, -1 for
    false negatives>, "verdict": <tp|fp|fn|duplicate|long form>,
    "note": <optional>}.

    Raises:
        EvaluationError: unreadable file or malformed record.
    """
    labels = []
    for line_no, record in read_jsonl(path, EvaluationError):
        try:
            labels.append(EvalLabel(
                record_id=str(record["record"]),
                finding_index=_integer(record["finding"], "finding"),
                verdict=Verdict.parse(record["verdict"]),
                note=str(record.get("note", "")),
            ))
        except (EvaluationError, KeyError, ValueError, TypeError) as exc:
            raise EvaluationError(f"{path}:{line_no}: bad label record: {exc}") from None
    return labels


def append_label(path, label: EvalLabel):
    """Append one label to a JSONL labels file, creating it if missing.

    Raises:
        EvaluationError: the file or its directory cannot be written.
    """
    record = {
        "record": label.record_id,
        "finding": label.finding_index,
        "verdict": label.verdict.value,
        "note": label.note,
    }
    append_jsonl(path, [record], EvaluationError)
