import json

import pytest

from lsast.errors import EvaluationError
from lsast.evaluation import (
    ConfusionCounts,
    EvalLabel,
    GroundTruthItem,
    Verdict,
    append_label,
    compute_metrics,
    confusion_from_labels,
    confusion_from_matching,
    evaluate_retrieval,
    f1_consistent,
    format_percent,
    load_ground_truth,
    load_labels,
    match_findings,
    render_metrics_table,
    truth_from_findings,
)
from lsast.gateway import PredictedFinding
from lsast.sast import Finding

# Published measurement columns this package must reconstruct, as
# (tp-rate, fp-rate, accuracy, precision, f1) percent strings, with the
# integer confusion counts they derive from. The counts were recovered by
# exhaustive integer search (see TestPublishedColumns) and frozen here.
PUBLISHED_COLUMNS = {
    "detect_combined": (("28.57%", "100%", "24%", "60%", "38.71%"), (6, 4, 15)),
    "detect_abstraction": (("23.81%", "100%", "19.23%", "50%", "32.26%"), (5, 5, 16)),
    "detect_functionality": (("14.29%", "100%", "10%", "25%", "18.18%"), (1, 3, 6)),
    "quality_abstraction": (("33.33%", "100%", "12.50%", "16.67%", "22.22%"), (3, 15, 6)),
    "quality_functionality": (("16.67%", "100%", "6.90%", "10.53%", "12.90%"), (2, 17, 10)),
    "guided_raw_scanner": (("68.89%", "100%", "62%", "86.11%", "76.54%"), (31, 5, 14)),
    "guided_combined_scanner": (("35.71%", "100%", "32.61%", "78.95%", "49.18%"), (15, 4, 27)),
}

# One published column is internally inconsistent: its F1 does not follow
# from its own precision and TP-rate, and no integer counts reproduce it.
INCONSISTENT_COLUMN = ("17.91%", "100%", "24%", "63.16%", "38.71%")


def metric_strings(counts: ConfusionCounts) -> tuple[str, ...]:
    metrics = compute_metrics(counts)
    return tuple(format_percent(v) for v in (
        metrics.tp_rate, metrics.fp_rate, metrics.accuracy,
        metrics.precision, metrics.f1,
    ))


def solve_counts(targets: tuple[str, ...], bound: int = 120) -> list[tuple[int, int, int]]:
    """Exhaustive integer search for (tp, fp, fn) reproducing a column."""
    tp_rate_target = targets[0]
    solutions = []
    for tp in range(bound):
        for fn in range(bound):
            if tp + fn == 0:
                continue
            if format_percent(tp / (tp + fn)) != tp_rate_target:
                continue
            for fp in range(bound):
                if metric_strings(ConfusionCounts(tp=tp, fp=fp, fn=fn)) == targets:
                    solutions.append((tp, fp, fn))
    return solutions


class TestPublishedColumns:
    @pytest.mark.parametrize("name", sorted(PUBLISHED_COLUMNS))
    def test_frozen_counts_solve_their_column(self, name):
        """The frozen counts are a true integer solution for the column.

        A column pins counts only up to an integer scale (all five measures
        are ratios), so the search must find exactly one primitive family:
        the multiples of its smallest member, with the frozen counts inside.
        """
        targets, frozen = PUBLISHED_COLUMNS[name]
        solutions = solve_counts(targets)
        assert frozen in solutions
        base = min(solutions)
        for solution in solutions:
            scale = solution[0] // base[0] if base[0] else solution[1] // base[1]
            assert solution == tuple(scale * component for component in base)

    @pytest.mark.parametrize("name", sorted(PUBLISHED_COLUMNS))
    def test_frozen_counts_reproduce_column(self, name):
        targets, (tp, fp, fn) = PUBLISHED_COLUMNS[name]
        assert metric_strings(ConfusionCounts(tp=tp, fp=fp, fn=fn)) == targets

    def test_inconsistent_column_has_no_integer_solution(self):
        assert solve_counts(INCONSISTENT_COLUMN) == []

    def test_inconsistent_column_fails_f1_check(self):
        assert f1_consistent(63.16, 17.91, 38.71) is False

    @pytest.mark.parametrize("name", sorted(PUBLISHED_COLUMNS))
    def test_consistent_columns_pass_f1_check(self, name):
        targets, _ = PUBLISHED_COLUMNS[name]
        precision = float(targets[3].rstrip("%"))
        tp_rate = float(targets[0].rstrip("%"))
        f1 = float(targets[4].rstrip("%"))
        assert f1_consistent(precision, tp_rate, f1) is True


class TestFormatPercent:
    def test_exact_hundredths_trimmed(self):
        assert format_percent(1.0) == "100%"
        assert format_percent(0.24) == "24%"
        assert format_percent(0.6) == "60%"
        assert format_percent(0.0) == "0%"

    def test_two_decimals_kept(self):
        assert format_percent(0.125) == "12.50%"
        assert format_percent(2 / 29) == "6.90%"
        assert format_percent(6 / 21) == "28.57%"

    def test_rounding_is_bankers_free(self):
        assert format_percent(0.10005) == "10.01%"


class TestComputeMetrics:
    def test_formulas(self):
        metrics = compute_metrics(ConfusionCounts(tp=6, fp=4, fn=15))
        assert metrics.tp_rate == pytest.approx(6 / 21)
        assert metrics.fp_rate == pytest.approx(1.0)
        assert metrics.accuracy == pytest.approx(6 / 25)
        assert metrics.precision == pytest.approx(0.6)
        assert metrics.f1 == pytest.approx(2 * 0.6 * (6 / 21) / (0.6 + 6 / 21))
        assert metrics.flags == []

    def test_true_negatives_participate(self):
        metrics = compute_metrics(ConfusionCounts(tp=1, fp=1, fn=1, tn=1))
        assert metrics.fp_rate == pytest.approx(0.5)
        assert metrics.accuracy == pytest.approx(0.5)

    def test_zero_denominators_flagged_as_zero(self):
        metrics = compute_metrics(ConfusionCounts())
        assert (metrics.tp_rate, metrics.fp_rate, metrics.accuracy,
                metrics.precision, metrics.f1) == (0, 0, 0, 0, 0)
        assert len(metrics.flags) == 5

    def test_counts_add(self):
        total = ConfusionCounts(1, 2, 3, 0) + ConfusionCounts(10, 20, 30, 1)
        assert (total.tp, total.fp, total.fn, total.tn) == (11, 22, 33, 1)


class TestMatching:
    def _pred(self, cwe, start, end=None):
        return PredictedFinding(cwe_id=cwe, reason="r", line_start=start,
                                line_end=end if end is not None else start,
                                code_snippet="")

    def _truth(self, cwe, start, end=None):
        return GroundTruthItem(file_path="a.js", cwe_id=cwe, line_start=start,
                               line_end=end if end is not None else start)

    def test_exact_match(self):
        matching = match_findings([self._pred("CWE-79", 5)],
                                  [self._truth("CWE-79", 5)])
        assert matching.matched == [(0, 0)]

    def test_cwe_must_agree(self):
        matching = match_findings([self._pred("CWE-79", 5)],
                                  [self._truth("CWE-89", 5)])
        assert matching.matched == []
        assert matching.unmatched_predicted == [0]
        assert matching.unmatched_truth == [0]

    def test_cwe_comparison_is_normalized(self):
        matching = match_findings([self._pred("cwe_079", 5)],
                                  [self._truth("CWE-79", 5)])
        assert matching.matched == [(0, 0)]

    def test_overlap_requires_intersection(self):
        matching = match_findings([self._pred("CWE-79", 10, 12)],
                                  [self._truth("CWE-79", 13, 15)])
        assert matching.matched == []

    def test_tolerance_widens_truth_span(self):
        truth = [self._truth("CWE-79", 13, 15)]
        assert match_findings([self._pred("CWE-79", 10, 12)], truth).matched == []
        assert match_findings([self._pred("CWE-79", 10, 12)], truth,
                              line_tolerance=1).matched == [(0, 0)]

    def test_one_truth_matches_once(self):
        preds = [self._pred("CWE-79", 5), self._pred("CWE-79", 5)]
        matching = match_findings(preds, [self._truth("CWE-79", 5)])
        assert matching.matched == [(0, 0)]
        assert matching.unmatched_predicted == [1]

    def test_closest_span_wins(self):
        truths = [self._truth("CWE-79", 1, 30), self._truth("CWE-79", 9, 11)]
        matching = match_findings([self._pred("CWE-79", 10)], truths)
        assert matching.matched == [(0, 1)]

    def test_distance_tie_prefers_earlier_truth(self):
        truths = [self._truth("CWE-79", 8, 10), self._truth("CWE-79", 10, 12)]
        matching = match_findings([self._pred("CWE-79", 9, 11)], truths)
        assert matching.matched == [(0, 0)]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(EvaluationError):
            match_findings([], [], line_tolerance=-1)

    def test_acceptance_shape_6_4_15(self):
        truths = [self._truth("CWE-79", i * 10 + 1, i * 10 + 3) for i in range(21)]
        preds = ([self._pred("CWE-79", i * 10 + 1, i * 10 + 3) for i in range(6)]
                 + [self._pred("CWE-89", 900 + i) for i in range(4)])
        counts = confusion_from_matching(match_findings(preds, truths))
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (6, 4, 15, 0)


class TestTruthFromFindings:
    def test_expands_multi_cwe_findings(self):
        finding = Finding(cwe_ids=["78", "89"], rule_id="r", title="",
                          description="", file_path="a.js", line_start=3, line_end=9)
        items = truth_from_findings([finding])
        assert [(i.cwe_id, i.line_start, i.line_end) for i in items] == [
            ("CWE-78", 3, 9), ("CWE-89", 3, 9),
        ]


class TestLabels:
    class _FakeResult:
        def __init__(self, n):
            self.predicted = [object()] * n

    def _records(self):
        return {"rec-a": self._FakeResult(3), "rec-b": self._FakeResult(2)}

    def test_verdict_aliases(self):
        assert Verdict.parse("tp") is Verdict.TRUE_POSITIVE
        assert Verdict.parse("FP") is Verdict.FALSE_POSITIVE
        assert Verdict.parse("false_negative") is Verdict.FALSE_NEGATIVE
        assert Verdict.parse("duplicate") is Verdict.DUPLICATE
        with pytest.raises(EvaluationError):
            Verdict.parse("maybe")

    def test_basic_counting(self):
        labels = [
            EvalLabel("rec-a", 0, Verdict.TRUE_POSITIVE),
            EvalLabel("rec-a", 1, Verdict.FALSE_POSITIVE),
            EvalLabel("rec-a", -1, Verdict.FALSE_NEGATIVE),
            EvalLabel("rec-b", 0, Verdict.TRUE_POSITIVE),
        ]
        counts = confusion_from_labels(labels, self._records())
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (2, 1, 1, 0)

    def test_duplicates_excluded_and_invariant(self):
        base = [
            EvalLabel("rec-a", 0, Verdict.TRUE_POSITIVE),
            EvalLabel("rec-a", 1, Verdict.FALSE_POSITIVE),
        ]
        before = confusion_from_labels(base, self._records())
        extended = base + [
            EvalLabel("rec-a", 2, Verdict.DUPLICATE),
            EvalLabel("rec-b", 0, Verdict.DUPLICATE),
            EvalLabel("rec-b", 1, Verdict.DUPLICATE),
        ]
        after = confusion_from_labels(extended, self._records())
        assert (before.tp, before.fp, before.fn, before.tn) == \
               (after.tp, after.fp, after.fn, after.tn)

    def test_later_label_overrides_earlier(self):
        labels = [
            EvalLabel("rec-a", 0, Verdict.TRUE_POSITIVE),
            EvalLabel("rec-a", 0, Verdict.FALSE_POSITIVE),
        ]
        counts = confusion_from_labels(labels, self._records())
        assert (counts.tp, counts.fp) == (0, 1)

    def test_unknown_record_rejected(self):
        with pytest.raises(EvaluationError):
            confusion_from_labels([EvalLabel("ghost", 0, Verdict.TRUE_POSITIVE)],
                                  self._records())

    def test_out_of_range_finding_rejected(self):
        with pytest.raises(EvaluationError):
            confusion_from_labels([EvalLabel("rec-b", 5, Verdict.TRUE_POSITIVE)],
                                  self._records())

    def test_id_set_skips_index_validation(self):
        counts = confusion_from_labels(
            [EvalLabel("rec-a", 7, Verdict.TRUE_POSITIVE)], {"rec-a"})
        assert counts.tp == 1


class TestRenderTable:
    def test_layout_and_order(self):
        rows = [
            ("first", compute_metrics(ConfusionCounts(tp=6, fp=4, fn=15))),
            ("second", compute_metrics(ConfusionCounts(tp=31, fp=5, fn=14))),
        ]
        table = render_metrics_table(rows)
        lines = table.splitlines()
        assert lines[0].split() == ["Measure", "first", "second"]
        assert lines[1].startswith("TP-Rate")
        assert lines[2].startswith("FP-Rate")
        assert lines[3].startswith("Accuracy")
        assert lines[4].startswith("Precision")
        assert lines[5].startswith("F1-Score")
        assert "28.57%" in lines[1] and "68.89%" in lines[1]

    def test_flags_footnoted(self):
        table = render_metrics_table([("empty", compute_metrics(ConfusionCounts()))])
        assert "0%*" in table
        assert "* empty:" in table

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            render_metrics_table([])


class TestRetrievalEvaluation:
    def test_reports_judged_by_cwe_coverage(self, corpus, js_target, indexes,
                                            embedder, sast_record):
        from lsast.gateway import MockGateway
        from lsast.pipeline import RetrievalMode, ScanContext, run_scan
        from lsast.sast import parse_scanner_report

        functionality, abstraction = indexes
        parsed_findings = parse_scanner_report(json.dumps(sast_record)).findings
        context = ScanContext(gateway=MockGateway(), corpus=corpus,
                              functionality_index=functionality,
                              abstraction_index=abstraction, embedder=embedder,
                              scanner=lambda t: parsed_findings)
        result = run_scan(js_target, RetrievalMode.COMBINED_LSAST, k=3,
                          context=context)
        metrics, counts, warnings = evaluate_retrieval([result], corpus)
        # scanner truth is CWE-943 only; no fixture report carries it
        assert counts.tp == 0
        assert counts.fp == len(set(result.included_report_ids))
        assert counts.fn == 1

    def test_matching_cwe_counts_as_tp(self, corpus):
        class FakeResult:
            target_path = "handler.js"
            scanner_findings = [
                Finding(cwe_ids=["89"], rule_id="r", title="", description="",
                        file_path="handler.js", line_start=1, line_end=2)
            ]
            retrieved_report_ids = {"functionality": [1], "abstraction": [3]}

        metrics, counts, warnings = evaluate_retrieval([FakeResult()], corpus)
        assert counts.tp == 1  # report 1 is the matching injection report
        assert counts.fp == 1  # report 3 covers an unrelated weakness
        assert counts.fn == 0
        assert warnings == []


class TestFileFormats:
    def test_ground_truth_loader(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_text(
            json.dumps({"file": "a.js", "cwe": "79", "line_start": 3}) + "\n"
            + json.dumps({"file": "b.js", "cwe": "CWE-89", "line_start": 5,
                          "line_end": 9}) + "\n"
        )
        items = load_ground_truth(path)
        assert items[0] == GroundTruthItem("a.js", "CWE-79", 3, 3)
        assert items[1] == GroundTruthItem("b.js", "CWE-89", 5, 9)

    def test_ground_truth_bad_line_names_location(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_text('{"file": "a.js"}\n')
        with pytest.raises(EvaluationError) as exc:
            load_ground_truth(path)
        assert "1" in str(exc.value)

    @pytest.mark.parametrize("fields", [
        {"line_start": 4.7},
        {"line_start": True},
        {"line_start": "4.0"},
        {"line_start": None},
        {"line_start": 3, "line_end": 5.5},
        {"line_start": 0},
        {"line_start": -2, "line_end": 4},
        {"line_start": 9, "line_end": 3},
    ])
    def test_ground_truth_bad_numbers_rejected(self, tmp_path, fields):
        path = tmp_path / "truth.jsonl"
        good = {"file": "a.js", "cwe": "79", "line_start": 3}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **fields}) + "\n")
        with pytest.raises(EvaluationError) as exc:
            load_ground_truth(path)
        assert f"{path}:2: bad ground-truth record" in str(exc.value)

    def test_ground_truth_integer_strings_accepted(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_text(json.dumps({"file": "a.js", "cwe": "79", "line_start": "4",
                                    "line_end": " 6"}) + "\n")
        assert load_ground_truth(path) == [GroundTruthItem("a.js", "CWE-79", 4, 6)]

    @pytest.mark.parametrize("finding", [1.5, 1.0, True, False, "1.5", "one", None, [1]],
                             ids=repr)
    def test_labels_bad_finding_rejected(self, tmp_path, finding):
        path = tmp_path / "labels.jsonl"
        path.write_text(json.dumps({"record": "r", "finding": finding, "verdict": "tp"}) + "\n")
        with pytest.raises(EvaluationError) as exc:
            load_labels(path)
        assert f"{path}:1: bad label record" in str(exc.value)

    def test_labels_integer_strings_accepted(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text(json.dumps({"record": "r", "finding": "2", "verdict": "tp"}) + "\n"
                        + json.dumps({"record": "r", "finding": "-1", "verdict": "fn"}) + "\n")
        assert [label.finding_index for label in load_labels(path)] == [2, -1]

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        label = EvalLabel("rec-1", 2, Verdict.DUPLICATE, note="same as scanner")
        append_label(path, label)
        append_label(path, EvalLabel("rec-1", -1, Verdict.FALSE_NEGATIVE))
        loaded = load_labels(path)
        assert loaded[0] == label
        assert loaded[1].finding_index == -1

    def test_labels_bad_verdict_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"record": "r", "finding": 0, "verdict": "sorta"}\n')
        with pytest.raises(EvaluationError):
            load_labels(path)

    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(EvaluationError):
            load_ground_truth(tmp_path / "ghost.jsonl")
        with pytest.raises(EvaluationError):
            load_labels(tmp_path / "ghost.jsonl")
