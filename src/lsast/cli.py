"""Command-line front end.

Subcommands cover the full workflow: ingest vulnerability reports into the
corpus, build the two vector indexes, scan target files under any retrieval
mode, evaluate persisted scans, and record hand-assigned verdicts.

Exit codes: 0 success, 1 operational failure, 2 usage error.
"""

import argparse
import logging
import sys
from pathlib import Path

from .config import Config, load_config
from .corpus import ReportCorpus, fetch_reports_remote
from .errors import ConfigurationError, EvaluationError, LsastError
from .evaluation import (
    ConfusionCounts,
    EvalLabel,
    Verdict,
    append_label,
    compute_metrics,
    confusion_from_labels,
    confusion_from_matching,
    evaluate_retrieval,
    load_ground_truth,
    load_labels,
    match_findings,
    render_metrics_table,
    truth_from_findings,
    validate_label,
)
from .gateway import ChatClient, MockGateway, render_finding
from .index import HttpEmbedder, IndexKind, OfflineEmbedder, VectorIndex
from .jsonio import canonical_json
from .pipeline import (
    RetrievalMode,
    ScanContext,
    ScanFailure,
    load_scan_directory,
    persist_scan,
    run_scan_batch,
)
from .sast import (
    FindingIndex,
    filter_findings_for_file,
    parse_scanner_report,
    run_external_scanner,
)

logger = logging.getLogger(__name__)

MODE_NAMES = [mode.value for mode in RetrievalMode]


def make_gateway(config: Config):
    """Chat model client per config; "mock:" endpoints run fully offline."""
    if config.chat_endpoint.startswith("mock:"):
        return MockGateway()
    return ChatClient(
        config.chat_endpoint,
        config.chat_model,
        retries=config.retries,
        temperature=config.temperature,
        max_tokens=config.max_tokens,
    )


def make_embedder(config: Config):
    """Embedding backend per config; empty endpoint selects the offline one."""
    if not config.embed_endpoint:
        return OfflineEmbedder(dimension=config.embed_dimension)
    return HttpEmbedder(config.embed_endpoint, config.embed_model, config.embed_dimension,
                        retries=config.retries)


def _index_path(config: Config, kind: IndexKind) -> Path:
    return Path(config.index_dir) / f"{kind.value}.jsonl"


def _mode_argument(text: str) -> RetrievalMode:
    try:
        return RetrievalMode.parse(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _existing_corpus(config: Config) -> ReportCorpus:
    """Open the corpus for a command that only reads it; never creates it."""
    if not Path(config.corpus_dir).is_dir():
        raise ConfigurationError(
            f"corpus directory {config.corpus_dir} does not exist; run ingest first"
        )
    return ReportCorpus(config.corpus_dir)


def _print_warnings(warnings):
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


# -- ingest -------------------------------------------------------------------

def cmd_ingest(args, config: Config) -> int:
    if not args.reports and not args.fetch:
        raise ConfigurationError("nothing to ingest; pass --reports and/or --fetch")
    corpus = ReportCorpus(config.corpus_dir)

    if args.reports:
        summary = corpus.ingest_reports(args.reports)
        _print_warnings(summary.warnings)
        print(f"ingested from {args.reports}: corpus now holds {summary.count} "
              f"reports ({summary.skipped} records skipped)")

    if args.fetch:
        if not config.fetch_endpoint:
            raise ConfigurationError("--fetch needs fetch_endpoint in the config")
        window = None
        if args.since or args.until:
            if not (args.since and args.until):
                raise ConfigurationError("--since and --until must be given together")
            window = (args.since, args.until)
        records = fetch_reports_remote(
            config.fetch_endpoint, time_window=window, page_limit=args.page_limit,
            retries=config.retries,
        )
        summary = corpus.ingest_records(records)
        _print_warnings(summary.warnings)
        print(f"fetched {len(records)} records: corpus now holds {summary.count} "
              f"reports ({summary.skipped} records skipped)")

    if not args.no_catalog:
        catalog = corpus.build_snippet_catalog(llm=make_gateway(config))
        print(f"snippet catalog: {catalog.count} snippets "
              f"({catalog.llm_extracted} model-extracted, "
              f"{catalog.reports_without_code} reports without code)")
    return 0


# -- index --------------------------------------------------------------------

def cmd_index(args, config: Config) -> int:
    corpus = ReportCorpus(config.corpus_dir)
    if len(corpus) == 0:
        raise ConfigurationError(
            f"corpus at {config.corpus_dir} is empty; run ingest first"
        )
    gateway = make_gateway(config)
    embedder = make_embedder(config)
    kinds = list(IndexKind) if args.kind == "both" else [IndexKind(args.kind)]
    for kind in kinds:
        index, summary = VectorIndex.build(corpus, kind, llm=gateway, embedder=embedder)
        path = index.save(_index_path(config, kind))
        line = (f"built {kind.value} index at {path}: {summary.entries} entries, "
                f"{summary.skipped} skipped, {len(summary.failures)} failures")
        print(line)
        for failure in summary.failures:
            print(f"warning: {failure}", file=sys.stderr)
        if summary.degraded:
            print(f"warning: {kind.value} index build is degraded "
                  "(over half of the derivations failed)", file=sys.stderr)
    return 0


# -- scan ---------------------------------------------------------------------

def _make_scanner(args, config: Config):
    """Return a (target) -> findings callable, or None when no source given."""
    if args.sast_json and args.run_scanner:
        raise ConfigurationError("--sast-json and --run-scanner are mutually exclusive")
    if args.sast_json:
        path = Path(args.sast_json)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise ConfigurationError(f"cannot read scanner report {path}: {exc}") from None
        report = parse_scanner_report(raw)
        _print_warnings(report.warnings)
        return lambda target: report.findings
    if args.run_scanner:
        if not config.scanner_command:
            raise ConfigurationError("--run-scanner needs scanner_command in the config")

        def scan(target):
            report = run_external_scanner(
                config.scanner_command, target, timeout=config.scanner_timeout
            )
            _print_warnings(report.warnings)
            return report.findings

        return scan
    return None


def _print_result_text(result):
    print(f"== {result.target_path} [{result.mode.value}, k={result.k}]")
    if result.scanner_findings:
        print(f"   scanner findings: {len(result.scanner_findings)}")
    retrieved = result.retrieved_report_ids
    for kind in IndexKind:
        ids = retrieved.get(kind.value, [])
        if ids:
            print(f"   {kind.value} retrieval: reports {ids}")
    if result.dropped_report_ids:
        print(f"   dropped for prompt budget: reports {result.dropped_report_ids}")
    if result.none_found:
        print("   model: no additional vulnerabilities reported")
    elif not result.predicted:
        print("   model: response did not parse as findings")
    for finding in result.predicted:
        print("   " + render_finding(finding).replace("\n", "\n   "))


def cmd_scan(args, config: Config) -> int:
    mode: RetrievalMode = args.mode
    gateway = make_gateway(config)
    scanner = _make_scanner(args, config)

    corpus = embedder = None
    if mode.index_kinds:
        corpus = _existing_corpus(config)
        embedder = make_embedder(config)
    indexes = {kind: VectorIndex.load(_index_path(config, kind)) for kind in mode.index_kinds}

    context = ScanContext(
        gateway=gateway,
        corpus=corpus,
        functionality_index=indexes.get(IndexKind.FUNCTIONALITY),
        abstraction_index=indexes.get(IndexKind.ABSTRACTION),
        embedder=embedder,
        scanner=scanner,
        attach_scanner_findings=scanner is not None,
        line_budget=config.line_budget,
        char_budget=config.prompt_char_budget,
    )
    outcomes = run_scan_batch(
        args.targets,
        mode,
        k=args.k if args.k is not None else config.k,
        context=context,
        parallelism=config.parallelism,
    )

    failures = 0
    for outcome in outcomes:
        if isinstance(outcome, ScanFailure):
            failures += 1
            print(f"error: {outcome.target_path}: {outcome.error}", file=sys.stderr)
            continue
        if args.out:
            path = persist_scan(outcome, args.out)
            print(f"wrote {path}", file=sys.stderr)
        if args.format == "jsonl":
            print(canonical_json(outcome.to_dict()))
        else:
            _print_result_text(outcome)
    return 1 if failures else 0


# -- eval ---------------------------------------------------------------------

def _group_scans_by_mode(scans) -> list[tuple[str, list]]:
    """Group persisted scans by mode, in canonical mode order."""
    groups: dict[str, list] = {}
    for scan in scans:
        groups.setdefault(scan.result.mode.value, []).append(scan)
    return [(name, groups[name]) for name in MODE_NAMES if name in groups]


def cmd_eval(args, config: Config) -> int:
    if args.truth_file and (args.retrieval or args.truth == "labels"):
        raise ConfigurationError("--truth-file applies only to the default scanner regime")

    records_dir = args.records if args.records else config.scan_dir
    scans = load_scan_directory(records_dir)
    if not scans:
        raise EvaluationError(f"no scan records found in {records_dir}")
    # a re-run scan persists a second record with the same content digest
    unique = {}
    for scan in scans:
        unique.setdefault(scan.content_digest, scan)
    if len(unique) < len(scans):
        _print_warnings([f"{len(scans) - len(unique)} duplicate records counted once"])
    scans = list(unique.values())

    warnings: list[str] = []
    if args.retrieval:
        # records that retrieved nothing (non-retrieval modes) need no corpus
        retrieved = any(ids for scan in scans for ids in scan.result.retrieved_report_ids.values())
        corpus = _existing_corpus(config) if retrieved else None

        def count(group) -> ConfusionCounts:
            _, counts, group_warnings = evaluate_retrieval([s.result for s in group], corpus)
            warnings.extend(group_warnings)
            return counts
    elif args.truth == "labels":
        if not args.labels:
            raise ConfigurationError("--truth labels needs --labels FILE")
        labels = load_labels(args.labels)
        records = {scan.record_id: scan.result for scan in scans}
        for label in labels:
            validate_label(label, records)

        def count(group) -> ConfusionCounts:
            group_ids = {scan.record_id for scan in group}
            group_labels = [label for label in labels if label.record_id in group_ids]
            return confusion_from_labels(group_labels, group_ids)
    else:
        truth_index = FindingIndex(load_ground_truth(args.truth_file)) if args.truth_file else None

        def count(group) -> ConfusionCounts:
            counts = ConfusionCounts()
            for result in (scan.result for scan in group):
                if truth_index is not None:
                    truth = filter_findings_for_file(truth_index, result.target_path)
                else:
                    truth = truth_from_findings(result.scanner_findings)
                matching = match_findings(result.predicted, truth, args.line_tolerance)
                counts = counts + confusion_from_matching(matching)
            return counts

    rows = []
    for name, group in _group_scans_by_mode(scans):
        counts = count(group)
        rows.append((name, compute_metrics(counts), counts))
    _print_warnings(warnings)

    if args.format == "json":
        payload = {
            "columns": [
                {
                    "name": name,
                    "counts": vars(counts),
                    "metrics": metrics.values(),
                    "flags": metrics.flags,
                }
                for name, metrics, counts in rows
            ]
        }
        print(canonical_json(payload, indent=2))
    else:
        print(render_metrics_table([(name, metrics) for name, metrics, _ in rows]))
    return 0


# -- label --------------------------------------------------------------------

def cmd_label(args, config: Config) -> int:
    labels_path = Path(args.labels) if args.labels else Path(config.scan_dir) / "labels.jsonl"

    if args.list:
        if not labels_path.exists():
            print(f"no labels at {labels_path}")
            return 0
        for label in load_labels(labels_path):
            note = f"  # {label.note}" if label.note else ""
            print(f"{label.record_id}  finding={label.finding_index}  "
                  f"{label.verdict.value}{note}")
        return 0

    if args.record is None or args.verdict is None:
        raise ConfigurationError("label needs --record and --verdict (or --list)")
    verdict = Verdict.parse(args.verdict)
    finding_index = args.finding
    if finding_index is None:
        if verdict is not Verdict.FALSE_NEGATIVE:
            raise ConfigurationError("--finding is required for this verdict")
        finding_index = -1
    if verdict is Verdict.FALSE_NEGATIVE and finding_index != -1:
        raise ConfigurationError("false_negative labels use finding index -1")

    label = EvalLabel(
        record_id=args.record,
        finding_index=finding_index,
        verdict=verdict,
        note=args.note or "",
    )
    # Validate the reference before writing anything.
    scans = load_scan_directory(config.scan_dir)
    validate_label(label, {scan.record_id: scan.result for scan in scans})
    append_label(labels_path, label)
    print(f"recorded {verdict.value} for {args.record} finding {finding_index}")
    return 0


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsast",
        description="Scanner-guided model vulnerability scanning with "
                    "report retrieval.",
    )
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress details to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="add vulnerability reports to the corpus")
    p_ingest.add_argument("--reports", help="JSON/JSONL file or directory of reports")
    p_ingest.add_argument("--fetch", action="store_true",
                          help="pull reports from the configured fetch_endpoint "
                               "(token via LSAST_HACKTIVITY_TOKEN)")
    p_ingest.add_argument("--page-limit", type=int, default=10,
                          help="max pages to fetch (default 10)")
    p_ingest.add_argument("--since", help="keep fetched reports from this date (YYYY-MM-DD)")
    p_ingest.add_argument("--until", help="keep fetched reports up to this date (YYYY-MM-DD)")
    p_ingest.add_argument("--no-catalog", action="store_true",
                          help="skip rebuilding the snippet catalog")
    p_ingest.set_defaults(handler=cmd_ingest)

    p_index = sub.add_parser("index", help="build the vector indexes from the corpus")
    p_index.add_argument("--kind", choices=(*(kind.value for kind in IndexKind), "both"),
                         default="both", help="which index to build (default both)")
    p_index.set_defaults(handler=cmd_index)

    p_scan = sub.add_parser("scan", help="scan target files for vulnerabilities")
    p_scan.add_argument("targets", nargs="+", help="files or directories to scan")
    p_scan.add_argument("--mode", type=_mode_argument, default=RetrievalMode.RAW,
                        help="retrieval mode: one of " + ", ".join(MODE_NAMES)
                             + " (hyphens accepted; default raw)")
    p_scan.add_argument("--k", type=int, default=None,
                        help="retrieved reports per index (default from config)")
    p_scan.add_argument("--sast-json", help="path to a pre-computed scanner report")
    p_scan.add_argument("--run-scanner", action="store_true",
                        help="run the configured scanner_command per target")
    p_scan.add_argument("--out", help="directory to persist scan records into")
    p_scan.add_argument("--format", choices=("text", "jsonl"), default="text",
                        help="output format (default text)")
    p_scan.set_defaults(handler=cmd_scan)

    p_eval = sub.add_parser("eval", help="evaluate persisted scan records")
    p_eval.add_argument("--records", help="directory of scan records "
                                          "(default scan_dir from config)")
    p_eval.add_argument("--truth", choices=("scanner", "labels"), default="scanner",
                        help="ground-truth source (default scanner findings)")
    p_eval.add_argument("--labels", help="labels JSONL file (with --truth labels)")
    p_eval.add_argument("--truth-file", help="ground-truth JSONL overriding "
                                             "scanner findings (scanner regime only)")
    p_eval.add_argument("--retrieval", action="store_true",
                        help="judge retrieved reports against scanner CWEs "
                             "instead of model findings")
    p_eval.add_argument("--line-tolerance", type=int, default=0,
                        help="line-span slack when matching findings (default 0)")
    p_eval.add_argument("--format", choices=("table", "json"), default="table",
                        help="output format (default table)")
    p_eval.set_defaults(handler=cmd_eval)

    p_label = sub.add_parser("label", help="record a verdict for a scan finding")
    p_label.add_argument("--record", help="scan record id")
    p_label.add_argument("--finding", type=int, default=None,
                         help="finding index within the record (-1 for missed)")
    p_label.add_argument("--verdict",
                         help="tp, fp, fn, duplicate (long forms accepted)")
    p_label.add_argument("--note", help="free-form annotation")
    p_label.add_argument("--labels", help="labels file "
                                          "(default <scan_dir>/labels.jsonl)")
    p_label.add_argument("--list", action="store_true", help="print existing labels")
    p_label.set_defaults(handler=cmd_label)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        config = load_config(args.config)
        return args.handler(args, config)
    except LsastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
