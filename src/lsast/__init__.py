"""Scanner-guided model vulnerability scanning with report retrieval.

A conventional scanner's findings are embedded into the analysis prompt so
the model hunts only for what the scanner missed; retrieval augments the
prompt with disclosed vulnerability reports selected by functionality or
code-shape similarity. Eight retrieval modes cover every combination.
"""

from .annotate import AnnotatedSource, annotate_lines, normalize_newlines
from .config import Config, load_config
from .corpus import (
    CodeSnippet,
    ReportCorpus,
    Severity,
    VulnerabilityReport,
    extract_code_snippets,
    fetch_reports_remote,
)
from .errors import (
    AnnotationError,
    ConfigurationError,
    CorpusError,
    DerivationError,
    EmbedderMismatchError,
    EvaluationError,
    GatewayError,
    IndexIntegrityError,
    LsastError,
    PromptBudgetError,
    RecordIntegrityError,
    RemoteFetchError,
    ReportNotFoundError,
    ScanError,
    ScannerExecutionError,
    ScannerReportError,
    ScannerTimeoutError,
    SearchError,
)
from .evaluation import (
    ConfusionCounts,
    EvalLabel,
    GroundTruthItem,
    MetricsReport,
    Verdict,
    compute_metrics,
    confusion_from_labels,
    confusion_from_matching,
    evaluate_retrieval,
    format_percent,
    match_findings,
    render_metrics_table,
    truth_from_findings,
)
from .gateway import (
    ChatClient,
    MockGateway,
    PredictedFinding,
    ScanResponse,
    parse_scan_response,
    render_finding,
)
from .index import (
    DerivationCache,
    HttpEmbedder,
    IndexKind,
    OfflineEmbedder,
    SearchHit,
    VectorIndex,
    correlate,
    derive,
)
from .pipeline import (
    PersistedScan,
    RetrievalMode,
    ScanContext,
    ScanFailure,
    ScanResult,
    expand_targets,
    load_scan,
    load_scan_directory,
    persist_scan,
    record_essence,
    run_scan,
    run_scan_batch,
)
from .prompts import BuiltPrompt, build_scan_prompt, format_bearer_result
from .sast import (
    Finding,
    FindingIndex,
    ParsedReport,
    filter_findings_for_file,
    format_findings,
    normalize_cwe,
    parse_scanner_report,
    run_external_scanner,
)

__version__ = "0.1.0"
