"""End-to-end scan orchestration across the eight retrieval modes.

Each mode fixes which ingredients join the target code in the prompt:

    raw                  code only
    raw_lsast            code + scanner findings
    functionality        code + functionality-similar reports
    functionality_lsast  code + functionality-similar reports + scanner findings
    abstraction          code + abstraction-similar reports
    abstraction_lsast    code + abstraction-similar reports + scanner findings
    combined             code + both report sets
    combined_lsast       code + both report sets + scanner findings

Dependencies are validated before the scanner or the model is called: a
retrieval mode without its index, with an index of another embedder, or
with a snippet catalog that is corrupt or of another corpus state, fails
fast instead of silently degrading, because silent mode drift would
invalidate downstream evaluations.
"""

import hashlib
import json
import logging
import time
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

from .annotate import DEFAULT_LINE_BUDGET, AnnotatedSource, annotate_lines
from .errors import (
    ConfigurationError,
    DerivationError,
    GatewayError,
    LsastError,
    RecordIntegrityError,
    ScanError,
    SearchError,
)
from .gateway import PredictedFinding, parse_scan_response
from .index import DEFAULT_K, DerivationCache, IndexKind, Workers, correlate
from .jsonio import canonical_json, replacing
from .prompts import DEFAULT_PROMPT_CHAR_BUDGET, TEMPLATE_VERSION, build_scan_prompt
from .sast import Finding, FindingIndex, filter_findings_for_file, format_findings

logger = logging.getLogger(__name__)

RECORD_VERSION = 1

# languages accepted when expanding directory targets
TARGET_EXTENSIONS = (".js", ".ts", ".php", ".java", ".py")


class RetrievalMode(Enum):
    RAW = "raw"
    RAW_LSAST = "raw_lsast"
    FUNCTIONALITY = "functionality"
    FUNCTIONALITY_LSAST = "functionality_lsast"
    ABSTRACTION = "abstraction"
    ABSTRACTION_LSAST = "abstraction_lsast"
    COMBINED = "combined"
    COMBINED_LSAST = "combined_lsast"

    @property
    def uses_scanner(self) -> bool:
        return self.value.endswith("_lsast")

    @property
    def index_kinds(self) -> tuple[IndexKind, ...]:
        """The indexes this mode retrieves from, in IndexKind order."""
        base = self.value.removesuffix("_lsast")
        return tuple(kind for kind in IndexKind if base in (kind.value, "combined"))

    @property
    def uses_functionality(self) -> bool:
        return IndexKind.FUNCTIONALITY in self.index_kinds

    @property
    def uses_abstraction(self) -> bool:
        return IndexKind.ABSTRACTION in self.index_kinds

    @classmethod
    def parse(cls, name: str) -> "RetrievalMode":
        try:
            return cls(name.strip().lower().replace("-", "_"))
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ConfigurationError(f"unknown mode {name!r}; expected one of: {valid}") from None


@dataclass
class ScanContext:
    """Everything a scan needs besides the target and mode.

    scanner is a callable (target path) -> list[Finding]; the pipeline
    filters its output down to the target file either way, so a canned
    full-repository report works unchanged. The scanner must not mutate a
    list after returning it: the context indexes the last list it saw once
    and reuses that index while the scanner keeps returning the same list
    object, so a canned report costs one path parse per finding per
    context, not per target. attach_scanner_findings records scanner
    findings on results of non-scanner modes (for later evaluation) without
    ever feeding them to the prompt.
    """

    gateway: object = None
    corpus: object = None
    functionality_index: object = None
    abstraction_index: object = None
    embedder: object = None
    scanner: object = None
    attach_scanner_findings: bool = False
    line_budget: int = DEFAULT_LINE_BUDGET
    char_budget: int = DEFAULT_PROMPT_CHAR_BUDGET
    cache: DerivationCache = field(default_factory=DerivationCache)
    # (scanner list, its FindingIndex); replaced as one tuple, so a reader
    # never pairs a list with another list's index
    _findings_index: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def index_for(self, kind: IndexKind):
        return getattr(self, f"{kind.value}_index")


def _no_retrievals() -> dict:
    return {kind.value: [] for kind in IndexKind}


@dataclass
class ScanResult:
    """Self-contained outcome of one scan, sufficient for re-evaluation."""

    target_path: str
    mode: RetrievalMode
    k: int
    scanner_findings: list[Finding] = field(default_factory=list)
    retrieved_report_ids: dict = field(default_factory=_no_retrievals)
    included_report_ids: list[int] = field(default_factory=list)
    dropped_report_ids: list[int] = field(default_factory=list)
    predicted: list[PredictedFinding] = field(default_factory=list)
    none_found: bool = False
    parse_degraded: bool = False
    raw_response: str = ""
    prompt_digest: str = ""
    template_version: str = TEMPLATE_VERSION
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The record payload: every container copied, immutable leaves shared."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(
            mode=self.mode.value,
            scanner_findings=[{**vars(f), "cwe_ids": list(f.cwe_ids)} for f in self.scanner_findings],
            retrieved_report_ids={key: list(ids) for key, ids in self.retrieved_report_ids.items()},
            included_report_ids=list(self.included_report_ids),
            dropped_report_ids=list(self.dropped_report_ids),
            predicted=[dict(vars(p)) for p in self.predicted],
            timings=dict(self.timings),
        )
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScanResult":
        return cls(**{
            **data,
            "mode": RetrievalMode(data["mode"]),
            "scanner_findings": [Finding(**f) for f in data["scanner_findings"]],
            "predicted": [PredictedFinding(**f) for f in data["predicted"]],
        })


@dataclass
class ScanFailure:
    """Inline record of one failed target within a batch."""

    target_path: str
    error: str
    error_type: str


def _validate_dependencies(mode: RetrievalMode, k: int, context: ScanContext | None):
    if context is None:
        raise ConfigurationError("run_scan needs a ScanContext")
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    if context.gateway is None:
        raise ConfigurationError("no chat gateway configured")
    if mode.uses_scanner and context.scanner is None:
        raise ConfigurationError(f"mode {mode.value} needs scanner output, none configured")
    if not mode.index_kinds:
        return
    if context.corpus is None:
        raise ConfigurationError(f"mode {mode.value} needs the report corpus")
    if context.embedder is None:
        raise ConfigurationError(f"mode {mode.value} needs an embedder")
    corpus_digest = context.corpus.digest()
    for kind in mode.index_kinds:
        index = context.index_for(kind)
        if index is None:
            raise ConfigurationError(
                f"mode {mode.value} needs the {kind.value} index, none configured"
            )
        if index.kind is not kind:
            raise ConfigurationError(
                f"the {kind.value} index slot holds an index of kind {index.kind.value}"
            )
        if index.corpus_digest != corpus_digest:
            raise ConfigurationError(
                f"{kind.value} index was built against a different corpus state; rebuild it"
            )
        index.check_embedder(context.embedder)
    # the catalog that correlate() resolves hits through
    context.corpus.check_catalog()


def _read_target(target: Path, line_budget: int) -> tuple[str, AnnotatedSource]:
    """The target's text and annotation; raises as `run_scan` for a target no scan takes."""
    try:
        source = target.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise ScanError(f"cannot read target {target}: {exc}") from None
    if not source.strip():
        raise ScanError(f"target {target} is empty")
    return source, annotate_lines(source, line_budget)


def _merge_retrievals(*pair_lists) -> list:
    """Merge per-index (report, similarity) lists into one prompt order.

    Sorted by descending similarity; at equal similarity an earlier list's
    hits precede a later list's (functionality before abstraction), then
    rank within a list; report ids deduplicate first-wins.
    """
    candidates = [
        (-sim, position, rank, report)
        for position, pairs in enumerate(pair_lists)
        for rank, (report, sim) in enumerate(pairs)
    ]
    candidates.sort(key=lambda c: c[:3])
    merged = []
    seen: set[int] = set()
    for _, _, _, report in candidates:
        if report.id in seen:
            continue
        seen.add(report.id)
        merged.append(report)
    return merged


def _scanner_findings_for(context: ScanContext, target: Path) -> list[Finding]:
    findings = context.scanner(target)
    indexed, index = context._findings_index
    if indexed is not findings:
        index = FindingIndex(findings)
        context._findings_index = (findings, index)
    return filter_findings_for_file(index, target)


def run_scan(target, mode: RetrievalMode, k: int = DEFAULT_K,
             context: ScanContext | None = None) -> ScanResult:
    """Scan one target file under `mode` with top-`k` retrieval per index.

    The scan call goes through `context.cache`, so a prompt this context has
    already sent is answered from the stored reply, parsed anew.

    Raises:
        ConfigurationError: a dependency the mode needs is missing or stale.
        CorpusError: the snippet catalog of a retrieval mode is missing,
            corrupt (the message names its `path:line`), or was built
            against another corpus state.
        EmbedderMismatchError: an index of the mode was built with another
            embedder. These three come before the scanner runs or the model
            is asked.
        ScanError: the target is unreadable or blank (whitespace only), a
            retrieval step failed, or the scan call failed; scan-call
            failures carry a partial result with the retrievals preserved.
        AnnotationError: the target exceeds `context.line_budget` lines.
    """
    mode = RetrievalMode(mode)
    t_start = time.monotonic()
    _validate_dependencies(mode, k, context)
    target = Path(target)
    source, annotated = _read_target(target, context.line_budget)

    timings = {}
    scanner_findings: list[Finding] = []
    formatted = None
    if mode.uses_scanner:
        t0 = time.monotonic()
        scanner_findings = _scanner_findings_for(context, target)
        formatted = format_findings(scanner_findings)
        timings["scanner_s"] = round(time.monotonic() - t0, 6)
    elif context.scanner is not None and context.attach_scanner_findings:
        # recorded for later evaluation; never enters the prompt
        scanner_findings = _scanner_findings_for(context, target)

    retrieved_ids = _no_retrievals()
    pair_lists = []
    if mode.index_kinds:
        t0 = time.monotonic()
        try:
            for kind in mode.index_kinds:
                hits = context.index_for(kind).search(
                    source, k, context.gateway, context.embedder, context.cache
                )
                pairs = correlate(hits, context.corpus)
                retrieved_ids[kind.value] = [r.id for r, _ in pairs]
                pair_lists.append(pairs)
        except (GatewayError, DerivationError, SearchError) as exc:
            raise ScanError(
                f"retrieval failed for {target} in mode {mode.value}: {exc}"
            ) from exc
        timings["retrieval_s"] = round(time.monotonic() - t0, 6)
    merged = _merge_retrievals(*pair_lists)

    built = build_scan_prompt(
        annotated,
        sast=formatted,
        reports=merged or None,
        char_budget=context.char_budget,
    )
    prompt_digest = hashlib.sha256(built.text.encode("utf-8")).hexdigest()

    partial = ScanResult(
        target_path=str(target),
        mode=mode,
        k=k,
        scanner_findings=scanner_findings,
        retrieved_report_ids=retrieved_ids,
        included_report_ids=built.included_report_ids,
        dropped_report_ids=built.dropped_report_ids,
        prompt_digest=prompt_digest,
        timings=timings,
    )

    t0 = time.monotonic()
    try:
        raw_response = context.cache.scan_reply(built.text, prompt_digest, context.gateway)
    except GatewayError as exc:
        raise ScanError(f"gateway failed for {target}: {exc}", partial_result=partial) from exc
    timings["model_s"] = round(time.monotonic() - t0, 6)

    parsed = parse_scan_response(raw_response)
    timings["total_s"] = round(time.monotonic() - t_start, 6)
    partial.predicted = parsed.findings
    partial.none_found = parsed.none_found
    partial.parse_degraded = parsed.parse_degraded
    partial.raw_response = parsed.raw_text
    return partial


def expand_targets(targets) -> list[Path]:
    """Expand files and directories into the concrete scan list.

    Explicit files are kept as given; directories contribute their tree's
    files whose suffix is in TARGET_EXTENSIONS, sorted for determinism.

    Raises:
        ConfigurationError: a target does not exist.
    """
    expanded: list[Path] = []
    for target in targets:
        path = Path(target)
        if path.is_dir():
            expanded.extend(sorted(
                (p for p in path.rglob("*")
                 if p.is_file() and p.suffix.lower() in TARGET_EXTENSIONS),
                key=lambda p: p.as_posix(),
            ))
        elif path.is_file():
            expanded.append(path)
        else:
            raise ConfigurationError(f"scan target does not exist: {path}")
    return expanded


def _derive_ahead(targets: list, mode: RetrievalMode, k: int,
                  context: ScanContext | None) -> Workers:
    """Start deriving `targets`' query keys into `context.cache`, in order.

    Returns the running workers, over no targets in a mode without retrieval
    or when the mode's dependencies fail validation, which every scan then
    reports before any model call. They skip a target that its scan refuses
    before retrieval, and a key that is stored or in flight. All of them
    retire once their calls turn out CPU-bound, since a thread beside a
    CPU-bound scan only slows it.
    """
    try:
        _validate_dependencies(mode, k, context)
    except LsastError:
        targets = []

    def derive_keys(target: Path) -> bool:
        try:
            source, _ = _read_target(target, context.line_budget)
        except LsastError:
            return False
        # a list, not a generator: any() must not skip the later kinds
        derived = [context.cache.derive_ahead(kind, source, context.gateway)
                   for kind in mode.index_kinds]
        return any(derived)

    return Workers(derive_keys, targets if mode.index_kinds else [], floor=0, judged=bool)


def run_scan_batch(targets, mode: RetrievalMode, k: int = DEFAULT_K,
                   context: ScanContext | None = None,
                   parallelism: int = 1) -> list:
    """Scan many targets; results in input order, failures recorded inline.

    The scans run on `parallelism` `Workers` threads. In a retrieval mode,
    up to SETUP_WORKERS threads meanwhile derive the query keys of the
    targets from position `parallelism` on (see `_derive_ahead`), so a batch
    keeps up to `parallelism` + SETUP_WORKERS model calls in flight. A scan
    whose key is in flight waits for it, and one whose key no worker has
    reached derives it itself. Scan prompts are shared the same way, so each
    distinct key and each distinct scan prompt costs one model call unless
    that call fails, a target that its scan refuses before retrieval costs
    none, and every result equals that of a lone `run_scan`.

    Returns a list whose elements are ScanResult or ScanFailure. Raises
    ScanError only when every target failed (and there was at least one).
    A scan's error that is not an LsastError propagates.
    """
    mode = RetrievalMode(mode)
    expanded = expand_targets(targets)

    def scan_one(target):
        try:
            return run_scan(target, mode, k, context)
        except LsastError as exc:
            logger.warning("scan failed for %s: %s", target, exc)
            return ScanFailure(
                target_path=str(target), error=str(exc), error_type=type(exc).__name__
            )

    workers = max(1, parallelism)
    with _derive_ahead(expanded[workers:], mode, k, context):
        outcomes = Workers(scan_one, expanded, workers, floor=workers).join()
    for _, error in outcomes:
        if error is not None:  # a ValueError, which scan_one does not catch
            raise error
    results = [result for result, _ in outcomes]

    if results and all(isinstance(r, ScanFailure) for r in results):
        first = results[0]
        raise ScanError(
            f"all {len(results)} targets failed; first: {first.target_path}: {first.error}"
        )
    return results


# -- persistence ------------------------------------------------------------

_VOLATILE_KEYS = ("persisted_at", "timings")


def record_essence(record: dict) -> str:
    """Canonical JSON of a record minus its run-dependent keys.

    persisted_at and timings are dropped at the top level and inside
    "result". Two runs of the same deterministic scan agree on this string
    even though their files differ in persisted_at and timing values. Over a
    bare result payload it is the string the content digest covers.
    """

    def stable(data: dict) -> dict:
        return {
            key: stable(value) if key == "result" and isinstance(value, dict) else value
            for key, value in data.items()
            if key not in _VOLATILE_KEYS
        }

    return canonical_json(stable(record))


def _content_digest(payload: dict) -> str:
    return hashlib.sha256(record_essence(payload).encode("utf-8")).hexdigest()


# A record line is canonical_json(record) + "\n". "result" sorts last among a
# record's keys and "timings" last among a result's, so the line is the head's
# prefix, then the result's essence without its closing brace, then the
# timings tail: the digested essence is a slice of the line itself.
_HEAD_KEYS = ("content_digest", "persisted_at", "record_id", "record_version")


def _record_prefix(head: dict) -> str:
    return canonical_json(head)[:-1] + ', "result": '


def _timings_tail(timings) -> str:
    return ', "timings": ' + canonical_json(timings) + "}}\n"


def _sliced_digest(text: str, record: dict, payload: dict) -> str | None:
    """sha256 of the essence as the line's own bytes; None off the layout."""
    if len(record) != len(_HEAD_KEYS) + 1 or "timings" not in payload:
        return None
    try:
        prefix = _record_prefix({key: record[key] for key in _HEAD_KEYS})
    except KeyError:
        return None
    tail = _timings_tail(payload["timings"])
    end = len(text) - len(tail)
    if end <= len(prefix) or not (text.startswith(prefix) and text.endswith(tail)):
        return None
    digest = hashlib.sha256(text[len(prefix):end].encode("utf-8"))
    digest.update(b"}")
    return digest.hexdigest()


def persist_scan(result: ScanResult, out_dir) -> Path:
    """Write one scan result as a self-contained, digest-protected record.

    The record id is a prefix of the content digest, which covers everything
    except timings, so identical scans persist under the same id with
    distinct timestamps and filenames. The file is one line of canonical
    JSON, assembled around the one dump of the essence the digest covers.

    Raises:
        ScanError: out_dir cannot be created or written.
    """
    payload = result.to_dict()
    essence = record_essence(payload)
    content_digest = hashlib.sha256(essence.encode("utf-8")).hexdigest()
    head = {
        "content_digest": content_digest,
        "persisted_at": datetime.now(timezone.utc).isoformat(),
        "record_id": content_digest[:12],
        "record_version": RECORD_VERSION,
    }
    line = _record_prefix(head) + essence[:-1] + _timings_tail(payload["timings"])
    path = Path(out_dir) / f"scan-{head['record_id']}-{time.time_ns()}.json"
    with replacing(path, ScanError) as tmp:
        tmp.write_text(line, encoding="utf-8")
    return path


@dataclass
class PersistedScan:
    record_id: str
    content_digest: str
    persisted_at: str
    result: ScanResult
    path: Path


def load_scan(path) -> PersistedScan:
    """Load and verify one persisted scan record.

    A file in the one-line layout `persist_scan` writes is verified by
    hashing its essence slice as it stands, with no re-dump. Any other JSON
    layout (the indented files of earlier versions, `json.dumps` copies,
    extra keys), and any file whose slice does not hash to the digest, is
    verified by re-dumping the parsed result as canonical JSON.

    The digest detects corruption and edits that leave it as it was; it is
    not a signature. Both checks decide alike on every file lsast writes and
    on every edit that does not recompute the digest. They differ only on a
    file whose essence slice is not canonical yet carries that slice's own
    sha256, which takes the same effort as forging a canonical record that
    both accept.

    Raises:
        RecordIntegrityError: unreadable, truncated, digest-mismatched, or a
            record id that is not the content digest's first 12 digits.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        record = json.loads(text)
    except (OSError, ValueError) as exc:
        raise RecordIntegrityError(f"cannot load scan record {path}: {exc}") from None
    try:
        payload = record["result"]
        expected = record["content_digest"]
        record_id = record["record_id"]
        persisted_at = record["persisted_at"]
    except (KeyError, TypeError):
        raise RecordIntegrityError(f"scan record {path} is missing required fields") from None
    if not isinstance(payload, dict):
        raise RecordIntegrityError(f"scan record {path} result is not an object")
    if _sliced_digest(text, record, payload) != expected and _content_digest(payload) != expected:
        raise RecordIntegrityError(
            f"scan record {path} content digest mismatch (corrupt or tampered)"
        )
    if record_id != expected[:12]:
        raise RecordIntegrityError(
            f"scan record {path} record id {record_id!r} is not its content digest's prefix"
        )
    try:
        result = ScanResult.from_dict(payload)
    except (KeyError, ValueError, TypeError) as exc:
        raise RecordIntegrityError(f"scan record {path} payload malformed: {exc}") from None
    return PersistedScan(
        record_id=record_id,
        content_digest=expected,
        persisted_at=persisted_at,
        result=result,
        path=path,
    )


def load_scan_directory(directory) -> list[PersistedScan]:
    """Load every scan-*.json record under `directory`, sorted by filename."""
    directory = Path(directory)
    if not directory.is_dir():
        raise RecordIntegrityError(f"scan record directory does not exist: {directory}")
    return [load_scan(p) for p in sorted(directory.glob("scan-*.json"))]
