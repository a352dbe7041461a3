"""Exception hierarchy for the lsast package.

Every domain failure derives from LsastError so callers (and the CLI) can
distinguish expected, reportable failures from genuine bugs.
"""


class LsastError(Exception):
    """Base class for all domain errors raised by this package."""


class ScannerReportError(LsastError):
    """The scanner report document could not be parsed."""


class ScannerExecutionError(LsastError):
    """The external scanner failed without producing a report."""


class ScannerTimeoutError(ScannerExecutionError):
    """The external scanner exceeded its timeout."""


class AnnotationError(LsastError):
    """Line annotation or stripping failed (bad prefix, budget exceeded)."""


class CorpusError(LsastError):
    """Report corpus ingestion or persistence failed."""


class ReportNotFoundError(CorpusError):
    """A report id was requested that the corpus does not hold."""


class DerivationError(LsastError):
    """An LLM derivation (summary, code pattern) produced unusable output."""


class GatewayError(LsastError):
    """Chat endpoint failure: transport, status, or malformed response."""


class PromptBudgetError(LsastError):
    """Prompt exceeds the character budget even with all reports dropped."""


class IndexIntegrityError(LsastError):
    """Index file unreadable, unwritable or corrupt, or index and corpus disagree."""


class EmbedderMismatchError(IndexIntegrityError):
    """Search attempted with an embedder other than the one that built the index."""


class SearchError(LsastError):
    """A similarity search could not be performed for this query."""


class ConfigurationError(LsastError):
    """Invalid or missing configuration for the requested operation."""


class ScanError(LsastError):
    """A scan failed after validation; may carry a partial result.

    Attributes:
        partial_result: ScanResult assembled so far (retrievals preserved),
            or None when nothing useful was produced.
    """

    def __init__(self, message, partial_result=None):
        super().__init__(message)
        self.partial_result = partial_result


class RecordIntegrityError(LsastError):
    """A persisted scan record is truncated, corrupt, or tampered with."""


class EvaluationError(LsastError):
    """Evaluation input is unusable (dangling references, empty table)."""


class RemoteFetchError(LsastError):
    """The optional remote report fetch failed."""
