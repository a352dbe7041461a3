"""Vector indexes over report snippets and their correlation back to reports.

Two index kinds exist: functionality (imperative summaries) and abstraction
(code patterns). Search is exact brute-force cosine over the whole index;
at corpus scale (around 10^3 snippets) approximate structures would be
unjustified complexity. Hits come back in non-increasing similarity with
ties broken by ascending sequence number.

Index files are JSONL: a header line carrying {version, kind, dimension,
embedder id, corpus digest}, then one entry per line. JSON float
serialization is shortest-round-trip, so rebuilding from the same corpus
with the deterministic embedder reproduces the file bitwise.
"""

import hashlib
import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np
import requests

from .errors import (
    ConfigurationError,
    CorpusError,
    DerivationError,
    EmbedderMismatchError,
    GatewayError,
    IndexIntegrityError,
    LsastError,
    SearchError,
)
from .jsonio import canonical_json, read_jsonl, replacing
from .prompts import (
    ABSTRACTION_PROMPT,
    FUNCTIONALITY_PROMPT,
    parse_code_pattern,
    render_derivation_prompt,
)
from .transport import send

logger = logging.getLogger(__name__)

DEFAULT_K = 3
DEFAULT_DIMENSION = 256


class IndexKind(Enum):
    FUNCTIONALITY = "functionality"
    ABSTRACTION = "abstraction"


def summarize_functionality(code: str, llm) -> str:
    """Ask the gateway for the imperative functionality summary of `code`.

    Raises:
        ValueError: code is empty or whitespace-only.
        DerivationError: the model returned empty output.
    """
    if not code or not code.strip():
        raise ValueError("cannot summarize empty code")
    response = llm.complete(render_derivation_prompt(FUNCTIONALITY_PROMPT, code))
    summary = response.strip()
    if not summary:
        raise DerivationError("functionality summary came back empty")
    return summary


def abstract_code(code: str, llm) -> str | None:
    """Ask the gateway for the code pattern of `code`; None means "no code".

    Raises:
        ValueError: code is empty or whitespace-only.
        DerivationError: response lacks the code-pattern marker.
    """
    if not code or not code.strip():
        raise ValueError("cannot abstract empty code")
    response = llm.complete(render_derivation_prompt(ABSTRACTION_PROMPT, code))
    return parse_code_pattern(response)


class DerivationCache:
    """Per-process cache keyed by (content digest, derivation kind)."""

    def __init__(self):
        self._store: dict[tuple[str, str], str | None] = {}

    def derive(self, kind: IndexKind, code: str, llm):
        key = (hashlib.sha256(code.encode("utf-8")).hexdigest(), kind.value)
        if key not in self._store:
            if kind is IndexKind.FUNCTIONALITY:
                self._store[key] = summarize_functionality(code, llm)
            else:
                self._store[key] = abstract_code(code, llm)
        return self._store[key]


class OfflineEmbedder:
    """Deterministic embedder: signed feature hashing of character 3-grams.

    Fixed seed, float64, unit-normalized. Exists so tests and air-gapped runs
    need no embedding service; it captures surface similarity only.
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION, seed: int = 9157, ngram: int = 3):
        if dimension < 1:
            raise ConfigurationError("embedder dimension must be >= 1")
        self.dimension = dimension
        self.seed = seed
        self.ngram = ngram

    @property
    def identity(self) -> str:
        return f"offline-ngram{self.ngram}-d{self.dimension}-seed{self.seed}"

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValueError("cannot embed empty text")
        vector = np.zeros(self.dimension, dtype=np.float64)
        n = self.ngram
        grams = [text[i:i + n] for i in range(len(text) - n + 1)] if len(text) >= n else [text]
        prefix = f"{self.seed}:".encode("utf-8")
        for gram in grams:
            digest = hashlib.sha256(prefix + gram.encode("utf-8")).digest()
            bucket = int.from_bytes(digest[:4], "big") % self.dimension
            sign = 1.0 if digest[4] & 1 else -1.0
            vector[bucket] += sign
        norm = float(np.linalg.norm(vector))
        if norm == 0.0:
            # all grams cancelled; fall back to a deterministic basis vector
            digest = hashlib.sha256(prefix + text.encode("utf-8")).digest()
            vector[int.from_bytes(digest[:4], "big") % self.dimension] = 1.0
            norm = 1.0
        return vector / norm


class HttpEmbedder:
    """Embedding client for a local model server's embedding route.

    Sends {"model": ..., "input": ...}; accepts {"vector": [...]} or the
    {"data": [{"embedding": [...]}]} shape. Vectors are unit-normalized
    client-side so the contract holds regardless of backend behavior.
    Requests retry under the shared policy of `transport.send`.
    """

    def __init__(self, endpoint: str, model: str, dimension: int, timeout: float = 60.0,
                 retries: int = 2):
        if dimension < 1:
            raise ConfigurationError("embedder dimension must be >= 1")
        self.endpoint = endpoint
        self.model = model
        self.dimension = dimension
        self.timeout = timeout
        self.retries = retries
        self.session = requests.Session()

    @property
    def identity(self) -> str:
        return f"http-{self.model}-d{self.dimension}"

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValueError("cannot embed empty text")
        response = send(self.session, "post", self.endpoint, "embedding endpoint",
                        GatewayError, self.retries,
                        json={"model": self.model, "input": text}, timeout=self.timeout)
        try:
            data = response.json()
            if "vector" in data:
                raw = data["vector"]
            else:
                raw = data["data"][0]["embedding"]
        except (ValueError, KeyError, IndexError, TypeError):
            raise GatewayError(
                f"malformed embedding response: {response.text[:200]}"
            ) from None
        vector = np.asarray(raw, dtype=np.float64)
        if vector.ndim != 1 or vector.shape[0] != self.dimension:
            raise ConfigurationError(
                f"embedding backend returned dimension {vector.shape}, "
                f"configured {self.dimension}"
            )
        norm = float(np.linalg.norm(vector))
        if norm == 0.0:
            raise GatewayError("embedding backend returned a zero vector")
        return vector / norm


@dataclass
class IndexEntry:
    """One embedded snippet derivative, keyed back to its snippet by sequence."""

    sequence: int
    kind: IndexKind
    derived_text: str
    embedding: np.ndarray

    def to_record(self) -> dict:
        return {
            "sequence": self.sequence,
            "derived_text": self.derived_text,
            "embedding": [float(x) for x in self.embedding],
        }


@dataclass
class SearchHit:
    entry: IndexEntry
    similarity: float


@dataclass
class BuildSummary:
    entries: int
    skipped: int = 0
    failures: list[str] = field(default_factory=list)
    degraded: bool = False


class VectorIndex:
    """Immutable-after-build exact-cosine index over derived snippet texts."""

    FILE_VERSION = 1

    def __init__(self, kind: IndexKind, dimension: int, embedder_id: str,
                 corpus_digest: str, entries: list[IndexEntry]):
        for entry in entries:
            if len(entry.embedding) != dimension:
                raise IndexIntegrityError(
                    f"entry {entry.sequence} has dimension {len(entry.embedding)}, "
                    f"index declares {dimension}"
                )
        self.kind = kind
        self.dimension = dimension
        self.embedder_id = embedder_id
        self.corpus_digest = corpus_digest
        self.entries = list(entries)
        if self.entries:
            self._matrix = np.stack([e.embedding for e in self.entries])
            self._sequences = np.array([e.sequence for e in self.entries])
        else:
            self._matrix = np.zeros((0, dimension), dtype=np.float64)
            self._sequences = np.array([], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.entries)

    # -- build ------------------------------------------------------------

    @classmethod
    def build(cls, corpus, kind: IndexKind, llm, embedder,
              cache: DerivationCache | None = None) -> tuple["VectorIndex", BuildSummary]:
        """Derive and embed every cataloged snippet of `corpus`.

        Abstraction entries are skipped (not failed) when the derivation
        answers "no code". Per-snippet failures are recorded and the build
        continues; a failure rate above 50% marks the build degraded.

        Raises:
            CorpusError: the snippet catalog is stale for this corpus.
        """
        corpus_digest = corpus.digest()
        catalog_digest = corpus.catalog_corpus_digest
        if catalog_digest is not None and catalog_digest != corpus_digest:
            raise CorpusError(
                "snippet catalog was built against a different corpus state; rebuild it"
            )
        cache = cache or DerivationCache()
        entries: list[IndexEntry] = []
        failures: list[str] = []
        skipped = 0
        attempted = 0
        for sequence, snippet in corpus.snippets():
            attempted += 1
            try:
                derived = cache.derive(kind, snippet.text, llm)
                if derived is None:
                    skipped += 1
                    continue
                embedding = embedder.embed(derived)
            except (LsastError, ValueError) as exc:
                failures.append(f"sequence {sequence}: {exc}")
                continue
            entries.append(IndexEntry(sequence, kind, derived, embedding))
        degraded = attempted > 0 and len(failures) / attempted > 0.5
        if degraded:
            logger.warning(
                "index build degraded: %d/%d derivations failed", len(failures), attempted
            )
        index = cls(
            kind=kind,
            dimension=embedder.dimension,
            embedder_id=embedder.identity,
            corpus_digest=corpus_digest,
            entries=entries,
        )
        summary = BuildSummary(
            entries=len(entries), skipped=skipped, failures=failures, degraded=degraded
        )
        return index, summary

    # -- persistence ------------------------------------------------------

    def save(self, path) -> Path:
        """Write the index file atomically.

        Raises:
            IndexIntegrityError: the file cannot be written; any previous
                file at `path` is left as it was.
        """
        path = Path(path)
        header = {
            "version": self.FILE_VERSION,
            "kind": self.kind.value,
            "dimension": self.dimension,
            "embedder_id": self.embedder_id,
            "corpus_digest": self.corpus_digest,
            "entries": len(self.entries),
        }
        with (replacing(path, IndexIntegrityError) as tmp,
              open(tmp, "w", encoding="utf-8") as handle):
            handle.write(canonical_json(header) + "\n")
            for entry in self.entries:
                handle.write(canonical_json(entry.to_record()) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "VectorIndex":
        path = Path(path)
        header = None
        entries = []
        for line_no, record in read_jsonl(path, IndexIntegrityError):
            try:
                if header is None:
                    header = {
                        "kind": IndexKind(record["kind"]),
                        "dimension": int(record["dimension"]),
                        "embedder_id": record["embedder_id"],
                        "corpus_digest": record["corpus_digest"],
                    }
                    declared = int(record["entries"])
                    continue
                entries.append(IndexEntry(
                    sequence=int(record["sequence"]),
                    kind=header["kind"],
                    derived_text=record["derived_text"],
                    embedding=np.asarray(record["embedding"], dtype=np.float64),
                ))
            except (KeyError, ValueError, TypeError) as exc:
                raise IndexIntegrityError(f"{path}:{line_no}: corrupt index file: {exc}") from None
        if header is None:
            raise IndexIntegrityError(f"index file {path} is empty")
        if len(entries) != declared:
            raise IndexIntegrityError(
                f"index file {path} declares {declared} entries, found {len(entries)} "
                "(truncated?)"
            )
        return cls(**header, entries=entries)

    # -- search -----------------------------------------------------------

    def search_embedded(self, query: np.ndarray, k: int) -> list[SearchHit]:
        """Exact top-k by cosine over a unit query vector."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if not self.entries:
            return []
        scores = self._matrix @ np.asarray(query, dtype=np.float64)
        # sort by descending similarity, ascending sequence on ties
        order = np.lexsort((self._sequences, -scores))[:min(k, len(self.entries))]
        return [
            SearchHit(entry=self.entries[i], similarity=float(np.clip(scores[i], -1.0, 1.0)))
            for i in order
        ]

    def search(self, query_text: str, k: int, llm, embedder,
               cache: DerivationCache | None = None) -> list[SearchHit]:
        """Derive the query with this index's own derivation, embed, and rank.

        Raises:
            EmbedderMismatchError: `embedder` is not the one that built this
                index.
            SearchError: abstraction derivation found no code in the query.
        """
        if embedder.identity != self.embedder_id:
            raise EmbedderMismatchError(
                f"index built with embedder {self.embedder_id!r}, "
                f"search attempted with {embedder.identity!r}"
            )
        cache = cache or DerivationCache()
        derived = cache.derive(self.kind, query_text, llm)
        if derived is None:
            raise SearchError("target has no code pattern")
        return self.search_embedded(embedder.embed(derived), k)


def correlate(hits: list[SearchHit], corpus) -> list[tuple[object, float]]:
    """Map hits back to (report, similarity) pairs, deduplicated by report id.

    Keeps the first (best-similarity) occurrence per report; output order is
    descending best similarity as inherited from the hit order.

    Raises:
        IndexIntegrityError: a hit's sequence is unknown to the corpus
            catalog (index/corpus version mismatch).
    """
    pairs = []
    seen: set[int] = set()
    for hit in hits:
        try:
            snippet = corpus.resolve_sequence(hit.entry.sequence)
        except KeyError:
            raise IndexIntegrityError(
                f"sequence {hit.entry.sequence} not in the corpus snippet catalog; "
                "index and corpus are out of sync"
            ) from None
        if snippet.report_id in seen:
            continue
        seen.add(snippet.report_id)
        pairs.append((corpus.get_report(snippet.report_id), hit.similarity))
    return pairs
