"""Vector indexes over report snippets and their correlation back to reports.

Two index kinds exist: functionality (imperative summaries) and abstraction
(code patterns). Search is exact brute-force cosine over the whole index;
at corpus scale (around 10^3 snippets) approximate structures would be
unjustified complexity. Hits come back in non-increasing similarity as
computed. Ascending sequence number breaks a tie only between scores that
are bitwise equal; for scores that are mathematically equal, the rounding of
the BLAS kernel that computed them sets the order, so it depends on the
numpy/BLAS build and on the number of rows in the index. Keep one
`self._matrix @ query` per query, over the whole matrix: a matrix-matrix
product over batched queries, or a product over a subset of rows, rounds
differently and changes which entries are retrieved.

Index files are JSONL: a header line carrying {version, kind, dimension,
embedder id, corpus digest, entry count}, then one entry per line. In
version 2, the version `save` writes, an entry's embedding is the base64 of
the vector's little-endian float64 bytes: the stored bytes are the vector's
own bits, so loading gives back the exact vector, and rebuilding from the
same corpus with the deterministic embedder reproduces the file bitwise.
Version 1 stored the embedding as a JSON float list; `load` still reads it
and refuses any other version, and any non-finite embedding.
"""

import base64
import dataclasses
import hashlib
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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
# model calls in flight at once while the index build and the snippet catalog
# derive; independent of `parallelism`, which counts concurrent scans
SETUP_WORKERS = 4


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


def map_outcomes(fn, items: list) -> list[tuple[object, Exception | None]]:
    """Run `fn` over `items` on up to SETUP_WORKERS threads; outcomes in input order.

    Each outcome is `(fn(item), None)`, or `(None, error)` when `fn` raised
    an LsastError or ValueError. Each worker pulls the next position from
    one shared iterator, so a slow call holds up only its own worker. A call
    that spent most of its wall time on its own thread's CPU held the GIL
    rather than waited, so overlapping it gains nothing and costs GIL
    hand-offs: after such a call its worker retires, down to the last one.
    Any other exception stops the workers from taking new items and is
    raised here once every worker has finished.
    """
    outcomes: list = [None] * len(items)
    positions = iter(range(len(items)))
    lock = threading.Lock()
    stop = threading.Event()
    workers = min(SETUP_WORKERS, len(items))
    active = workers

    def work():
        nonlocal active
        while not stop.is_set():
            with lock:
                position = next(positions, None)
            if position is None:
                return
            wall, cpu = time.perf_counter(), time.thread_time()
            try:
                outcomes[position] = (fn(items[position]), None)
            except (LsastError, ValueError) as exc:
                outcomes[position] = (None, exc)
            except BaseException:
                stop.set()
                raise
            if time.thread_time() - cpu > 0.5 * (time.perf_counter() - wall):
                with lock:
                    if active > 1:
                        active -= 1
                        return

    with ThreadPoolExecutor(max_workers=SETUP_WORKERS) as pool:
        futures = [pool.submit(work) for _ in range(workers)]
    for future in futures:
        future.result()
    return outcomes


class DerivationCache:
    """Per-process cache keyed by (content digest, derivation kind).

    Single flight: concurrent callers of one key wait for one derivation. The
    index build derives each distinct text once, so this serves the scans of
    a batch, whose duplicate targets ask for one key at once. A failure is
    not cached; a caller that waited on a failed derivation derives the key
    itself.
    """

    def __init__(self):
        self._store: dict[tuple[str, str], str | None] = {}
        self._lock = threading.Lock()
        # key -> a lock its leader holds until the derivation ends
        self._in_flight: dict[tuple[str, str], threading.Lock] = {}

    def derive(self, kind: IndexKind, code: str, llm):
        key = (hashlib.sha256(code.encode("utf-8")).hexdigest(), kind.value)
        while True:
            with self._lock:
                if key in self._store:
                    return self._store[key]
                leader = self._in_flight.get(key)
                if leader is None:
                    done = self._in_flight[key] = threading.Lock()
                    done.acquire()
                    break
            with leader:  # returns once the leader's derivation has ended
                pass
        try:
            derive = summarize_functionality if kind is IndexKind.FUNCTIONALITY else abstract_code
            value = derive(code, llm)
            with self._lock:
                self._store[key] = value
        finally:
            with self._lock:
                del self._in_flight[key]
            done.release()
        return value


class OfflineEmbedder:
    """Deterministic embedder: signed feature hashing of character 3-grams.

    Fixed seed, float64, unit-normalized. Exists so tests and air-gapped runs
    need no embedding service; it captures surface similarity only.

    Each instance memoises gram -> (bucket, sign), since derived texts
    repeat most of their grams. The counts per bucket are exact integers, so
    a memoised embedding is bitwise the one computed without the memo.
    Concurrent callers may hash one gram twice; both store the same value.
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION, seed: int = 9157, ngram: int = 3):
        if dimension < 1:
            raise ConfigurationError("embedder dimension must be >= 1")
        self.dimension = dimension
        self.seed = seed
        self.ngram = ngram
        self._prefix = f"{seed}:".encode("utf-8")
        self._grams: dict[str, tuple[int, int]] = {}
        # (bucket, sign) sits at 2 * bucket + (sign > 0); memo values are these
        # shared tuples, so a memo entry costs only its key
        self._hashes = [(bucket, sign) for bucket in range(dimension) for sign in (-1, 1)]

    @property
    def identity(self) -> str:
        return f"offline-ngram{self.ngram}-d{self.dimension}-seed{self.seed}"

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValueError("cannot embed empty text")
        counts = [0] * self.dimension
        n = self.ngram
        grams = [text[i:i + n] for i in range(len(text) - n + 1)] if len(text) >= n else [text]
        memo = self._grams
        for gram in grams:
            hashed = memo.get(gram)
            if hashed is None:
                digest = hashlib.sha256(self._prefix + gram.encode("utf-8")).digest()
                bucket = int.from_bytes(digest[:4], "big") % self.dimension
                hashed = memo[gram] = self._hashes[2 * bucket + (digest[4] & 1)]
            counts[hashed[0]] += hashed[1]
        vector = np.array(counts, dtype=np.float64)
        norm = float(np.linalg.norm(vector))
        if norm == 0.0:
            # all grams cancelled; fall back to a deterministic basis vector
            digest = hashlib.sha256(self._prefix + text.encode("utf-8")).digest()
            vector[int.from_bytes(digest[:4], "big") % self.dimension] = 1.0
            norm = 1.0
        return vector / norm


class HttpEmbedder:
    """Embedding client for a local model server's embedding route.

    Sends {"model": ..., "input": ...}; accepts {"vector": [...]} or the
    {"data": [{"embedding": [...]}]} shape. Vectors are unit-normalized
    client-side so the contract holds regardless of backend behavior; a
    non-numeric, non-finite or zero vector is a GatewayError. Requests retry
    under the shared policy of `transport.send`.
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
        # numpy would coerce strings and booleans; JSON numbers are int or float
        if not isinstance(raw, list) or any(type(x) not in (int, float) for x in raw):
            raise GatewayError(
                f"embedding backend returned a non-numeric vector: {response.text[:200]}"
            )
        vector = np.asarray(raw, dtype=np.float64)
        if vector.ndim != 1 or vector.shape[0] != self.dimension:
            raise ConfigurationError(
                f"embedding backend returned dimension {vector.shape}, "
                f"configured {self.dimension}"
            )
        norm = float(np.linalg.norm(vector))
        if not np.isfinite(norm):
            raise GatewayError("embedding backend returned a non-finite vector")
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
        """The version-2 line: the embedding as base64 of its "<f8" bytes."""
        raw = np.ascontiguousarray(self.embedding, dtype="<f8").tobytes()
        return {
            "sequence": self.sequence,
            "derived_text": self.derived_text,
            "embedding": base64.b64encode(raw).decode("ascii"),
        }


def _float_list_vector(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _base64_vector(value) -> np.ndarray:
    if not isinstance(value, str):
        raise TypeError(f"embedding is {type(value).__name__}, expected a base64 string")
    return np.frombuffer(base64.b64decode(value, validate=True), dtype="<f8")


# file version -> decoder of an entry's "embedding" value
_EMBEDDING_DECODERS = {1: _float_list_vector, 2: _base64_vector}


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
    """Immutable-after-build exact-cosine index over derived snippet texts.

    The vectors live once, in a read-only matrix; each entry's `embedding`
    is a row view of it.
    """

    FILE_VERSION = 2

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
        if entries:
            self._matrix = np.stack([e.embedding for e in entries])
        else:
            self._matrix = np.zeros((0, dimension), dtype=np.float64)
        self._matrix.flags.writeable = False
        self.entries = [dataclasses.replace(entry, embedding=row)
                        for entry, row in zip(entries, self._matrix)]
        self._sequences = np.array([e.sequence for e in entries], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.entries)

    # -- build ------------------------------------------------------------

    @classmethod
    def build(cls, corpus, kind: IndexKind, llm, embedder) -> tuple["VectorIndex", BuildSummary]:
        """Derive and embed every cataloged snippet of `corpus`.

        Each distinct snippet text is derived once, up to SETUP_WORKERS at a
        time (see `map_outcomes`); a text whose derivation fails fails every
        sequence that shares it. Entries are then embedded and assembled in
        sequence order, so the index equals that of a sequential build.
        Abstraction entries are skipped (not failed) when the derivation
        answers "no code" or a blank pattern. Per-snippet failures are
        recorded and the build continues; a failure rate above 50% marks the
        build degraded.

        Raises:
            CorpusError: the corpus has no snippet catalog, or its catalog is
                stale for this corpus.
        """
        corpus_digest = corpus.digest()
        catalog_digest = corpus.catalog_corpus_digest
        if catalog_digest is None:
            raise CorpusError(
                f"corpus at {corpus.directory} has no snippet catalog; build it by "
                "running `lsast ingest` without --no-catalog"
            )
        if catalog_digest != corpus_digest:
            raise CorpusError(
                "snippet catalog was built against a different corpus state; rebuild it"
            )
        cache = DerivationCache()
        snippets = corpus.snippets()
        texts = list(dict.fromkeys(snippet.text for _, snippet in snippets))
        outcomes = map_outcomes(lambda text: cache.derive(kind, text, llm), texts)
        derivations = dict(zip(texts, outcomes))
        entries: list[IndexEntry] = []
        failures: list[str] = []
        skipped = 0
        attempted = len(snippets)
        for sequence, snippet in snippets:
            derived, error = derivations[snippet.text]
            if error is None and derived is not None:
                try:
                    embedding = embedder.embed(derived)
                except (LsastError, ValueError) as exc:
                    error = exc
            if error is not None:
                failures.append(f"sequence {sequence}: {error}")
            elif derived is None:
                skipped += 1
            else:
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
        """Read an index file of any version in `_EMBEDDING_DECODERS`.

        Raises:
            IndexIntegrityError: the file is missing, unreadable, of an
                unknown version, truncated, or has a corrupt line (named as
                `path:line`).
        """
        path = Path(path)
        header = None
        entries = []
        line_nos = []
        for line_no, record in read_jsonl(path, IndexIntegrityError):
            try:
                if header is None:
                    version = record["version"]
                    decode = (_EMBEDDING_DECODERS.get(version)
                              if type(version) is int else None)
                    if decode is None:
                        raise IndexIntegrityError(
                            f"index file {path} has version {version!r}; this lsast reads "
                            f"versions {', '.join(map(str, _EMBEDDING_DECODERS))}. "
                            "Rebuild it with `lsast index`."
                        )
                    header = {
                        "kind": IndexKind(record["kind"]),
                        "dimension": int(record["dimension"]),
                        "embedder_id": record["embedder_id"],
                        "corpus_digest": record["corpus_digest"],
                    }
                    declared = int(record["entries"])
                    continue
                embedding = decode(record["embedding"])
                if embedding.shape != (header["dimension"],):
                    raise ValueError(
                        f"embedding has shape {embedding.shape}, "
                        f"index declares dimension {header['dimension']}"
                    )
                entries.append(IndexEntry(
                    sequence=int(record["sequence"]),
                    kind=header["kind"],
                    derived_text=record["derived_text"],
                    embedding=embedding,
                ))
                line_nos.append(line_no)
            except (KeyError, ValueError, TypeError) as exc:
                raise IndexIntegrityError(f"{path}:{line_no}: corrupt index file: {exc}") from None
        if header is None:
            raise IndexIntegrityError(f"index file {path} is empty")
        if len(entries) != declared:
            raise IndexIntegrityError(
                f"index file {path} declares {declared} entries, found {len(entries)} "
                "(truncated?)"
            )
        index = cls(**header, entries=entries)
        non_finite = np.flatnonzero(~np.isfinite(index._matrix).all(axis=1))
        if len(non_finite):
            raise IndexIntegrityError(
                f"{path}:{line_nos[non_finite[0]]}: corrupt index file: "
                "embedding is not finite"
            )
        return index

    # -- search -----------------------------------------------------------

    def search_embedded(self, query: np.ndarray, k: int) -> list[SearchHit]:
        """Exact top-k by cosine over a unit query vector.

        Hits are ordered by descending score, then ascending sequence; the
        sequence decides only between bitwise-equal scores. Which of two
        mathematically equal cosines scores higher is up to BLAS rounding,
        so the one matrix-vector product below must stay one product per
        query over the whole matrix, or the retrieved ids change.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if not self.entries:
            return []
        scores = self._matrix @ np.asarray(query, dtype=np.float64)
        n = len(self.entries)
        k = min(k, n)
        # keep every score >= the k-th best, so ties across the cut stay in
        candidates = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
        if len(candidates) < k:  # NaN scores defeat the cut; rank them all
            candidates = np.arange(n)
        # sort by descending similarity, ascending sequence on ties
        order = candidates[np.lexsort((self._sequences[candidates], -scores[candidates]))][:k]
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
