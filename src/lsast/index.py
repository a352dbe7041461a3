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

Index files keep their `.jsonl` name but are JSONL only at the head: a
canonical JSON header line carrying {version, kind, dimension, embedder id,
corpus digest, entry count}, then one canonical {derived_text, sequence}
line per entry, then every entry's vector at once, as one raw block of
little-endian float64 in entry order (entries x dimension x 8 bytes). The
stored bytes are the vectors' own bits, so loading gives back the exact
matrix, and rebuilding from the same corpus with the deterministic embedder
reproduces the file bitwise. `load` reads version 3, the version `save`
writes, only: a file of version 2 (base64 vectors inside the entry lines),
of version 1 (JSON float lists) or of any other version must be rebuilt with
`lsast index`. It also refuses a block of the wrong length and any
non-finite vector.
"""

import hashlib
import json
import logging
import os
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
    DerivationError,
    EmbedderMismatchError,
    GatewayError,
    IndexIntegrityError,
    LsastError,
    SearchError,
)
from .jsonio import canonical_json, remove_stale_temps, replacing
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
NGRAM = 3  # OfflineEmbedder's gram length, part of its identity
# `Workers`' default thread count: model calls in flight at once in the index
# build, the snippet catalog and a scan batch's derive-ahead
SETUP_WORKERS = 4


class IndexKind(Enum):
    FUNCTIONALITY = "functionality"
    ABSTRACTION = "abstraction"


def derive(kind: IndexKind, code: str, llm) -> str | None:
    """The `kind` derivation of `code`, from one model call.

    Functionality is the imperative summary; abstraction is the code
    pattern, where None means "no code".

    Raises:
        ValueError: code is empty or whitespace-only.
        DerivationError: the summary came back empty, or the pattern answer
            lacks the code-pattern marker.
    """
    if not code or not code.strip():
        raise ValueError(f"cannot derive the {kind.value} of empty code")
    abstraction = kind is IndexKind.ABSTRACTION
    template = ABSTRACTION_PROMPT if abstraction else FUNCTIONALITY_PROMPT
    response = llm.complete(render_derivation_prompt(template, code))
    if abstraction:
        return parse_code_pattern(response)
    if not response.strip():
        raise DerivationError("functionality summary came back empty")
    return response.strip()


class Workers:
    """Run `fn` over `items` on up to `threads` threads, from construction on.

    Each outcome is `(fn(item), None)`, or `(None, error)` when `fn` raised
    an LsastError or ValueError; a position no worker reached stays None.
    Each worker pulls the next position from one shared iterator, so a slow
    call holds up only its own worker. A call that spent most of its wall
    time on its own thread's CPU held the GIL rather than waited, so
    overlapping it gains nothing and costs GIL hand-offs: after such a call
    its worker retires, down to `floor` workers. Only a call whose value
    passes `judged` is timed; one that returned without reaching the model
    says nothing about the model. After `stop`, each worker ends its call
    and takes no other. Any other exception stops the workers likewise and
    is raised by `join`, or on leaving a `with` block that no exception is
    already leaving; the block stops the workers and waits for them.
    """

    def __init__(self, fn, items: list, threads: int = SETUP_WORKERS, floor: int = 1,
                 judged=lambda value: True):
        self.outcomes: list = [None] * len(items)
        self._fn = fn
        self._items = items
        self._positions = iter(range(len(items)))
        self._lock = threading.Lock()
        self._stop = threading.Event()
        workers = min(threads, len(items))
        self._active = workers
        self._floor = floor
        self._judged = judged
        self._pool = ThreadPoolExecutor(max_workers=threads)
        self._futures = [self._pool.submit(self._work) for _ in range(workers)]

    def _work(self):
        while not self._stop.is_set():
            with self._lock:
                position = next(self._positions, None)
            if position is None:
                return
            wall, cpu = time.perf_counter(), time.thread_time()
            judged = True
            try:
                value = self._fn(self._items[position])
                self.outcomes[position] = (value, None)
                judged = self._judged(value)
            except (LsastError, ValueError) as exc:
                self.outcomes[position] = (None, exc)
            except BaseException:
                self._stop.set()
                raise
            if judged and time.thread_time() - cpu > 0.5 * (time.perf_counter() - wall):
                with self._lock:
                    if self._active > self._floor:
                        self._active -= 1
                        return

    def stop(self):
        self._stop.set()

    def join(self) -> list:
        """Wait for every worker; the outcomes in input order. An interrupted wait stops them."""
        try:
            self._pool.shutdown(wait=True)
        except BaseException:  # e.g. KeyboardInterrupt: no worker takes another item
            self.stop()
            raise
        for future in self._futures:
            future.result()
        return self.outcomes

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        if exc_type is None:
            self.join()
        else:
            self._pool.shutdown(wait=True)


class DerivationCache:
    """Per-run cache of model answers: derivations and scan replies.

    A derivation is keyed by (content digest, derivation kind), a scan reply
    by (prompt digest, "scan"). Every request goes out with a fixed seed
    (see `ChatClient`), so one prompt asked twice asks the same question, and
    each key costs one model call.

    Single flight: concurrent callers of one key wait for one call. This
    serves the scans of a batch, whose duplicate targets ask for one key at
    once, and the batch's derive-ahead workers, which derive later targets'
    keys through `derive_ahead` while earlier targets scan: a scan whose key
    a worker is deriving waits for that call. The index build calls `derive`
    once per distinct text. A failure is not cached; a caller that waited on
    a failed call makes the call itself.
    """

    def __init__(self):
        self._store: dict[tuple[str, str], str | None] = {}
        self._lock = threading.Lock()
        # key -> a lock its leader holds until the call ends
        self._in_flight: dict[tuple[str, str], threading.Lock] = {}

    def derive(self, kind: IndexKind, code: str, llm):
        key = (hashlib.sha256(code.encode("utf-8")).hexdigest(), kind.value)
        return self._once(key, lambda: derive(kind, code, llm))[0]

    def derive_ahead(self, kind: IndexKind, code: str, llm) -> bool:
        """Derive and store the key unless it is stored or in flight.

        Never waits for another caller. Returns whether this call derived the
        key; raises as `derive` does.
        """
        key = (hashlib.sha256(code.encode("utf-8")).hexdigest(), kind.value)
        return self._once(key, lambda: derive(kind, code, llm), wait=False)[1]

    def scan_reply(self, prompt: str, prompt_digest: str, llm) -> str:
        """The model's reply to the scan prompt whose sha256 is `prompt_digest`.

        Raises:
            GatewayError: the model call failed.
        """
        return self._once((prompt_digest, "scan"), lambda: llm.complete(prompt))[0]

    def _once(self, key, compute, wait: bool = True) -> tuple[object, bool]:
        """(value of `key`, whether this call computed it).

        A stored value is returned as is. A key in flight is waited for, or
        with `wait` false left alone, giving (None, False). Otherwise this
        call leads: it computes the value, stores it unless `compute` raised,
        and then releases its waiters, who look again.
        """
        while True:
            with self._lock:
                if key in self._store:
                    return self._store[key], False
                leader = self._in_flight.get(key)
                if leader is None:
                    done = self._in_flight[key] = threading.Lock()
                    done.acquire()
                    break
            if not wait:
                return None, False
            with leader:  # returns once the leader's call has ended
                pass
        try:
            value = compute()
            with self._lock:
                self._store[key] = value
        finally:
            with self._lock:
                del self._in_flight[key]
            done.release()
        return value, True


class OfflineEmbedder:
    """Deterministic embedder: signed feature hashing of character 3-grams.

    Fixed seed, float64, unit-normalized. Exists so tests and air-gapped runs
    need no embedding service; it captures surface similarity only.

    Each instance memoises gram -> code, 2 * bucket + (sign > 0), since
    derived texts repeat most of their grams. The counts per bucket are
    exact integers, so a memoised embedding is bitwise the one computed
    without the memo. Concurrent callers may hash one gram twice; both store
    the same value.
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION, seed: int = 9157):
        if dimension < 1:
            raise ConfigurationError("embedder dimension must be >= 1")
        self.dimension = dimension
        self.seed = seed
        self._prefix = f"{seed}:".encode("utf-8")
        self._grams: dict[str, int] = {}

    @property
    def identity(self) -> str:
        return f"offline-ngram{NGRAM}-d{self.dimension}-seed{self.seed}"

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValueError("cannot embed empty text")
        memo = self._grams
        codes = []
        # a text shorter than one gram is its own single gram
        for i in range(max(1, len(text) - NGRAM + 1)):
            gram = text[i:i + NGRAM]
            code = memo.get(gram)
            if code is None:
                digest = hashlib.sha256(self._prefix + gram.encode("utf-8")).digest()
                bucket = int.from_bytes(digest[:4], "big") % self.dimension
                code = memo[gram] = 2 * bucket + (digest[4] & 1)
            codes.append(code)
        counts = np.bincount(codes, minlength=2 * self.dimension)
        vector = (counts[1::2] - counts[::2]).astype(np.float64)
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


def _json_int(record: dict, key: str, least: int | None = None) -> int:
    """`record[key]`, which must be a JSON integer (not a bool, float or string) >= `least`."""
    value = record[key]
    if type(value) is not int:
        raise TypeError(f"{key} is {value!r}, expected an integer")
    if least is not None and value < least:
        raise ValueError(f"{key} is {value}, expected at least {least}")
    return value


def _check_dimension(sequence: int, embedding: np.ndarray, dimension: int):
    if len(embedding) != dimension:
        raise IndexIntegrityError(
            f"entry {sequence} has dimension {len(embedding)}, index declares {dimension}"
        )


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

    FILE_VERSION = 3

    def __init__(self, kind: IndexKind, dimension: int, embedder_id: str,
                 corpus_digest: str, entries: list[IndexEntry]):
        matrix = np.empty((len(entries), dimension), dtype=np.float64)
        for row, entry in zip(matrix, entries):
            _check_dimension(entry.sequence, entry.embedding, dimension)
            row[:] = entry.embedding
        self._adopt(kind, embedder_id, corpus_digest, [e.sequence for e in entries],
                    [e.derived_text for e in entries], matrix)

    @classmethod
    def _of_matrix(cls, kind: IndexKind, embedder_id: str, corpus_digest: str,
                   sequences: list[int], texts: list[str], matrix: np.ndarray) -> "VectorIndex":
        index = cls.__new__(cls)
        index._adopt(kind, embedder_id, corpus_digest, sequences, texts, matrix)
        return index

    def _adopt(self, kind, embedder_id, corpus_digest, sequences, texts, matrix):
        """Take `matrix`, a filled C-contiguous float64 matrix with one row per
        entry in entry order, as this index's vectors: it becomes read-only,
        and each entry's `embedding` is its row view."""
        matrix.flags.writeable = False
        self.kind = kind
        self.dimension = matrix.shape[1]
        self.embedder_id = embedder_id
        self.corpus_digest = corpus_digest
        self._matrix = matrix
        self.entries = [IndexEntry(sequence, kind, text, row)
                        for sequence, text, row in zip(sequences, texts, matrix)]
        self._sequences = np.array(sequences, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.entries)

    # -- build ------------------------------------------------------------

    @classmethod
    def build(cls, corpus, kind: IndexKind, llm, embedder) -> tuple["VectorIndex", BuildSummary]:
        """Derive and embed every cataloged snippet of `corpus`.

        Each distinct snippet text is derived once, up to SETUP_WORKERS at a
        time (see `Workers`); a text whose derivation fails fails every
        sequence that shares it. Entries are then embedded, in sequence
        order, into the rows of one matrix, so the index equals that of a
        sequential build. Abstraction entries are skipped (not failed) when
        the derivation answers "no code" or a blank pattern. Per-snippet
        failures are recorded and the build continues; a failure rate above
        50% marks the build degraded.

        Raises:
            CorpusError: the corpus has no snippet catalog, or its catalog is
                corrupt or stale for this corpus (see `ReportCorpus.check_catalog`).
            IndexIntegrityError: the embedder returned a vector of another
                dimension than its own.
        """
        corpus.check_catalog()
        corpus_digest = corpus.digest()
        snippets = corpus.snippets()
        texts = list(dict.fromkeys(snippet.text for _, snippet in snippets))
        outcomes = Workers(lambda text: derive(kind, text, llm), texts).join()
        derivations = dict(zip(texts, outcomes))
        # a row per derived sequence; a failed embedding leaves the last row unused
        rows = sum(derivations[snippet.text][0] is not None for _, snippet in snippets)
        matrix = np.empty((rows, embedder.dimension), dtype=np.float64)
        sequences: list[int] = []
        derived_texts: list[str] = []
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
                _check_dimension(sequence, embedding, embedder.dimension)
                matrix[len(sequences)] = embedding
                sequences.append(sequence)
                derived_texts.append(derived)
        degraded = attempted > 0 and len(failures) / attempted > 0.5
        if degraded:
            logger.warning(
                "index build degraded: %d/%d derivations failed", len(failures), attempted
            )
        index = cls._of_matrix(kind, embedder.identity, corpus_digest, sequences, derived_texts,
                               matrix[:len(sequences)])
        return index, BuildSummary(len(sequences), skipped, failures, degraded)

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
        lines = [canonical_json(header)]
        lines += [canonical_json({"derived_text": e.derived_text, "sequence": e.sequence})
                  for e in self.entries]
        remove_stale_temps(path)
        with (replacing(path, IndexIntegrityError) as tmp,
              open(tmp, "wb") as handle):
            handle.write(("\n".join(lines) + "\n").encode("utf-8"))
            handle.write(np.ascontiguousarray(self._matrix, dtype="<f8"))
        return path

    @classmethod
    def load(cls, path) -> "VectorIndex":
        """Read an index file of version FILE_VERSION.

        The header's entries x dimension x 8 is checked against the bytes
        left in the file before anything is allocated; the vector block is
        then read in one call into one matrix.

        Raises:
            IndexIntegrityError: the file is missing, unreadable, empty or of
                an unknown version; its vector block is shorter or longer than
                its header declares; or a line is corrupt or a vector not
                finite (named as `path:line`).
        """
        path = Path(path)
        line_no = 1
        sequences, texts = [], []
        try:
            with open(path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                head = handle.readline()
                if not head.strip():
                    raise IndexIntegrityError(f"index file {path} is empty")
                try:
                    header = json.loads(head)
                    version = header["version"]
                    if type(version) is not int or version != cls.FILE_VERSION:
                        raise IndexIntegrityError(
                            f"index file {path} has version {version!r}; this lsast reads "
                            f"version {cls.FILE_VERSION} only. Rebuild it with `lsast index`."
                        )
                    kind = IndexKind(header["kind"])
                    dimension = _json_int(header, "dimension", least=1)
                    count = _json_int(header, "entries", least=0)
                    embedder_id, corpus_digest = header["embedder_id"], header["corpus_digest"]
                    block = count * dimension * 8
                    # a count the file cannot hold is refused below, its lines unread
                    read = "header"
                    if block <= size - handle.tell():
                        for line_no in range(2, count + 2):
                            record = json.loads(handle.readline())
                            sequences.append(_json_int(record, "sequence"))
                            texts.append(record["derived_text"])
                        read = "entry lines"
                except (KeyError, TypeError, ValueError) as exc:
                    raise IndexIntegrityError(
                        f"{path}:{line_no}: corrupt index file: {exc}"
                    ) from None
                left = size - handle.tell()
                if left == block:
                    matrix = np.empty((count, dimension), dtype="<f8")
                    left = handle.readinto(matrix)
                if left != block:
                    raise IndexIntegrityError(
                        f"index file {path} declares {count} entries of dimension {dimension} "
                        f"({block} bytes of vectors), but {left} bytes follow its {read}"
                        + (" (truncated?)" if left < block else "")
                    )
        except OSError as exc:
            raise IndexIntegrityError(f"cannot read {path}: {exc}") from None
        non_finite = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
        if len(non_finite):
            raise IndexIntegrityError(
                f"{path}:{non_finite[0] + 2}: corrupt index file: embedding is not finite"
            )
        return cls._of_matrix(kind, embedder_id, corpus_digest, sequences, texts, matrix)

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

    def check_embedder(self, embedder):
        """Raise EmbedderMismatchError unless `embedder` built this index."""
        if embedder.identity != self.embedder_id:
            raise EmbedderMismatchError(
                f"index built with embedder {self.embedder_id!r}, "
                f"search attempted with {embedder.identity!r}"
            )

    def search(self, query_text: str, k: int, llm, embedder,
               cache: DerivationCache | None = None) -> list[SearchHit]:
        """Derive the query with this index's own derivation, embed, and rank.

        Raises:
            EmbedderMismatchError: `embedder` is not the one that built this
                index.
            SearchError: abstraction derivation found no code in the query.
        """
        self.check_embedder(embedder)
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
