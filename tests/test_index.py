import base64
import hashlib
import json
import signal
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import lsast.index as index_module
from lsast.corpus import ReportCorpus
from lsast.errors import (
    CorpusError,
    DerivationError,
    EmbedderMismatchError,
    IndexIntegrityError,
    LsastError,
    SearchError,
)
from lsast.gateway import MockGateway
from lsast.index import (
    DEFAULT_DIMENSION,
    SETUP_WORKERS,
    BuildSummary,
    DerivationCache,
    IndexEntry,
    IndexKind,
    OfflineEmbedder,
    VectorIndex,
    Workers,
    correlate,
    derive,
)
from lsast.jsonio import canonical_json
from lsast.prompts import ABSTRACTION_PROMPT, FUNCTIONALITY_PROMPT, render_derivation_prompt


def brute_force_topk(vectors: np.ndarray, sequences: list[int], query: np.ndarray,
                     k: int) -> list[tuple[int, float]]:
    """Reference ranking: exact cosine over unit vectors, ties by sequence."""
    sims = vectors @ query
    order = sorted(range(len(sequences)), key=lambda i: (-sims[i], sequences[i]))
    return [(sequences[i], float(sims[i])) for i in order[:k]]


def random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def dyadic_tied_corpus(rng: np.random.Generator, dim: int,
                       n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectors drawn with repeats from a small pool, plus a query.

    Components are multiples of 1/16 with |x| <= 1/8, so every dot product
    is exact whatever the summation order: duplicates tie exactly.
    """
    pool = rng.integers(-2, 3, size=(max(1, n // 4), dim)) / 16.0
    vectors = pool[rng.integers(0, len(pool), size=n)]
    return vectors, rng.integers(-2, 3, size=dim) / 16.0


def split_index_file(path) -> tuple[list[bytes], bytes]:
    """The head lines (header, then one per entry) and the raw vector block of `path`."""
    data = path.read_bytes()
    entries = json.loads(data[:data.index(b"\n")])["entries"]
    *lines, block = data.split(b"\n", entries + 1)
    return lines, block


def rewrite_line(path, line_index: int, **fields) -> None:
    """Replace fields of one head line of the index file `path` in place."""
    lines, block = split_index_file(path)
    record = dict(json.loads(lines[line_index]), **fields)
    lines[line_index] = canonical_json(record).encode("utf-8")
    path.write_bytes(b"\n".join(lines) + b"\n" + block)


def write_old_version(index, path, version: int):
    """Write `index` as a file of an earlier version, with each vector in its line.

    Version 1 stores the vector as a JSON float list, version 2 as the base64
    of its little-endian float64 bytes.
    """
    def encoded(vector):
        if version == 1:
            return [float(x) for x in vector]
        return base64.b64encode(np.asarray(vector, dtype="<f8").tobytes()).decode("ascii")

    header = {"version": version, "kind": index.kind.value, "dimension": index.dimension,
              "embedder_id": index.embedder_id, "corpus_digest": index.corpus_digest,
              "entries": len(index)}
    lines = [canonical_json(header)] + [
        canonical_json({"sequence": e.sequence, "derived_text": e.derived_text,
                        "embedding": encoded(e.embedding)})
        for e in index.entries
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def make_index(vectors, sequences, kind=IndexKind.FUNCTIONALITY,
               embedder_id="test-embedder", corpus_digest="d"):
    entries = [
        IndexEntry(sequence=seq, kind=kind, derived_text=f"entry {seq}",
                   embedding=np.asarray(vec, dtype=np.float64))
        for vec, seq in zip(vectors, sequences)
    ]
    return VectorIndex(kind=kind, dimension=len(vectors[0]),
                       embedder_id=embedder_id, corpus_digest=corpus_digest,
                       entries=entries)


class TestSearchOracle:
    def test_matches_brute_force_on_random_corpora(self):
        rng = np.random.default_rng(2024_08)

        def check(vectors, query):
            n = len(vectors)
            sequences = list(range(1, n + 1))
            shuffle = rng.permutation(n)
            index = make_index(vectors[shuffle], [sequences[i] for i in shuffle])
            for k in (1, 3, 10, n + 5):
                hits = index.search_embedded(query, k)
                got = [(h.entry.sequence, h.similarity) for h in hits]
                expected = brute_force_topk(vectors, sequences, query, k)
                assert [g[0] for g in got] == [e[0] for e in expected]
                np.testing.assert_allclose([g[1] for g in got],
                                           [e[1] for e in expected], atol=1e-12)

        for _ in range(30):
            dim = int(rng.integers(8, 65))
            n = int(rng.integers(1, 201))
            vectors = np.stack([random_unit(rng, dim) for _ in range(n)])
            check(vectors, random_unit(rng, dim))
        # duplicated vectors: tied groups fall across the top-k cut
        for _ in range(30):
            check(*dyadic_tied_corpus(rng, int(rng.integers(8, 65)), int(rng.integers(1, 201))))

    def test_exact_ties_resolve_by_ascending_sequence(self):
        rng = np.random.default_rng(7)
        dim = 16
        base = random_unit(rng, dim)
        other = random_unit(rng, dim)
        # sequences 5, 2, 9 share one vector; insertion order must not matter
        vectors = [base, other, base, base]
        sequences = [5, 1, 2, 9]
        index = make_index(vectors, sequences)
        hits = index.search_embedded(base, 3)
        assert [h.entry.sequence for h in hits] == [2, 5, 9]
        # tied groups straddling the k-th place
        best = np.eye(16)[0]
        tied = (np.eye(16)[0] + np.eye(16)[1]) / 2.0  # scores exactly 0.5 against best
        # five equal vectors, k=2: the cut falls inside the tied group
        index = make_index([tied] * 5, [8, 3, 6, 1, 4])
        assert [h.entry.sequence for h in index.search_embedded(best, 2)] == [1, 3]
        # one unique best plus four ties, k=3
        index = make_index([tied, tied, best, tied, tied], [7, 4, 9, 2, 5])
        hits = index.search_embedded(best, 3)
        assert [h.entry.sequence for h in hits] == [9, 2, 4]
        assert [h.similarity for h in hits] == [1.0, 0.5, 0.5]

    def test_nan_score_ranks_last_as_in_a_full_sort(self):
        vectors = [np.full(4, np.nan), np.eye(4)[0], np.eye(4)[1]]
        index = make_index(vectors, [1, 2, 3])
        hits = index.search_embedded(np.eye(4)[1], 2)
        assert [h.entry.sequence for h in hits] == [3, 2]

    def test_k_larger_than_corpus_returns_everything(self):
        rng = np.random.default_rng(3)
        vectors = [random_unit(rng, 8) for _ in range(4)]
        index = make_index(vectors, [1, 2, 3, 4])
        assert len(index.search_embedded(vectors[0], 99)) == 4

    def test_empty_index_returns_no_hits(self):
        index = VectorIndex(kind=IndexKind.FUNCTIONALITY, dimension=8,
                            embedder_id="e", corpus_digest="d", entries=[])
        assert index.search_embedded(np.ones(8) / np.sqrt(8), 3) == []

    def test_similarity_clipped_to_cosine_range(self):
        vectors = [np.ones(4) / 2.0]
        index = make_index(vectors, [1])
        hits = index.search_embedded(np.ones(4) / 2.0, 1)
        assert -1.0 <= hits[0].similarity <= 1.0


class TestOfflineEmbedder:
    def test_deterministic(self):
        a = OfflineEmbedder().embed("select * from users")
        b = OfflineEmbedder().embed("select * from users")
        np.testing.assert_array_equal(a, b)

    def test_unit_norm(self):
        vec = OfflineEmbedder().embed("some text here")
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_different_texts_differ(self):
        embedder = OfflineEmbedder()
        assert not np.array_equal(embedder.embed("alpha"), embedder.embed("beta"))

    def test_dimension_respected(self):
        assert OfflineEmbedder(dimension=32).embed("x").shape == (32,)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            OfflineEmbedder().embed("")

    def test_short_text_still_unit(self):
        # shorter than one ngram: falls back to the whole text as a gram
        vec = OfflineEmbedder().embed("ab")
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    # sha256 of embed(text).tobytes() before gram hashing was memoised
    @pytest.mark.parametrize("text, digest", [
        ("select * from users where name = ?",
         "91e354248a289e2c08152d7b85c0cf00ec77814ac7df9c4b8f3adbae9cf3a6e9"),
        ("ab",  # shorter than one ngram
         "f039b4b2803eb0902ae22001eb46d4ece11cb867d3471c24fda2e519c6eab799"),
        ("naïve café — 文字列 ✓",
         "0ec8e847a355d4469524abfafe435d31488ef1871f6268e91d3b03119ae4d619"),
        ("aaha",  # its two grams cancel: the basis-vector fallback
         "207ee39c2a5989fb9f648504ed055ee2010f111d4542fb50a24951b5da8bde24"),
    ])
    def test_vectors_are_bitwise_pinned(self, text, digest):
        embedder = OfflineEmbedder()
        for _ in range(2):  # cold, then with every gram memoised
            assert hashlib.sha256(embedder.embed(text).tobytes()).hexdigest() == digest

    def test_matches_the_signed_count_loop(self):
        """Counting memoised gram codes gives bitwise the vector of summing
        each gram's signed hash into its bucket in a Python loop."""
        def reference(text, dimension, seed=9157):
            counts = [0] * dimension
            for i in range(max(1, len(text) - 2)):
                digest = hashlib.sha256(f"{seed}:{text[i:i + 3]}".encode("utf-8")).digest()
                counts[int.from_bytes(digest[:4], "big") % dimension] += 1 if digest[4] & 1 else -1
            vector = np.array(counts, dtype=np.float64)
            norm = float(np.linalg.norm(vector))
            if norm == 0.0:
                digest = hashlib.sha256(f"{seed}:{text}".encode("utf-8")).digest()
                vector[int.from_bytes(digest[:4], "big") % dimension] = 1.0
                norm = 1.0
            return vector / norm

        rng = np.random.default_rng(22)
        alphabet = list("ab c=;(x)é文")
        texts = ["".join(rng.choice(alphabet, size=rng.integers(1, 80))) for _ in range(300)]
        for dimension in (DEFAULT_DIMENSION, 7):
            embedder = OfflineEmbedder(dimension=dimension)
            for _ in range(2):  # cold, then with every gram memoised
                for text in texts:
                    assert embedder.embed(text).tobytes() == reference(text, dimension).tobytes()

    def test_identity_encodes_parameters(self):
        assert OfflineEmbedder().identity != OfflineEmbedder(seed=1).identity
        assert OfflineEmbedder().identity != OfflineEmbedder(dimension=64).identity

    def test_identity_is_pinned(self):
        # index headers store it; a changed id refuses every saved index
        assert OfflineEmbedder().identity == "offline-ngram3-d256-seed9157"
        assert OfflineEmbedder(dimension=64, seed=1).identity == "offline-ngram3-d64-seed1"


class TestDerivations:
    def test_summarize_functionality(self):
        summary = derive(IndexKind.FUNCTIONALITY, "var x = 1", MockGateway())
        assert summary.startswith("Perform the operation identified by")

    def test_summarize_rejects_empty_code(self):
        with pytest.raises(ValueError):
            derive(IndexKind.FUNCTIONALITY, "", MockGateway())

    def test_abstract_code(self):
        pattern = derive(IndexKind.ABSTRACTION, "var count = total + 1", MockGateway())
        assert pattern is not None
        assert "count" not in pattern

    def test_abstract_code_no_code(self):
        class NoCode:
            def complete(self, prompt):
                return "Code-Pattern:[no code]"

        assert derive(IndexKind.ABSTRACTION, "prose only", NoCode()) is None

    def test_abstract_code_bad_response(self):
        class Garbled:
            def complete(self, prompt):
                return "I refuse."

        with pytest.raises(DerivationError):
            derive(IndexKind.ABSTRACTION, "var x = 1", Garbled())

    @pytest.mark.parametrize("kind, template", [
        (IndexKind.FUNCTIONALITY, FUNCTIONALITY_PROMPT), (IndexKind.ABSTRACTION, ABSTRACTION_PROMPT)])
    def test_one_call_with_the_kind_prompt(self, kind, template):
        gateway = MockGateway()
        derive(kind, "var x = 1", gateway)
        assert gateway.call_count == 1
        assert gateway.last_prompt == render_derivation_prompt(template, "var x = 1")

    @pytest.mark.parametrize("kind", list(IndexKind))
    @pytest.mark.parametrize("code", ["", " \n\t"])
    def test_empty_code_refused_before_any_call(self, kind, code):
        gateway = MockGateway()
        with pytest.raises(ValueError):
            derive(kind, code, gateway)
        assert gateway.call_count == 0

    def test_blank_summary_fails(self):
        class Blank:
            def complete(self, prompt):
                return " \n"

        with pytest.raises(DerivationError):
            derive(IndexKind.FUNCTIONALITY, "var x = 1", Blank())

    def test_build_derives_without_a_cache(self, corpus, embedder, monkeypatch):
        def no_cache():
            raise AssertionError("the build created a DerivationCache")

        gateway = MockGateway()
        monkeypatch.setattr("lsast.index.DerivationCache", no_cache)
        for kind in IndexKind:
            VectorIndex.build(corpus, kind, gateway, embedder)
        texts = {snippet.text for _, snippet in corpus.snippets()}
        assert gateway.call_count == 2 * len(texts)

    def test_cache_avoids_repeat_calls(self):
        gateway = MockGateway()
        cache = DerivationCache()
        first = cache.derive(IndexKind.ABSTRACTION, "var x = 1", gateway)
        second = cache.derive(IndexKind.ABSTRACTION, "var x = 1", gateway)
        assert first == second
        assert gateway.call_count == 1

    def test_cache_distinguishes_kinds(self):
        gateway = MockGateway()
        cache = DerivationCache()
        cache.derive(IndexKind.ABSTRACTION, "var x = 1", gateway)
        cache.derive(IndexKind.FUNCTIONALITY, "var x = 1", gateway)
        assert gateway.call_count == 2

    def test_failed_derivation_is_not_cached(self):
        class FailsOnce(MockGateway):
            failed = False

            def complete(self, prompt):
                if not self.failed:
                    self.failed = True
                    raise DerivationError("model hiccup")
                return super().complete(prompt)

        gateway = FailsOnce()
        cache = DerivationCache()
        with pytest.raises(DerivationError):
            cache.derive(IndexKind.FUNCTIONALITY, "var x = 1", gateway)
        assert cache.derive(IndexKind.FUNCTIONALITY, "var x = 1", gateway).startswith("Perform")
        assert gateway.call_count == 1

    def test_waiter_derives_itself_when_its_leader_fails(self):
        entered = []
        leading = []
        changed = threading.Condition()

        class CountingCache(DerivationCache):
            def derive(self, kind, code, llm):
                with changed:
                    entered.append(threading.current_thread())
                    changed.notify_all()
                return super().derive(kind, code, llm)

        class LeaderFails(MockGateway):
            def complete(self, prompt):
                if threading.current_thread() is leader:
                    # fail only once the other caller is waiting on this key
                    with changed:
                        leading.append(True)
                        changed.notify_all()
                        assert changed.wait_for(lambda: len(entered) == 2, timeout=10)
                    raise DerivationError("leader failed")
                return super().complete(prompt)

        cache = CountingCache()
        gateway = LeaderFails()
        outcomes = {}

        def call(name):
            try:
                outcomes[name] = cache.derive(IndexKind.FUNCTIONALITY, "var x = 1", gateway)
            except DerivationError as exc:
                outcomes[name] = exc

        leader = threading.Thread(target=call, args=("leader",))
        leader.start()
        with changed:
            assert changed.wait_for(lambda: leading, timeout=10)
        waiter = threading.Thread(target=call, args=("waiter",))
        waiter.start()
        for thread in (leader, waiter):
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert isinstance(outcomes["leader"], DerivationError)
        assert outcomes["waiter"].startswith("Perform the operation identified by")
        assert gateway.call_count == 1


    def test_derive_ahead_derives_and_stores_a_new_key(self):
        gateway = MockGateway()
        cache = DerivationCache()
        assert cache.derive_ahead(IndexKind.FUNCTIONALITY, "var x = 1", gateway) is True
        assert cache.derive_ahead(IndexKind.FUNCTIONALITY, "var x = 1", gateway) is False
        assert cache.derive(IndexKind.FUNCTIONALITY, "var x = 1", gateway).startswith("Perform")
        assert gateway.call_count == 1

    def test_derive_ahead_skips_a_key_in_flight_without_waiting(self):
        release = threading.Event()
        started = threading.Event()

        class Held(MockGateway):
            def complete(self, prompt):
                started.set()
                assert release.wait(timeout=10)
                return super().complete(prompt)

        cache = DerivationCache()
        gateway = Held()
        leader = threading.Thread(
            target=cache.derive, args=(IndexKind.ABSTRACTION, "var x = 1", gateway))
        leader.start()
        try:
            assert started.wait(timeout=10)
            assert cache.derive_ahead(IndexKind.ABSTRACTION, "var x = 1", gateway) is False
        finally:
            release.set()
            leader.join(timeout=10)
        assert gateway.call_count == 1

    def test_derive_ahead_failure_is_raised_and_not_cached(self):
        class FailsOnce(MockGateway):
            failed = False

            def complete(self, prompt):
                if not self.failed:
                    self.failed = True
                    raise DerivationError("model hiccup")
                return super().complete(prompt)

        gateway = FailsOnce()
        cache = DerivationCache()
        with pytest.raises(DerivationError):
            cache.derive_ahead(IndexKind.FUNCTIONALITY, "var x = 1", gateway)
        assert cache.derive_ahead(IndexKind.FUNCTIONALITY, "var x = 1", gateway) is True

    def test_scan_replies_one_call_per_prompt_under_contention(self):
        class Slow(MockGateway):
            def complete(self, prompt):
                time.sleep(0.002)
                return super().complete(prompt)

        prompts = [f"You are a very efficient vulnerability scanner.\n{n}" for n in range(4)]
        cache = DerivationCache()
        gateway = Slow(scan_response="reply")
        askers = prompts * 8
        start = threading.Barrier(len(askers), timeout=10)  # every asker released at once
        replies = []

        def ask(prompt):
            digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
            start.wait()
            replies.append(cache.scan_reply(prompt, digest, gateway))

        threads = [threading.Thread(target=ask, args=(prompt,)) for prompt in askers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert replies == ["reply"] * len(askers)
        assert gateway.call_count == len(prompts)
        # a derivation of the same text is its own key
        cache.derive(IndexKind.FUNCTIONALITY, prompts[0], gateway)
        assert gateway.call_count == len(prompts) + 1


class TestBuildAndPersist:
    def test_build_covers_catalog(self, corpus, embedder):
        index, summary = VectorIndex.build(corpus, IndexKind.FUNCTIONALITY,
                                           llm=MockGateway(), embedder=embedder)
        assert summary.entries == 3
        assert summary.failures == []
        assert index.corpus_digest == corpus.digest()
        assert sorted(e.sequence for e in index.entries) == [1, 2, 3]

    def test_build_requires_fresh_catalog(self, corpus, embedder, tmp_path,
                                          report_dicts):
        import json
        extra = dict(report_dicts[0], id=50, title="new one")
        source = tmp_path / "extra.json"
        source.write_text(json.dumps([extra]))
        corpus.ingest_reports(source)
        with pytest.raises(CorpusError):
            VectorIndex.build(corpus, IndexKind.FUNCTIONALITY,
                              llm=MockGateway(), embedder=embedder)

    def test_save_load_round_trip(self, corpus, embedder, tmp_path):
        index, _ = VectorIndex.build(corpus, IndexKind.ABSTRACTION,
                                     llm=MockGateway(), embedder=embedder)
        path = tmp_path / "abs.jsonl"
        index.save(path)
        loaded = VectorIndex.load(path)
        assert loaded.kind is IndexKind.ABSTRACTION
        assert loaded.embedder_id == index.embedder_id
        assert loaded.corpus_digest == index.corpus_digest
        for original, restored in zip(index.entries, loaded.entries):
            assert original.sequence == restored.sequence
            assert original.derived_text == restored.derived_text
            np.testing.assert_array_equal(original.embedding, restored.embedding)

    def test_loaded_index_searches_identically(self, corpus, embedder, tmp_path):
        index, _ = VectorIndex.build(corpus, IndexKind.FUNCTIONALITY,
                                     llm=MockGateway(), embedder=embedder)
        path = tmp_path / "f.jsonl"
        index.save(path)
        loaded = VectorIndex.load(path)
        query = embedder.embed("look up a user by name in the database")
        before = [(h.entry.sequence, h.similarity) for h in index.search_embedded(query, 3)]
        after = [(h.entry.sequence, h.similarity) for h in loaded.search_embedded(query, 3)]
        assert before == after

    @staticmethod
    def saved(corpus, embedder, tmp_path, kind=IndexKind.FUNCTIONALITY):
        index, _ = VectorIndex.build(corpus, kind, llm=MockGateway(), embedder=embedder)
        return index, index.save(tmp_path / "f.jsonl")

    def test_truncated_file_refused(self, corpus, embedder, tmp_path):
        index, path = self.saved(corpus, embedder, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(IndexIntegrityError) as exc:
            VectorIndex.load(path)
        assert str(exc.value) == (f"index file {path} declares 3 entries of dimension 256 "
                                  "(6144 bytes of vectors), but 6143 bytes follow its entry "
                                  "lines (truncated?)")
        # too short to hold the vectors at all: refused before the entry lines are read
        path.write_bytes(data[:-8 * index.dimension])
        with pytest.raises(IndexIntegrityError,
                           match=r"declares 3 entries .* follow its header \(truncated\?\)"):
            VectorIndex.load(path)

    def test_short_vector_block_refused(self, corpus, embedder, tmp_path):
        # the header declares one float64 more per vector than the block holds
        _, path = self.saved(corpus, embedder, tmp_path)
        rewrite_line(path, 0, dimension=257)
        with pytest.raises(IndexIntegrityError) as exc:
            VectorIndex.load(path)
        assert str(exc.value) == (f"index file {path} declares 3 entries of dimension 257 "
                                  "(6168 bytes of vectors), but 6144 bytes follow its entry "
                                  "lines (truncated?)")

    def test_trailing_byte_refused(self, corpus, embedder, tmp_path):
        _, path = self.saved(corpus, embedder, tmp_path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(IndexIntegrityError) as exc:
            VectorIndex.load(path)
        assert str(exc.value) == (f"index file {path} declares 3 entries of dimension 256 "
                                  "(6144 bytes of vectors), but 6145 bytes follow its entry lines")

    def test_declared_count_refused_before_allocating(self, corpus, embedder, tmp_path):
        _, path = self.saved(corpus, embedder, tmp_path)
        rewrite_line(path, 0, entries=10**12)
        tracemalloc.start()
        try:
            with pytest.raises(IndexIntegrityError,
                               match=f"declares {10**12} entries .*truncated"):
                VectorIndex.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rebuilt_file_is_byte_identical(self, corpus, tmp_path):
        files = []
        # a cold embedder, the same one with its gram memo filled, a fresh one
        for run, embedder in enumerate([OfflineEmbedder()] * 2 + [OfflineEmbedder()]):
            index, _ = VectorIndex.build(corpus, IndexKind.FUNCTIONALITY,
                                         llm=MockGateway(), embedder=embedder)
            files.append(index.save(tmp_path / f"run{run}.jsonl").read_bytes())
        assert files[0] == files[1] == files[2]

    @pytest.mark.parametrize("line", [
        b"not JSON",
        b"[2]",
        b'{"sequence": 2}',
        b'{"derived_text": "t"}',
    ])
    def test_corrupt_entry_line_names_the_line(self, corpus, embedder, tmp_path, line):
        _, path = self.saved(corpus, embedder, tmp_path)
        lines, block = split_index_file(path)
        lines[2] = line
        path.write_bytes(b"\n".join(lines) + b"\n" + block)
        with pytest.raises(IndexIntegrityError, match=f"{path}:3: corrupt"):
            VectorIndex.load(path)

    @pytest.mark.parametrize("sequence", [5.9, True, "5"], ids=repr)
    def test_non_integer_sequence_names_the_line(self, corpus, embedder, tmp_path, sequence):
        _, path = self.saved(corpus, embedder, tmp_path)
        rewrite_line(path, 2, sequence=sequence)
        with pytest.raises(IndexIntegrityError,
                           match=f"{path}:3: corrupt index file: sequence is "
                                 f"{sequence!r}, expected an integer"):
            VectorIndex.load(path)

    @pytest.mark.parametrize("field, value", [
        pytest.param(field, value, id=f"{field}={value!r}") for field, value in [
            ("dimension", 256.0), ("dimension", True), ("dimension", "256"), ("dimension", 0),
            ("entries", 3.0), ("entries", True), ("entries", "3"), ("entries", -1),
        ]
    ])
    def test_bad_header_integer_names_the_line(self, corpus, embedder, tmp_path, field, value):
        _, path = self.saved(corpus, embedder, tmp_path)
        rewrite_line(path, 0, **{field: value})
        with pytest.raises(IndexIntegrityError, match=f"{path}:1: corrupt index file: {field} is"):
            VectorIndex.load(path)

    @pytest.mark.parametrize("entry", [1, 2])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_embedding_names_the_line(self, corpus, embedder, tmp_path,
                                                 entry, value):
        index, path = self.saved(corpus, embedder, tmp_path)
        data = bytearray(path.read_bytes())
        offset = len(data) - 8 * index.dimension * (len(index) - entry) + 8 * 3
        data[offset:offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(IndexIntegrityError,
                           match=f"{path}:{entry + 2}: corrupt.*not finite"):
            VectorIndex.load(path)

    def test_unknown_version_refused(self, corpus, embedder, tmp_path):
        _, path = self.saved(corpus, embedder, tmp_path)
        rewrite_line(path, 0, version=99)
        with pytest.raises(IndexIntegrityError) as exc:
            VectorIndex.load(path)
        message = str(exc.value)
        assert str(path) in message
        assert "version 99" in message
        assert "version 3 only" in message
        assert "lsast index" in message

    def test_version_1_file_refused_with_its_rebuild_message(self, corpus, embedder, tmp_path):
        index, _ = VectorIndex.build(corpus, IndexKind.ABSTRACTION,
                                     llm=MockGateway(), embedder=embedder)
        path = write_old_version(index, tmp_path / "v1.jsonl", 1)
        with pytest.raises(IndexIntegrityError) as exc:
            VectorIndex.load(path)
        assert str(exc.value) == (f"index file {path} has version 1; this lsast reads "
                                  "version 3 only. Rebuild it with `lsast index`.")

    def test_version_2_file_refused_with_its_rebuild_message(self, corpus, embedder, tmp_path):
        index, _ = VectorIndex.build(corpus, IndexKind.ABSTRACTION,
                                     llm=MockGateway(), embedder=embedder)
        path = write_old_version(index, tmp_path / "v2.jsonl", 2)
        with pytest.raises(IndexIntegrityError) as exc:
            VectorIndex.load(path)
        assert str(exc.value) == (f"index file {path} has version 2; this lsast reads "
                                  "version 3 only. Rebuild it with `lsast index`.")

    def test_entries_share_the_index_matrix(self, corpus, embedder):
        index, _ = VectorIndex.build(corpus, IndexKind.FUNCTIONALITY,
                                     llm=MockGateway(), embedder=embedder)
        for entry in index.entries:
            assert np.shares_memory(entry.embedding, index._matrix)
            assert not entry.embedding.flags.writeable

    def test_built_and_loaded_matrices_take_one_blas_path(self, tmp_path, embedder):
        """Search rounds as the BLAS kernel that `_matrix @ query` picks, and
        that pick follows the matrix's dtype, layout and alignment; so a built
        and a loaded index need one layout and the same bytes to rank alike."""
        # 7 distinct abstraction patterns over 40 snippets: rows tie exactly
        bodies = [fenced(f"var c{i} = lookup({i % 7}, name);") for i in range(40)]
        corpus = cataloged_corpus(tmp_path / "corpus", bodies)
        built, _ = VectorIndex.build(corpus, IndexKind.ABSTRACTION,
                                     llm=MockGateway(), embedder=embedder)
        loaded = VectorIndex.load(built.save(tmp_path / "abstraction.jsonl"))
        reference = np.stack([embedder.embed(e.derived_text) for e in built.entries])
        assert len(built) == 40
        for index in (built, loaded):
            flags = index._matrix.flags
            assert index._matrix.dtype == np.float64
            assert flags.c_contiguous and flags.aligned and not flags.writeable
            assert index._matrix.tobytes() == reference.tobytes()
        rng = np.random.default_rng(22)
        queries = [embedder.embed(f"x x = x({i}, x);") for i in range(10)]
        queries += [random_unit(rng, embedder.dimension) for _ in range(10)]
        for query in queries:
            hits = [[(h.entry.sequence, h.similarity) for h in index.search_embedded(query, 5)]
                    for index in (built, loaded)]
            assert hits[0] == hits[1]

    def test_failed_save_keeps_previous_file(self, corpus, embedder, tmp_path, monkeypatch):
        index, _ = VectorIndex.build(corpus, IndexKind.FUNCTIONALITY,
                                     llm=MockGateway(), embedder=embedder)
        assert len(index) > 1
        path = tmp_path / "indexes" / "f.jsonl"
        index.save(path)
        before = path.read_bytes()
        block = np.asarray(index._matrix, dtype="<f8").tobytes()
        real_open = open

        class FillsMidBlock:
            """A file whose disk fills halfway through the vector block."""

            def __init__(self, *args, **kwargs):
                self.handle = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, data):
                data = bytes(data)
                if data == block:
                    self.handle.write(data[:len(data) // 2])
                    raise OSError(28, "No space left on device")
                return self.handle.write(data)

        monkeypatch.setattr(index_module, "open", FillsMidBlock, raising=False)
        with pytest.raises(IndexIntegrityError) as exc:
            index.save(path)
        assert str(path) in str(exc.value)
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == ["f.jsonl"]

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(IndexIntegrityError):
            VectorIndex.load(tmp_path / "absent.jsonl")

    def test_dimension_mismatch_rejected(self):
        entries = [IndexEntry(sequence=1, kind=IndexKind.FUNCTIONALITY,
                              derived_text="t", embedding=np.ones(4))]
        with pytest.raises(IndexIntegrityError):
            VectorIndex(kind=IndexKind.FUNCTIONALITY, dimension=8,
                        embedder_id="e", corpus_digest="d", entries=entries)


def cataloged_corpus(directory, bodies) -> ReportCorpus:
    """A corpus of one report per body, with its snippet catalog built."""
    corpus = ReportCorpus(directory)
    corpus.ingest_records([
        {"id": report_id, "title": f"report {report_id}", "cwe-id": "CWE-79",
         "vulnerability_information": body}
        for report_id, body in enumerate(bodies, 1)
    ])
    corpus.build_snippet_catalog(llm=MockGateway())
    return corpus


def fenced(*blocks) -> str:
    return "".join(f"```\n{block}\n```\n" for block in blocks)


# sequences 1-8 hold duplicates (2 of "var a = 1;", "echo $x;", "FAILS(1);"),
# a "no code" answer for abstraction at 5, and failures at 4 and 7
SCRIPTED_BODIES = [
    fenced("var a = 1;", "echo $x;"),
    fenced("var a = 1;", "FAILS(1);"),
    fenced("NOCODE", "echo $x;"),
    fenced("FAILS(1);", "exec(cmd);"),
    *(fenced(f"var b{i} = {i};") for i in range(8)),
]


class ScriptedGateway(MockGateway):
    """Fails every derivation of code holding FAILS; finds no code in NOCODE."""

    def complete(self, prompt):
        response = super().complete(prompt)
        if "FAILS" in prompt:
            raise DerivationError("model refused the snippet")
        if "NOCODE" in prompt and "Code-Pattern:[xxxx]" in prompt:
            return "Code-Pattern:[no code]"
        return response


def sequential_build(corpus, kind, llm, embedder):
    """Reference: derive and embed each sequence in turn through one cache."""
    cache = DerivationCache()
    entries, failures, skipped = [], [], 0
    snippets = corpus.snippets()
    for sequence, snippet in snippets:
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
    index = VectorIndex(kind, embedder.dimension, embedder.identity, corpus.digest(), entries)
    summary = BuildSummary(len(entries), skipped, failures,
                           degraded=len(failures) / len(snippets) > 0.5)
    return index, summary


class OverlapGateway(MockGateway):
    """Holds each call until a second call is in flight, or a wait times out.

    Records the peak number of calls in flight at once. After one timed-out
    wait no call waits again, so a sequential caller costs one timeout.
    """

    def __init__(self):
        super().__init__()
        self.changed = threading.Condition()
        self.active = self.peak = 0
        self.timed_out = False

    def complete(self, prompt):
        with self.changed:
            self.active += 1
            self.peak = max(self.peak, self.active)
            self.changed.notify_all()
            if not self.changed.wait_for(lambda: self.peak > 1 or self.timed_out, timeout=5):
                self.timed_out = True
        try:
            return super().complete(prompt)
        finally:
            with self.changed:
                self.active -= 1


class CrashingGateway(MockGateway):
    """Raises a programming error, not a domain error, for code holding CRASH."""

    def complete(self, prompt):
        if "CRASH" in prompt:
            raise RuntimeError("gateway bug")
        return super().complete(prompt)


class TestSetupPool:
    @pytest.mark.parametrize("kind", list(IndexKind))
    def test_pooled_build_equals_sequential_reference(self, tmp_path, kind):
        """The file and summary match a sequential build bitwise.

        One behaviour differs: a text whose derivation fails is derived once
        and fails every sequence that shares it; the sequential reference
        retries it for each duplicate.
        """
        corpus = cataloged_corpus(tmp_path / "corpus", SCRIPTED_BODIES)
        embedder = OfflineEmbedder()
        gateway, reference_gateway = ScriptedGateway(), ScriptedGateway()
        index, summary = VectorIndex.build(corpus, kind, llm=gateway, embedder=embedder)
        reference, expected = sequential_build(corpus, kind, reference_gateway, embedder)
        pooled_bytes = index.save(tmp_path / "pooled.jsonl").read_bytes()
        assert pooled_bytes == reference.save(tmp_path / "reference.jsonl").read_bytes()
        assert summary == expected
        assert [f.split(":")[0] for f in summary.failures] == ["sequence 4", "sequence 7"]
        assert summary.skipped == (1 if kind is IndexKind.ABSTRACTION else 0)
        distinct = len({snippet.text for _, snippet in corpus.snippets()})
        assert gateway.call_count == distinct
        assert reference_gateway.call_count == distinct + 1

    def test_build_overlaps_within_the_bound(self, tmp_path, embedder):
        bodies = [fenced(f"var c{i} = {i};") for i in range(3 * SETUP_WORKERS)]
        corpus = cataloged_corpus(tmp_path / "corpus", bodies + bodies[:3])
        gateway = OverlapGateway()
        index, summary = VectorIndex.build(corpus, IndexKind.FUNCTIONALITY,
                                           llm=gateway, embedder=embedder)
        assert summary.entries == len(bodies) + 3 and not summary.failures
        assert not gateway.timed_out
        assert 1 < gateway.peak <= SETUP_WORKERS
        assert gateway.call_count == len(bodies)

    def test_catalog_overlaps_within_the_bound(self, tmp_path):
        corpus = ReportCorpus(tmp_path / "corpus")
        corpus.ingest_records([
            {"id": i, "title": "t", "cwe-id": "CWE-94",
             "vulnerability_information": f"the handler passes input_{i} to eval"}
            for i in range(1, 3 * SETUP_WORKERS + 1)
        ])
        gateway = OverlapGateway()
        summary = corpus.build_snippet_catalog(llm=gateway)
        assert summary.llm_extracted == 3 * SETUP_WORKERS
        assert not gateway.timed_out
        assert 1 < gateway.peak <= SETUP_WORKERS
        assert gateway.call_count == 3 * SETUP_WORKERS

    def test_every_item_runs_once_under_fast_switching(self):
        calls = []

        def record(item):
            calls.append(item)
            time.sleep(0.0001)  # a waiting call keeps every worker pulling
            if item % 7 == 0:
                raise ValueError(f"item {item}")
            return item * item

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcomes = Workers(record, list(range(3000))).join()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == list(range(3000))
        for item, (value, error) in enumerate(outcomes):
            if item % 7 == 0:
                assert value is None and str(error) == f"item {item}"
            else:
                assert (value, error) == (item * item, None)

    def test_workers_retire_when_calls_hold_the_gil(self):
        threads = []

        def compute(item):
            threads.append(threading.get_ident())
            return sum(range(2000 + item))

        outcomes = Workers(compute, list(range(600))).join()
        assert [value for value, _ in outcomes] == [sum(range(2000 + i)) for i in range(600)]
        assert len(set(threads[-100:])) == 1

    def test_every_worker_retires_at_floor_zero(self):
        calls = []

        def compute(item):
            calls.append(item)
            return sum(range(20_000))

        outcomes = Workers(compute, list(range(600)), floor=0).join()
        assert len(calls) < 600
        assert outcomes.count(None) == 600 - len(calls)

    def test_calls_that_skip_the_model_are_not_judged(self):
        """Instant calls whose value fails `judged` retire no worker.

        A derive-ahead worker that meets a stored key returns at once, which
        looks CPU-bound; were it judged, the hits up front would retire every
        worker before the waiting calls behind them.
        """
        def fn(item):
            if item < 200:
                return False  # a cache hit: no model call
            time.sleep(0.002)  # a model call: waits
            return True

        workers = Workers(fn, list(range(240)), floor=0, judged=bool)
        outcomes = workers.join()
        assert all(outcome is not None for outcome in outcomes)

    def test_stop_takes_no_new_item_and_the_block_waits_for_every_worker(self):
        taken = []
        first = threading.Event()

        def fn(item):
            taken.append(item)
            first.set()
            time.sleep(0.01)
            return True

        before = set(threading.enumerate())
        with Workers(fn, list(range(1000)), floor=0) as workers:
            assert first.wait(timeout=10)
        assert set(threading.enumerate()) == before
        assert len(taken) < 1000
        assert sum(outcome is not None for outcome in workers.outcomes) == len(taken)

    def test_interrupted_join_stops_the_workers(self):
        class Interrupted(Exception):
            pass

        def interrupted(signum, frame):
            raise Interrupted

        caller = threading.get_ident()
        taken = []
        first = threading.Lock()

        def fn(item):
            taken.append(item)
            if first.acquire(blocking=False):
                time.sleep(0.05)  # the caller waits in join by now
                signal.pthread_kill(caller, signal.SIGINT)
            time.sleep(0.01)
            return item

        before = set(threading.enumerate())
        handler = signal.signal(signal.SIGINT, interrupted)
        try:
            with pytest.raises(Interrupted):
                Workers(fn, list(range(400))).join()
        finally:
            signal.signal(signal.SIGINT, handler)
        # an interrupted Thread.join can mark a running thread stopped, so
        # wait for the workers to leave rather than join them
        deadline = time.monotonic() + 10
        while set(threading.enumerate()) != before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert set(threading.enumerate()) == before
        assert len(taken) < 400

    def test_block_raises_a_worker_bug_only_when_nothing_else_is_raised(self):
        called = threading.Event()

        def fn(item):
            called.set()
            raise RuntimeError("worker bug")

        with pytest.raises(RuntimeError, match="worker bug"):
            with Workers(fn, [1, 2, 3]):
                assert called.wait(timeout=10)
        called.clear()
        with pytest.raises(KeyError):
            with Workers(fn, [1, 2, 3]):
                assert called.wait(timeout=10)
                raise KeyError("the block's own error")

    def test_unexpected_error_propagates_from_build(self, tmp_path, embedder):
        bodies = [fenced(f"var d{i} = {i};") for i in range(6)]
        corpus = cataloged_corpus(tmp_path / "corpus", [*bodies, fenced("CRASH();")])
        for kind in IndexKind:
            with pytest.raises(RuntimeError, match="gateway bug"):
                VectorIndex.build(corpus, kind, llm=CrashingGateway(), embedder=embedder)

    def test_unexpected_error_propagates_from_catalog(self, tmp_path):
        corpus = cataloged_corpus(tmp_path / "corpus", [fenced("var e = 1;")])
        before = corpus.snippets()
        corpus.ingest_records([
            {"id": 2, "title": "t", "cwe-id": "CWE-94",
             "vulnerability_information": "CRASH reaches eval unchecked"},
        ])
        with pytest.raises(RuntimeError, match="gateway bug"):
            corpus.build_snippet_catalog(llm=CrashingGateway())
        assert ReportCorpus(corpus.directory).snippets() == before

    def test_catalog_raises_the_first_failing_report_in_report_order(self, tmp_path):
        changed = threading.Condition()
        later_failed = []

        class LateFirstFailure(MockGateway):
            """The earlier report fails only after the later one has failed."""

            def complete(self, prompt):
                if "later failure" in prompt:
                    with changed:
                        later_failed.append(True)
                        changed.notify_all()
                    raise DerivationError("later report failed")
                if "earlier failure" in prompt:
                    with changed:
                        changed.wait_for(lambda: later_failed, timeout=5)
                    raise DerivationError("earlier report failed")
                return super().complete(prompt)

        corpus = ReportCorpus(tmp_path / "corpus")
        # only the two reports without fenced code ask the model
        bodies = [fenced("ok a"), "earlier failure", fenced("ok b"), "later failure"]
        corpus.ingest_records([
            {"id": i, "title": "t", "cwe-id": "CWE-94", "vulnerability_information": body}
            for i, body in enumerate(bodies, 1)
        ])
        with pytest.raises(DerivationError, match="earlier report failed"):
            corpus.build_snippet_catalog(llm=LateFirstFailure())
        assert later_failed


class TestTextSearch:
    def test_wrong_embedder_refused(self, corpus):
        embedder = OfflineEmbedder()
        index, _ = VectorIndex.build(corpus, IndexKind.FUNCTIONALITY,
                                     llm=MockGateway(), embedder=embedder)
        with pytest.raises(EmbedderMismatchError):
            index.search("query text", 3, llm=MockGateway(),
                         embedder=OfflineEmbedder(seed=999))

    def test_abstraction_query_without_code(self, corpus, embedder):
        index, _ = VectorIndex.build(corpus, IndexKind.ABSTRACTION,
                                     llm=MockGateway(), embedder=embedder)

        class NoCode:
            def complete(self, prompt):
                return "Code-Pattern:[no code]"

        with pytest.raises(SearchError):
            index.search("nothing but prose", 3, llm=NoCode(), embedder=embedder)

    def test_correlate_maps_and_dedupes(self, corpus, embedder):
        index, _ = VectorIndex.build(corpus, IndexKind.FUNCTIONALITY,
                                     llm=MockGateway(), embedder=embedder)
        hits = index.search("find user rows by login name", 3,
                            llm=MockGateway(), embedder=embedder)
        pairs = correlate(hits, corpus)
        ids = [report.id for report, _ in pairs]
        assert len(ids) == len(set(ids))
        assert set(ids) <= {1, 2, 3}
        sims = [sim for _, sim in pairs]
        assert sims == sorted(sims, reverse=True)
        assert sims[0] == hits[0].similarity

    def test_correlate_rejects_unknown_sequence(self, corpus):
        entry = IndexEntry(sequence=999, kind=IndexKind.FUNCTIONALITY,
                           derived_text="t", embedding=np.ones(4) / 2.0)
        from lsast.index import SearchHit
        with pytest.raises(IndexIntegrityError):
            correlate([SearchHit(entry=entry, similarity=1.0)], corpus)
