import json
import math
import os
import subprocess
import sys
import threading

import pytest

from lsast.errors import CorpusError
from lsast.gateway import MockGateway
from lsast.index import IndexKind, VectorIndex
from lsast.jsonio import canonical_json, remove_stale_temps, replacing

PAYLOADS = {
    "nested": {"b": [1, {"z": [], "a": {}}], "a": {"y": [True, None], "x": "v"}},
    "non_ascii": {"título": "naïve café ☃ 漢字 \U0001f600", "ключ": ["é", "\u2028"]},
    "floats": {"f": [0.1, 1e-07, 1e300, -0.0, 3.0, 2.5e-320, 123456789.125]},
    "nan_inf": [math.nan, math.inf, -math.inf, {"n": math.nan}],
    "bool_none": {"t": True, "f": False, "n": None, "list": [None, False, 0, ""]},
    "bare_string": "only a string",
    "bare_float": 0.30000000000000004,
    "bare_nan": math.nan,
    "bare_none": None,
    "escapes": {"q": "\"quoted\"\n\t\\ and \u0000 control"},
}


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_canonical_json_matches_json_dumps(name):
    payload = PAYLOADS[name]
    assert canonical_json(payload) == json.dumps(payload, sort_keys=True, ensure_ascii=False)
    assert canonical_json(payload, indent=2) == json.dumps(
        payload, sort_keys=True, ensure_ascii=False, indent=2)


def test_canonical_json_is_safe_across_threads():
    payloads = list(PAYLOADS.values()) * 50
    want = [json.dumps(p, sort_keys=True, ensure_ascii=False) for p in payloads]
    got = {}

    def dump(slot):
        got[slot] = [canonical_json(p) for p in payloads]

    threads = [threading.Thread(target=dump, args=(slot,)) for slot in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert got == {slot: want for slot in range(4)}


def finished_pid() -> int:
    """The pid of a child process that has exited and been reaped."""
    child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                           capture_output=True, text=True, check=True, timeout=60)
    return int(child.stdout)


def test_concurrent_writers_of_one_path_get_distinct_temp_files(tmp_path):
    path = tmp_path / "catalog.jsonl"
    both_open = threading.Barrier(2, timeout=10)
    temps = {}

    def write(name):
        with replacing(path, CorpusError) as tmp:
            temps[name] = tmp
            tmp.write_text(name * 1000, encoding="utf-8")
            both_open.wait()

    writers = [threading.Thread(target=write, args=(name,)) for name in "ab"]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=10)
        assert not writer.is_alive()
    assert temps["a"] != temps["b"]
    assert path.read_text(encoding="utf-8") in ("a" * 1000, "b" * 1000)
    assert list(tmp_path.iterdir()) == [path]


def test_stale_temp_files_of_dead_writers_are_removed(tmp_path):
    path = tmp_path / "functionality.jsonl"
    path.write_text("kept\n", encoding="utf-8")
    dead = finished_pid()
    stale = tmp_path / f"functionality.jsonl.{dead}-17.tmp"
    kept = [
        tmp_path / f"functionality.jsonl.{os.getpid()}-17.tmp",  # this process's
        tmp_path / f"functionality.jsonl.{os.getppid()}-17.tmp",  # a live process's
        tmp_path / f"abstraction.jsonl.{dead}-17.tmp",  # another file's
        tmp_path / f"functionality.jsonl.x{dead}-17.tmp",  # not a pid
    ]
    for tmp in [stale, *kept]:
        tmp.write_text("partial", encoding="utf-8")
    remove_stale_temps(path)
    assert not stale.exists()
    assert all(tmp.exists() for tmp in kept)
    assert path.read_text(encoding="utf-8") == "kept\n"


def test_catalog_and_index_writes_remove_stale_temp_files(corpus, embedder, tmp_path):
    index, _ = VectorIndex.build(corpus, IndexKind.FUNCTIONALITY, llm=MockGateway(),
                                 embedder=embedder)
    path = tmp_path / "indexes" / "functionality.jsonl"
    path.parent.mkdir()
    dead = finished_pid()
    stale = [p.with_name(f"{p.name}.{dead}-17.tmp") for p in (path, corpus._snippets_path)]
    for tmp in stale:
        tmp.write_text("partial", encoding="utf-8")
    index.save(path)
    corpus.build_snippet_catalog(llm=MockGateway())
    assert not any(tmp.exists() for tmp in stale)
