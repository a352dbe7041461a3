import threading

from lsast.errors import CorpusError
from lsast.jsonio import replacing


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
