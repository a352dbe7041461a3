"""The one on-disk format path: canonical JSON, atomic replace, JSONL I/O.

Every file lsast writes whole (snippet catalog, vector indexes, scan
records) goes through `replacing`, so an interrupted write leaves the
previous file intact and no partial file behind, unless the writing
process is killed: the snippet catalog and the index files remove such temp
files before each write (`remove_stale_temps`). Every append-only JSONL file
(the report store, labels) grows through `append_jsonl`. Every JSONL file it
reads goes through `read_jsonl`, so a bad line is reported as `path:line`.
"""

import glob
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path


# json.dumps builds a new encoder on every call that passes options; the
# indent-free form, the one every digest and record line uses, shares this one
_CANONICAL = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


def canonical_json(data, indent: int | None = None) -> str:
    """Sorted keys, non-ASCII kept as is: the form every digest covers."""
    if indent is None:
        return _CANONICAL.encode(data)
    return json.dumps(data, sort_keys=True, ensure_ascii=False, indent=indent)


@contextmanager
def replacing(path, error):
    """Yield a temp path beside `path`; it replaces `path` only on success.

    The temp name carries the process and thread id, so two writers of one
    path never share a temp file; it ends in ".tmp", which no reader's
    pattern matches. The parent directory is created first. The temp file is
    removed however the block ends.

    Raises:
        error: the directory, the temp file or the replace failed.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            yield tmp
            tmp.replace(path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise error(f"cannot write {path}: {exc}") from None


def _alive(pid: int) -> bool:
    """False only when no process has `pid`; a pid that cannot be asked counts as alive."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (OSError, OverflowError):
        pass  # a process of another user, or no valid pid
    return True


def remove_stale_temps(path):
    """Remove the temp files of `path` that killed writers left behind.

    A temp file of `replacing` is named `<name>.<pid>-<tid>.tmp`, and it
    outlives its block only when the writing process died inside it. A file
    whose pid is this process's, or a live process's, is kept, since its
    writer may still be writing. Only POSIX can ask whether a pid is alive,
    so elsewhere nothing is removed. A file that cannot be removed is left.
    """
    if os.name != "posix":
        return
    path = Path(path)
    prefix = f"{path.name}."
    for tmp in path.parent.glob(f"{glob.escape(prefix)}*-*.tmp"):
        pid, _, tid = tmp.name[len(prefix):-len(".tmp")].partition("-")
        if not (pid.isdigit() and tid.isdigit()) or int(pid) == os.getpid() or _alive(int(pid)):
            continue
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass


def append_jsonl(path, records, error):
    """Append one canonical JSON line per record, creating the parent directory.

    Raises:
        error: the directory or the file cannot be written.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(canonical_json(record) + "\n")
    except OSError as exc:
        raise error(f"cannot write {path}: {exc}") from None


def read_jsonl(path, error):
    """Stream (line number, record) over the non-blank lines of `path`.

    Raises:
        error: the file is unreadable or a line is not JSON; the message
            names `path:line`.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise error(f"{path}:{line_no}: not valid JSON: {exc}") from None
                yield line_no, record
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from None
