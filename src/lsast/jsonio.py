"""The one on-disk format path: canonical JSON, atomic replace, JSONL I/O.

Every file lsast writes whole (snippet catalog, vector indexes, scan
records) goes through `replacing`, so an interrupted write leaves the
previous file intact and no partial file behind. Every append-only JSONL
file (the report store, labels) grows through `append_jsonl`. Every JSONL
file it reads goes through `read_jsonl`, so a bad line is reported as
`path:line`.
"""

import json
from contextlib import contextmanager
from pathlib import Path


def canonical_json(data, indent: int | None = None) -> str:
    """Sorted keys, non-ASCII kept as is: the form every digest covers."""
    return json.dumps(data, sort_keys=True, ensure_ascii=False, indent=indent)


@contextmanager
def replacing(path, error):
    """Yield a temp path beside `path`; it replaces `path` only on success.

    The parent directory is created first. The temp file is removed however
    the block ends.

    Raises:
        error: the directory, the temp file or the replace failed.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            yield tmp
            tmp.replace(path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise error(f"cannot write {path}: {exc}") from None


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
