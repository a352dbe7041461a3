"""Line-number annotation of target code.

The model receives code with every line prefixed by "line <n>: " so that
scanner findings (which reference line numbers) stay interpretable. The
transformation must be reversible: stripping the prefixes reproduces the
original source after newline normalization.

Normalization: CRLF and lone CR become LF, then ALL trailing newlines are
removed. Stripping every trailing newline (rather than one) keeps
normalization idempotent, which makes annotate/strip an exact identity on
normalized text.
"""

import re
from dataclasses import dataclass

from .errors import AnnotationError

DEFAULT_LINE_BUDGET = 2000

_PREFIX_RE = re.compile(r"^line (\d+): ")


@dataclass
class AnnotatedSource:
    """Line-annotated rendition of one source file.

    Attributes:
        text: the annotated text, no trailing newline.
        line_count: number of annotated lines (0 for empty input).
    """

    text: str
    line_count: int


def normalize_newlines(source: str) -> str:
    """Unify line endings to LF and drop all trailing newlines."""
    unified = re.sub(r"\r\n?", "\n", source)
    return unified.rstrip("\n")


def annotate_lines(source: str, line_budget: int = DEFAULT_LINE_BUDGET) -> AnnotatedSource:
    """Prefix every line of `source` with "line <n>: ", counting from 1.

    Blank lines render as "line <n>: " with nothing after the space. Tabs and
    other in-line whitespace are preserved untouched; only the prefix is added.

    Args:
        source: target code, any line-ending convention.
        line_budget: maximum accepted line count; larger files are rejected
            (chunking is out of scope).

    Raises:
        AnnotationError: when the file exceeds the line budget.
    """
    normalized = normalize_newlines(source)
    if not normalized:
        return AnnotatedSource(text="", line_count=0)
    lines = normalized.split("\n")
    if len(lines) > line_budget:
        raise AnnotationError(
            f"source has {len(lines)} lines, exceeding the line budget of {line_budget}"
        )
    text = "\n".join(f"line {i}: {line}" for i, line in enumerate(lines, 1))
    return AnnotatedSource(text=text, line_count=len(lines))


def strip_annotations(annotated: str) -> str:
    """Inverse of annotate_lines: recover the original (normalized) source.

    Raises:
        AnnotationError: when a line lacks the "line <n>: " prefix or the
            numbering is not 1..n in order; the message names the line index.
    """
    if annotated == "":
        return ""
    recovered = []
    for idx, line in enumerate(annotated.split("\n"), 1):
        match = _PREFIX_RE.match(line)
        if match is None:
            raise AnnotationError(f"line {idx}: missing annotation prefix")
        if int(match.group(1)) != idx:
            raise AnnotationError(
                f"line {idx}: expected prefix number {idx}, found {match.group(1)}"
            )
        recovered.append(line[match.end():])
    return "\n".join(recovered)
