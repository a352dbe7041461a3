import random
import re
import string

import pytest

from lsast.annotate import DEFAULT_LINE_BUDGET, annotate_lines, normalize_newlines
from lsast.errors import AnnotationError

_PREFIX_RE = re.compile(r"^line (\d+): ")


def strip_annotations(annotated: str) -> str:
    """Inverse of annotate_lines: recover the original (normalized) source.

    The round-trip tests use it to show that annotation loses nothing.

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


def test_numbers_every_line_from_one():
    annotated = annotate_lines("a\nb\nc")
    assert annotated.text == "line 1: a\nline 2: b\nline 3: c"
    assert annotated.line_count == 3


def test_blank_lines_keep_their_number():
    annotated = annotate_lines("first\n\nthird")
    assert annotated.text == "line 1: first\nline 2: \nline 3: third"


def test_tabs_and_interior_whitespace_preserved():
    annotated = annotate_lines("\tif (x) {\n\t\treturn 1\n")
    assert annotated.text == "line 1: \tif (x) {\nline 2: \t\treturn 1"


def test_crlf_and_cr_normalize_to_lf():
    assert normalize_newlines("a\r\nb\rc\n") == "a\nb\nc"
    annotated = annotate_lines("a\r\nb\rc")
    assert annotated.text == "line 1: a\nline 2: b\nline 3: c"


def test_trailing_newlines_do_not_create_lines():
    assert annotate_lines("x\n").line_count == 1
    assert annotate_lines("x\n\n\n").line_count == 1


def test_empty_source_annotates_to_empty():
    annotated = annotate_lines("")
    assert annotated.text == ""
    assert annotated.line_count == 0


def test_line_budget_enforced():
    ok = "\n".join("x" for _ in range(DEFAULT_LINE_BUDGET))
    assert annotate_lines(ok).line_count == DEFAULT_LINE_BUDGET
    too_big = ok + "\nx"
    with pytest.raises(AnnotationError):
        annotate_lines(too_big)


def test_custom_budget():
    with pytest.raises(AnnotationError):
        annotate_lines("a\nb\nc", line_budget=2)


def test_strip_round_trip_simple():
    source = "alpha\n\tbeta\n\ngamma"
    assert strip_annotations(annotate_lines(source).text) == source


def test_strip_rejects_missing_prefix():
    with pytest.raises(AnnotationError) as exc:
        strip_annotations("line 1: ok\nno prefix here")
    assert "2" in str(exc.value)


def test_strip_rejects_wrong_numbering():
    with pytest.raises(AnnotationError):
        strip_annotations("line 1: a\nline 3: b")


def test_strip_of_empty_is_empty():
    assert strip_annotations("") == ""


def test_round_trip_on_code_that_mentions_line_prefixes():
    # Content lines that themselves start with "line N: " must survive.
    source = "line 9: fake\nreal code"
    assert strip_annotations(annotate_lines(source).text) == source


def test_round_trip_random_texts():
    rng = random.Random(4021)
    alphabet = string.ascii_letters + string.digits + " \t{}()[]'\";:.,+-*/=<>_"
    for _ in range(500):
        lines = [
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
            for _ in range(rng.randrange(1, 30))
        ]
        source = "\n".join(lines)
        normalized = normalize_newlines(source)
        assert strip_annotations(annotate_lines(source).text) == normalized
