"""The regular-expression tokeniser against the character walk it
replaced (helpers.reference_tokenize): the same tokens, spans and
unexpected-character errors on every source text of the tests and the
benchmark and on generated strings."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from cattsa.errors import SurfaceSyntaxError
from cattsa.parser import tokenize
from helpers import bench_catt_texts, reference_tokenize, string_constants


def _lex(tokenizer, text: str):
    """The tokens of text as (kind, text, line, col), or the error."""
    try:
        return [(t.kind, t.text, t.span.line, t.span.col) for t in tokenizer(text)]
    except SurfaceSyntaxError as exc:
        return (str(exc), exc.line, exc.col)


def test_same_tokens_on_every_test_and_bench_text():
    texts = string_constants() + bench_catt_texts(101)
    assert len(texts) > 1000
    errors = 0
    for text in texts:
        expected = _lex(reference_tokenize, text)
        assert _lex(tokenize, text) == expected, text
        errors += isinstance(expected, tuple)
    assert 0 < errors < len(texts)  # both outcomes are compared


# Letters, digits and _ of several scripts, the word characters that are
# no letters (superscript two and one half are numeric, not alphabetic, so
# a word may contain them but not start with one), every kind of blank the
# tokeniser meets (\x1c and \x85 are whitespace but no newline), comments
# and the pieces of every symbol.
PIECES = list("ab_'xyé一λ0٣²½ \t\n\r\x1c\x85#-:>=()[],*$.") + ["coh", "def", "->", ":=", "# c\n"]


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.lists(st.sampled_from(PIECES), max_size=30).map("".join))
def test_same_tokens_on_generated_strings(text):
    assert _lex(tokenize, text) == _lex(reference_tokenize, text)


def test_spans_and_end_of_input():
    text = "coh a\t(x : *)\r : x -> x # note\n\x1cdef  # tail"
    assert _lex(tokenize, text) == _lex(reference_tokenize, text)
    eof = tokenize(text)[-1]
    assert (eof.kind, eof.span.line, eof.span.col) == ("eof", 2, 7)  # a comment takes no column
    assert _lex(tokenize, "x\n  ²y") == ("2:3: unexpected character '²'", 2, 3)
    assert _lex(tokenize, "x a²") == _lex(reference_tokenize, "x a²")
