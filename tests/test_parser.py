"""Surface syntax: tokenizing, parsing, printing, spans."""

from __future__ import annotations

import pytest

from cattsa.errors import SurfaceSyntaxError
from cattsa.parser import (
    SourceFile,
    SrcApp,
    SrcArrow,
    SrcStar,
    SrcVar,
    parse,
    parse_telescope,
)
from helpers import print_file

COMP = "coh comp (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) : x -> z"


def test_parse_binary_composite_declaration():
    f = parse(COMP)
    assert len(f.decls) == 1
    d = f.decls[0]
    assert d.kind == "coh" and d.name == "comp"
    assert [v for v, _ in d.telescope] == ["x", "y", "f", "z", "g"]
    assert d.telescope[0][1] == SrcStar()
    assert d.telescope[2][1] == SrcArrow(SrcVar("x"), SrcVar("y"))
    assert d.ty == SrcArrow(SrcVar("x"), SrcVar("z"))
    assert d.body is None


def test_parse_empty_file():
    assert parse("") == SourceFile(())
    assert parse("# only a comment\n") == SourceFile(())


def test_parse_def_with_application():
    text = COMP + "\ndef t (a : *) (b : *) (p : a -> b) : a -> b := comp [p, p]"
    d = parse(text).decls[1]
    assert d.kind == "def"
    assert d.body == SrcApp("comp", (SrcVar("p"), SrcVar("p")))


def test_parse_nested_application():
    text = "def t (a : *) : a -> a := comp [a, comp [b, c]]"
    d = parse(text).decls[0]
    assert d.body == SrcApp(
        "comp", (SrcVar("a"), SrcApp("comp", (SrcVar("b"), SrcVar("c"))))
    )


def test_unicode_identifiers():
    f = parse("coh w (α : *) : α -> α")
    assert f.decls[0].telescope[0][0] == "α"


def test_parse_error_carries_position():
    with pytest.raises(SurfaceSyntaxError) as exc:
        parse("coh broken (x : *) : x ->")
    assert exc.value.line == 1
    assert exc.value.col >= 25


def test_unexpected_character():
    with pytest.raises(SurfaceSyntaxError):
        parse("coh bad (x : *) : x -> y $")


def test_spans_recorded():
    f = parse("coh comp (x : *) (y : *) (f : x -> y) : x -> y")
    d = f.decls[0]
    assert d.span.line == 1 and d.span.col == 1


def test_print_parse_round_trip():
    text = (
        COMP
        + "\ncoh vert (x : *) (y : *) (f : x -> y) (g : x -> y) (m : f -> g)"
        + " (h : x -> y) (n : g -> h) : f -> h"
        + "\ndef t (a : *) (b : *) (p : a -> b) : a -> b := comp [p, p]"
    )
    f = parse(text)
    assert parse(print_file(f)) == f


def test_parse_telescope_literal():
    tele = parse_telescope("(x : *) (y : *) (f : x -> y)")
    assert [v for v, _ in tele] == ["x", "y", "f"]
    with pytest.raises(SurfaceSyntaxError):
        parse_telescope("(x : *) junk")
