"""Parser for the surface language.

A source file is a sequence of declarations::

    coh <name> (x : *) (y : *) (f : x -> y) ... : <type>
    def <name> <telescope> : <type> := <term>

Types are ``*`` or ``term -> term`` (the base type of an arrow is
reconstructed during elaboration); terms are variables or applications
``name [t1, ..., tn]`` of previously declared names.  ``#`` starts a line
comment.  Every node carries a source span for diagnostics.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .errors import SurfaceSyntaxError
from .syntax import Frozen

KEYWORDS = frozenset({"coh", "def"})

# Deepest nesting of applications a term may have.  The kernel's printers
# and checkers recurse about twice per level, and 300 levels still fit in
# the interpreter's default recursion limit; deeper input is a parse error
# instead of a RecursionError.
MAX_NESTING = 300


class Span(NamedTuple):
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


DUMMY_SPAN = Span(0, 0)


class Token(NamedTuple):
    kind: str  # "ident", "symbol", "keyword", "eof"
    text: str
    span: Span


# Blanks, then (1) a newline, a comment, (2) a word, (3) a symbol or (4) an
# error.  A word starts with a letter or _ (checked: not every \w is one).
_TOKEN = re.compile(r"[^\S\n]*(?:(\n)|#[^\n]*|([^\W\d][\w']*)|(->|:=|[()\[\]:,*])|(\S))")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, start = 1, 0  # start: where the current line begins
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 1:
            line, start = line + 1, m.end()
        elif group is not None:  # not a comment
            word, col = m[group], m.start(group) - start + 1
            if group == 4 or group == 2 and not (word[0].isalpha() or word[0] == "_"):
                raise SurfaceSyntaxError(f"unexpected character {word[0]!r}", line, col)
            kind = "symbol" if group == 3 else "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, Span(line, col)))
    # a comment ends the line and its text takes no column
    tokens.append(Token("eof", "", Span(line, len(text[start:].partition("#")[0]) + 1)))
    return tokens


# ---------------------------------------------------------------------------
# Surface AST
# ---------------------------------------------------------------------------


class _Node(Frozen):
    """A surface node: == and hash read every field but the span."""

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields if f != "span")

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


class SrcTerm(_Node):
    pass


class SrcVar(SrcTerm):
    _fields = ("name", "span")

    def __init__(self, name: str, span: Span = DUMMY_SPAN) -> None:
        self.__dict__.update(name=name, span=span)


class SrcApp(SrcTerm):
    _fields = ("name", "args", "span")

    def __init__(self, name: str, args: tuple[SrcTerm, ...], span: Span = DUMMY_SPAN) -> None:
        self.__dict__.update(name=name, args=args, span=span)


class SrcType(_Node):
    pass


class SrcStar(SrcType):
    _fields = ("span",)

    def __init__(self, span: Span = DUMMY_SPAN) -> None:
        self.__dict__.update(span=span)


class SrcArrow(SrcType):
    _fields = ("src", "tgt", "span")

    def __init__(self, src: SrcTerm, tgt: SrcTerm, span: Span = DUMMY_SPAN) -> None:
        self.__dict__.update(src=src, tgt=tgt, span=span)


class SrcDecl(_Node):
    """A declaration; kind is "coh" or "def", and body is None for coh."""

    _fields = ("kind", "name", "telescope", "ty", "body", "span")

    def __init__(self, kind: str, name: str, telescope: tuple[tuple[str, SrcType], ...],
                 ty: SrcType, body: Optional[SrcTerm], span: Span = DUMMY_SPAN) -> None:
        self.__dict__.update(zip(self._fields, (kind, name, telescope, ty, body, span)))


class SourceFile(NamedTuple):
    decls: tuple[SrcDecl, ...]


# ---------------------------------------------------------------------------
# Recursive descent
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # applications open around the current term

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> SurfaceSyntaxError:
        tok = self.peek()
        return SurfaceSyntaxError(message, tok.span.line, tok.span.col)

    def expect_symbol(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind != "symbol" or tok.text != sym:
            raise self.fail(f"expected '{sym}', got '{tok.text or 'end of input'}'")
        return self.next()

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(f"expected {what}, got '{tok.text or 'end of input'}'")
        return self.next()

    def at_symbol(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "symbol" and tok.text == sym

    def file(self) -> SourceFile:
        decls = []
        while self.peek().kind != "eof":
            decls.append(self.decl())
        return SourceFile(tuple(decls))

    def decl(self) -> SrcDecl:
        tok = self.peek()
        if tok.kind != "keyword":
            raise self.fail("expected 'coh' or 'def'")
        self.next()
        name = self.expect_ident("a declaration name")
        telescope = self.telescope()
        self.expect_symbol(":")
        ty = self.type_()
        body = None
        if tok.text == "def":
            self.expect_symbol(":=")
            body = self.term()
        return SrcDecl(tok.text, name.text, telescope, ty, body, tok.span)

    def telescope(self) -> tuple[tuple[str, SrcType], ...]:
        out = []
        while self.at_symbol("("):
            self.next()
            name = self.expect_ident("a variable name")
            self.expect_symbol(":")
            ty = self.type_()
            self.expect_symbol(")")
            out.append((name.text, ty))
        return tuple(out)

    def type_(self) -> SrcType:
        if self.at_symbol("*"):
            tok = self.next()
            return SrcStar(tok.span)
        src = self.term()
        self.expect_symbol("->")
        tgt = self.term()
        return SrcArrow(src, tgt, src.span)

    def term(self) -> SrcTerm:
        tok = self.expect_ident("a term")
        if self.at_symbol("["):
            if self.depth == MAX_NESTING:
                raise self.fail(f"terms may nest at most {MAX_NESTING} applications deep")
            self.depth += 1
            self.next()
            args: list[SrcTerm] = []
            if not self.at_symbol("]"):
                args.append(self.term())
                while self.at_symbol(","):
                    self.next()
                    args.append(self.term())
            self.expect_symbol("]")
            self.depth -= 1
            return SrcApp(tok.text, tuple(args), tok.span)
        return SrcVar(tok.text, tok.span)


def parse(text: str) -> SourceFile:
    return _Parser(tokenize(text)).file()


def parse_telescope(text: str) -> tuple[tuple[str, SrcType], ...]:
    """Parse a bare telescope literal such as "(x : *) (y : *) (f : x -> y)"."""
    p = _Parser(tokenize(text))
    tele = p.telescope()
    if p.peek().kind != "eof":
        raise p.fail("trailing input after telescope")
    return tele

