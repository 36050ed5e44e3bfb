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

from dataclasses import dataclass, field

from .errors import SurfaceSyntaxError

KEYWORDS = {"coh", "def"}
SYMBOLS = ["->", ":=", "(", ")", "[", "]", ":", ",", "*"]

# Deepest nesting of applications a term may have.  The kernel's printers
# and checkers recurse about twice per level, and 300 levels still fit in
# the interpreter's default recursion limit; deeper input is a parse error
# instead of a RecursionError.
MAX_NESTING = 300


@dataclass(frozen=True)
class Span:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


DUMMY_SPAN = Span(0, 0)


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "symbol", "keyword", "eof"
    text: str
    span: Span


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, Span(line, col)))
            col += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("symbol", sym, Span(line, col)))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise SurfaceSyntaxError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", Span(line, col)))
    return tokens


# ---------------------------------------------------------------------------
# Surface AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SrcTerm:
    pass


@dataclass(frozen=True)
class SrcVar(SrcTerm):
    name: str
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class SrcApp(SrcTerm):
    name: str
    args: tuple[SrcTerm, ...]
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class SrcType:
    pass


@dataclass(frozen=True)
class SrcStar(SrcType):
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class SrcArrow(SrcType):
    src: SrcTerm
    tgt: SrcTerm
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class SrcDecl:
    kind: str  # "coh" | "def"
    name: str
    telescope: tuple[tuple[str, SrcType], ...]
    ty: SrcType
    body: SrcTerm | None
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class SourceFile:
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

