"""The value classes keep their contracts: repr text, == and hash,
pickling with a cold memo, immutability and keyword construction.

CLI output depends on them: set and dict order follow hash, and the
printed messages follow repr where a value is shown.  A kernel value
equals no tuple, whereas the records marked TUPLE_RECORDS may be tuples
and are not compared with tuples here.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from cattsa.cli import Decl
from cattsa.errors import UnknownVariable
from cattsa.insertion import InsertionProblem, insert_ctx
from cattsa.parser import (
    DUMMY_SPAN,
    SourceFile,
    Span,
    SrcApp,
    SrcArrow,
    SrcDecl,
    SrcStar,
    SrcTerm,
    SrcType,
    SrcVar,
    Token,
)
from cattsa.pasting import shape
from cattsa.syntax import (
    STAR,
    Arr,
    Coh,
    Context,
    Star,
    Substitution,
    Term,
    Type,
    Var,
    _alpha_key,
    identity_sub,
)
from cattsa.trees import BataninTree
from cattsa.typecheck import Mode, TypingReport

X, Y = Var("x"), Var("y")
XY = Arr(X, STAR, Y)
CTX = Context((("x", STAR), ("y", STAR), ("f", XY)))
SUB = identity_sub(CTX)
COH = Coh(CTX, XY, SUB)
TREE = BataninTree(("x", "y"), (BataninTree(("f",), ()),))
SP = Span(2, 5)
PROBLEM = InsertionProblem(CTX, "f", CTX, XY)

# class -> (fields in declaration order, the fields == and hash read)
FIELDS = {
    Var: ("name",),
    Star: (),
    Arr: ("src", "base", "tgt"),
    Context: ("entries",),
    Substitution: ("entries",),
    Coh: ("ctx", "ty", "sub"),
    BataninTree: ("labels", "branches"),
    Span: ("line", "col"),
    Token: ("kind", "text", "span"),
    SrcTerm: (),
    SrcVar: ("name", "span"),
    SrcApp: ("name", "args", "span"),
    SrcType: (),
    SrcStar: ("span",),
    SrcArrow: ("src", "tgt", "span"),
    SrcDecl: ("kind", "name", "telescope", "ty", "body", "span"),
    SourceFile: ("decls",),
}
SPANLESS = (SrcVar, SrcApp, SrcStar, SrcArrow, SrcDecl)
TUPLE_RECORDS = (Span, Token, SourceFile)

# one value of each class, an equal one built apart, a different one,
# and its exact repr
CASES = [
    (X, Var("x"), Y, "Var(name='x')"),
    (STAR, Star(), XY, "Star()"),
    (XY, Arr(Var("x"), Star(), Var("y")), Arr(Y, STAR, X),
     "Arr(src=Var(name='x'), base=Star(), tgt=Var(name='y'))"),
    (CTX, Context(CTX.entries), Context(CTX.entries[:2]),
     "Context(entries=(('x', Star()), ('y', Star())"
     ", ('f', Arr(src=Var(name='x'), base=Star(), tgt=Var(name='y')))))"),
    (SUB, Substitution(SUB.entries), Substitution((("x", Y),)),
     "Substitution(entries=(('x', Var(name='x')), ('y', Var(name='y'))"
     ", ('f', Var(name='f'))))"),
    (COH, Coh(Context(CTX.entries), XY, SUB), Coh(CTX, XY, SUB.replace(2, X)),
     f"Coh(ctx={CTX!r}, ty={XY!r}, sub={SUB!r})"),
    (TREE, BataninTree(("x", "y"), (BataninTree(("f",), ()),)), BataninTree(("x",), ()),
     "BataninTree(labels=('x', 'y'), branches=(BataninTree(labels=('f',), branches=()),))"),
    (SP, Span(2, 5), Span(5, 2), "Span(line=2, col=5)"),
    (Token("ident", "f", SP), Token("ident", "f", Span(2, 5)), Token("ident", "f", DUMMY_SPAN),
     "Token(kind='ident', text='f', span=Span(line=2, col=5))"),
    (SrcTerm(), SrcTerm(), SrcVar("x"), "SrcTerm()"),
    (SrcVar("x", SP), SrcVar("x"), SrcVar("y", SP), "SrcVar(name='x', span=Span(line=2, col=5))"),
    (SrcApp("id", (SrcVar("x"),), SP), SrcApp("id", (SrcVar("x", SP),)), SrcApp("id", (), SP),
     "SrcApp(name='id', args=(SrcVar(name='x', span=Span(line=0, col=0)),)"
     ", span=Span(line=2, col=5))"),
    (SrcType(), SrcType(), SrcStar(), "SrcType()"),
    (SrcStar(SP), SrcStar(), SrcArrow(SrcVar("x"), SrcVar("x")), "SrcStar(span=Span(line=2, col=5))"),
    (SrcArrow(SrcVar("x"), SrcVar("y"), SP), SrcArrow(SrcVar("x", SP), SrcVar("y")),
     SrcArrow(SrcVar("y"), SrcVar("x"), SP),
     "SrcArrow(src=SrcVar(name='x', span=Span(line=0, col=0)), tgt=SrcVar(name='y'"
     ", span=Span(line=0, col=0)), span=Span(line=2, col=5))"),
    (SrcDecl("coh", "c", (("x", SrcStar()),), SrcStar(), None, SP),
     SrcDecl("coh", "c", (("x", SrcStar(SP)),), SrcStar(), None),
     SrcDecl("def", "c", (("x", SrcStar()),), SrcStar(), SrcVar("x"), SP),
     "SrcDecl(kind='coh', name='c', telescope=(('x', SrcStar(span=Span(line=0, col=0))),)"
     ", ty=SrcStar(span=Span(line=0, col=0)), body=None, span=Span(line=2, col=5))"),
    (SourceFile(()), SourceFile(()), SourceFile((SrcDecl("coh", "c", (), SrcStar(), None),)),
     "SourceFile(decls=())"),
]


def _compared(v) -> tuple:
    names = FIELDS[type(v)]
    if isinstance(v, SPANLESS):
        names = names[:-1]
    return tuple(getattr(v, name) for name in names)


@pytest.mark.parametrize("a, same, other, text", CASES, ids=lambda v: type(v).__name__)
def test_repr_eq_and_hash(a, same, other, text):
    assert repr(a) == text
    assert a == same and not a != same and a is not same
    assert a != other and not a == other
    if type(a) is not Coh:  # Coh hashes up to the names it binds
        assert hash(a) == hash(same) == hash(_compared(a))
    if not isinstance(a, TUPLE_RECORDS):
        assert a != _compared(a) and a != tuple(getattr(a, f) for f in FIELDS[type(a)])


def test_equality_across_classes():
    assert Var("x") != ("x",) and ("x",) != Var("x")
    assert Star() != () and SrcStar() != (DUMMY_SPAN,)
    assert Var("x") != SrcVar("x") and Star() != SrcStar()
    assert SrcTerm() != SrcType() and SrcVar("x") != SrcApp("x", ())
    assert Context() != Substitution() and Context(CTX.entries) != CTX.entries
    assert TREE != (TREE.labels, TREE.branches)
    # fields left out of == and hash: the span of a surface node
    assert SrcVar("x", SP) == SrcVar("x", Span(9, 9))
    assert hash(SrcVar("x", SP)) == hash(SrcVar("x", Span(9, 9))) == hash(("x",))


def test_coherences_compare_and_hash_up_to_bound_names():
    renamed = Context((("a", STAR), ("b", STAR), ("g", Arr(Var("a"), STAR, Var("b")))))
    other = Coh(renamed, Arr(Var("a"), STAR, Var("b")), Substitution(
        (("a", X), ("b", Y), ("g", Var("f")))))
    assert other == COH and hash(other) == hash(COH)
    assert hash(COH) == hash((COH.sub.values, _alpha_key(COH)))
    assert COH != (CTX, XY, SUB)


def _warm(v) -> None:
    if isinstance(v, Context):
        shape(v)  # parses the context and records its tree when it is pasting
    if isinstance(v, Coh):
        hash(v)
        shape(v.ctx)


@pytest.mark.parametrize("a, same, other, text", CASES, ids=lambda v: type(v).__name__)
def test_pickle_and_copy_round_trip_with_a_cold_memo(a, same, other, text):
    _warm(a)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(a, protocol))
        assert type(loaded) is type(a) and loaded == a and repr(loaded) == text
        if isinstance(a, (Context, Substitution, Coh)):
            memo = set(vars(loaded)) - set(FIELDS[type(a)])
            assert memo <= {"_table", "_names"}  # the name index, built on load
    for copied in (copy.copy(a), copy.deepcopy(a)):
        assert type(copied) is type(a) and copied == a and repr(copied) == text


@pytest.mark.parametrize("a, same, other, text", CASES, ids=lambda v: type(v).__name__)
def test_values_are_immutable(a, same, other, text):
    for name in FIELDS[type(a)] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    for name in FIELDS[type(a)]:
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == text


@pytest.mark.parametrize("a, same, other, text", CASES, ids=lambda v: type(v).__name__)
def test_keyword_construction(a, same, other, text):
    kwargs = {name: getattr(a, name) for name in FIELDS[type(a)]}
    assert repr(type(a)(**kwargs)) == text


def test_defaults():
    assert Context() == Context(()) and len(Substitution()) == 0
    assert SrcVar("x").span == SrcStar().span == SrcArrow(X, Y).span == DUMMY_SPAN
    assert SrcApp("f", ()).span == SrcDecl("coh", "c", (), SrcStar(), None).span == DUMMY_SPAN
    assert isinstance(X, Term) and isinstance(COH, Term)
    assert isinstance(STAR, Type) and isinstance(XY, Type)
    assert isinstance(SrcVar("x"), SrcTerm) and isinstance(SrcApp("f", ()), SrcTerm)
    assert isinstance(SrcStar(), SrcType) and isinstance(SrcArrow(X, Y), SrcType)


def test_kernel_records():
    result = insert_ctx(PROBLEM)
    assert result.problem == PROBLEM and repr(result.problem) == (
        f"InsertionProblem(outer={CTX!r}, var='f', inner={CTX!r}, inner_type={XY!r})"
    )
    assert repr(result).startswith(f"InsertionResult(problem={PROBLEM!r}, inserted=Context(")
    assert (result.inserted, result.internal, result.external) == tuple(
        getattr(result, f) for f in ("inserted", "internal", "external")
    )
    assert pickle.loads(pickle.dumps(result)) == result
    assert hash(PROBLEM) == hash((CTX, "f", CTX, XY))
    s = shape(CTX)
    assert repr(s) == (
        "Shape(tree=BataninTree(labels=('x', 'y'), branches=(BataninTree(labels=('f',)"
        ", branches=()),)), unbiased=Arr(src=Var(name='x'), base=Star()"
        ", tgt=Var(name='y')))"
    )
    assert s == shape(Context(CTX.entries)) and hash(s) == hash((s.tree, s.unbiased))
    with pytest.raises(AttributeError):
        s.tree = None


def test_front_end_records():
    decl = Decl("coh", "c", CTX, XY, None)
    assert repr(decl) == f"Decl(kind='coh', name='c', ctx={CTX!r}, ty={XY!r}, body=None)"
    assert decl == Decl(kind="coh", name="c", ctx=CTX, ty=XY, body=None)
    assert hash(decl) == hash(("coh", "c", CTX, XY, None)) and decl.value() == COH
    assert pickle.loads(pickle.dumps(decl)) == decl
    with pytest.raises(AttributeError):
        decl.body = X
    error = UnknownVariable("q", "context")
    report = TypingReport(False, "term", X, Mode.CATT, error=error)
    assert repr(report) == (
        "TypingReport(ok=False, kind='term', judged=Var(name='x'), mode=<Mode.CATT: 'catt'>"
        ", inferred=None, error=UnknownVariable(\"unknown variable 'q' in context\"))"
    )
    assert report.message == "term x: unknown variable 'q' in context"
    assert report == TypingReport(False, "term", X, Mode.CATT, None, error)
    ok = TypingReport(True, "type", XY, Mode.CATT_SA, inferred=XY)
    assert ok.error is None and ok.message == "type x -> y: ok"
    assert ok != report and pickle.loads(pickle.dumps(ok)) == ok
