"""Raw syntax of the kernel: terms, types, contexts and substitutions.

A term is a variable or a coherence ``Coh(ctx, ty, sub)``; a type is the
base type ``*`` or an arrow between two terms over a lower-dimensional
type.  Contexts and substitutions are ordered association sequences with
pairwise-distinct names, indexed by name when built.  Every value is
immutable, so all operations in this module are pure functions and safe
to call from any thread.

The variables a coherence binds are positions in a pasting diagram, so
== and hash on Coh ignore their names, and alpha equality is plain ==.
Names are still stored and printed.

Contexts and coherences carry a write-once memo of data derived from them
(a context's Batanin tree and pasting shape, a coherence's positional
shape), kept in the instance __dict__ outside the dataclass fields: repr
and pickling see only the fields.  An entry is a function of the fields
alone, so two threads that race to fill it compute equal values and
either result is correct; no lock is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Container, Iterator, Literal, TypeVar, Union

from .errors import (
    DimensionError,
    DuplicateVariable,
    MalformedSyntax,
    SubstitutionUndefined,
    UnknownVariable,
    bounded,
)

VarName = str
_T = TypeVar("_T")

Sign = Literal["-", "+"]
NEG: Sign = "-"
POS: Sign = "+"


class Term:
    """Abstract base for terms; instances are Var or Coh."""

    __slots__ = ()


class Type:
    """Abstract base for types; instances are Star or Arr."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: VarName

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Star(Type):
    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class Arr(Type):
    src: Term
    base: Type
    tgt: Term

    def __str__(self) -> str:
        return f"{self.src} -> {self.tgt}"


class _Memo:
    """A frozen dataclass with a write-once memo in its __dict__; pickling
    carries only the fields."""

    __slots__ = ()

    def derived(self, key: str, compute: Callable[..., _T]) -> _T:
        """The memo entry key, set to compute(self) on first use and never
        changed; racing threads compute equal values and the first is kept."""
        memo = self.__dict__
        if key in memo:
            return memo[key]
        return memo.setdefault(key, compute(self))

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))


@dataclass(frozen=True)
class _Table(_Memo):
    """Ordered (name, value) pairs with pairwise-distinct names, indexed by
    name in __dict__ when built."""

    entries: tuple = ()
    _where = ""

    def __post_init__(self) -> None:
        table = dict(self.entries)
        if len(table) != len(self.entries):
            names = [name for name, _ in self.entries]
            dup = next(v for i, v in enumerate(names) if v in names[:i])
            raise DuplicateVariable(dup, self._where)
        self.__dict__.update(_table=table, _names=tuple(table))

    def has(self, name: VarName) -> bool:
        return name in self._table

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.entries)


@dataclass(frozen=True)
class Context(_Table):
    """Ordered sequence of (variable, type) declarations."""

    entries: tuple[tuple[VarName, Type], ...] = ()
    _where = "context"

    @property
    def vars(self) -> tuple[VarName, ...]:
        return self._names

    def lookup(self, name: VarName) -> Type:
        try:
            return self._table[name]
        except KeyError:
            raise UnknownVariable(name, "context") from None

    def extend(self, name: VarName, ty: Type) -> "Context":
        return Context(self.entries + ((name, ty),))

    def __str__(self) -> str:
        return " ".join(f"({v} : {type_str(ty)})" for v, ty in self.entries)


@dataclass(frozen=True)
class Substitution(_Table):
    """Ordered sequence of (variable, term) assignments."""

    entries: tuple[tuple[VarName, Term], ...] = ()
    _where = "substitution"

    @property
    def domain(self) -> tuple[VarName, ...]:
        return self._names

    @property
    def values(self) -> tuple[Term, ...]:
        return tuple(self._table.values())

    def lookup(self, name: VarName) -> Term:
        try:
            return self._table[name]
        except KeyError:
            raise SubstitutionUndefined(name) from None

    def replace(self, index: int, term: Term) -> "Substitution":
        entries = list(self.entries)
        entries[index] = (entries[index][0], term)
        return Substitution(tuple(entries))

    def __str__(self) -> str:
        return "<" + ", ".join(f"{v} := {term_str(t)}" for v, t in self.entries) + ">"


@dataclass(frozen=True, eq=False)
class Coh(Term, _Memo):
    ctx: Context
    ty: Type
    sub: Substitution

    def __post_init__(self) -> None:
        if self.sub.domain != self.ctx.vars:
            raise MalformedSyntax(
                "coherence argument domain must match its context variables in order"
            )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Coh):
            return NotImplemented
        # Same bound names: compare the fields and build no shape.  Most
        # comparisons take this path, and a shape is a renamed copy of the
        # context and head type, whose nested coherences have shapes too.
        if self.ctx.vars == other.ctx.vars:
            return (self.ctx, self.ty, self.sub) == (other.ctx, other.ty, other.sub)
        return self.sub.values == other.sub.values and _shape(self) == _shape(other)

    def __hash__(self) -> int:
        return hash((self.sub.values, _shape(self)))

    def __str__(self) -> str:
        return term_str(self)


Item = Union[Term, Type, Substitution]

STAR = Star()


def identity_sub(ctx: Context) -> Substitution:
    return Substitution(tuple((v, Var(v)) for v in ctx.vars))


# ---------------------------------------------------------------------------
# Dimension
# ---------------------------------------------------------------------------


def dim_type(ty: Type) -> int:
    d = 0
    while isinstance(ty, Arr):
        d += 1
        ty = ty.base
    return d


def dim_ctx(ctx: Context) -> int:
    return max((dim_type(ty) for _, ty in ctx.entries), default=-1)


def dim_term(ctx: Context, t: Term) -> int:
    if isinstance(t, Var):
        return dim_type(ctx.lookup(t.name))
    if isinstance(t, Coh):
        return dim_type(t.ty)
    raise MalformedSyntax(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Support
# ---------------------------------------------------------------------------


def free_vars(item: Item) -> set[VarName]:
    """The variables occurring in a term, type or substitution, arrow bases
    included.  It reads no context, so a variable need not be bound."""
    out: set[VarName] = set()
    todo: list[Item] = [item]
    while todo:
        x = todo.pop()
        if isinstance(x, Var):
            out.add(x.name)
        elif isinstance(x, Coh):
            todo.extend(x.sub.values)
        elif isinstance(x, Arr):
            todo += (x.src, x.base, x.tgt)
        elif isinstance(x, Substitution):
            todo.extend(x.values)
        elif not isinstance(x, Star):
            raise MalformedSyntax(f"cannot take support of {x!r}")
    return out


def support(ctx: Context, item: Item) -> frozenset[VarName]:
    """Downward-closed set of variables the item depends on in ctx.

    A variable contributes itself plus, recursively, the support of its
    declared type; a coherence contributes only the support of its
    argument substitution.
    """
    out: set[VarName] = set()
    todo = list(free_vars(item))
    while todo:
        v = todo.pop()
        if v not in out:
            out.add(v)
            todo.extend(free_vars(ctx.lookup(v)))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Substitution application and composition (partial functions)
# ---------------------------------------------------------------------------


def apply_sub(item: Term | Type, sigma: Substitution) -> Term | Type:
    """Apply sigma; raises SubstitutionUndefined if a needed variable is absent.

    Coherences substitute only their argument substitution:
    ``Coh(G, A, tau)[sigma] = Coh(G, A, tau o sigma)``.
    """
    if isinstance(item, Star):
        return item
    if isinstance(item, Arr):
        return Arr(
            apply_sub(item.src, sigma),
            apply_sub(item.base, sigma),
            apply_sub(item.tgt, sigma),
        )
    if isinstance(item, Var):
        return sigma.lookup(item.name)
    if isinstance(item, Coh):
        return Coh(item.ctx, item.ty, compose_sub(item.sub, sigma))
    raise MalformedSyntax(f"cannot substitute into {item!r}")


def apply_sub_term(t: Term, sigma: Substitution) -> Term:
    out = apply_sub(t, sigma)
    assert isinstance(out, Term)
    return out


def apply_sub_type(ty: Type, sigma: Substitution) -> Type:
    out = apply_sub(ty, sigma)
    assert isinstance(out, Type)
    return out


def compose_sub(tau: Substitution, sigma: Substitution) -> Substitution:
    """Pointwise application of sigma to the terms of tau.

    With tau : Gamma -> Delta and sigma : Delta -> Theta (reading a
    substitution as assigning terms of the second context to variables
    of the first), the composite assigns Theta-terms to Gamma-variables.
    """
    return Substitution(tuple((v, apply_sub_term(t, sigma)) for v, t in tau.entries))


def var_sub(mapping: dict[VarName, VarName], *items: Item) -> Substitution:
    """The variable substitution that renames by mapping and sends every
    other free variable of items to itself, so applying it to items never
    raises SubstitutionUndefined."""
    free = set().union(*map(free_vars, items))
    return Substitution(tuple((v, Var(mapping.get(v, v))) for v in free))


# ---------------------------------------------------------------------------
# Boundaries
# ---------------------------------------------------------------------------


def type_boundary(ty: Type, m: int, sign: Sign) -> Term:
    """The m-dimensional source (-) or target (+) endpoint stored in a type."""
    n = dim_type(ty)
    if not 0 <= m < n:
        raise DimensionError(f"type boundary at {m} needs 0 <= {m} < dim = {n}")
    while True:
        assert isinstance(ty, Arr)
        n -= 1
        if m == n:
            return ty.src if sign == NEG else ty.tgt
        ty = ty.base


def term_boundary(ctx: Context, t: Term, n: int, sign: Sign) -> Term:
    """The n-dimensional source or target of a term; the term itself at n = dim."""
    d = dim_term(ctx, t)
    if n > d or n < 0:
        raise DimensionError(f"term boundary at {n} needs 0 <= {n} <= dim = {d}")
    if n == d:
        return t
    if isinstance(t, Var):
        return type_boundary(ctx.lookup(t.name), n, sign)
    assert isinstance(t, Coh)
    return apply_sub_term(type_boundary(t.ty, n, sign), t.sub)


# ---------------------------------------------------------------------------
# Alpha equality
# ---------------------------------------------------------------------------

# Positional names use '%', which the surface language cannot produce, so
# renaming to positions never captures a user variable.


def _positional(ctx: Context, *types: Type) -> tuple[Type, ...]:
    """The entry types of ctx, then types, with the variables of ctx
    renamed to their positions."""
    types = (*ctx._table.values(), *types)
    sigma = var_sub({v: f"%{i}" for i, v in enumerate(ctx.vars)}, *types)
    return tuple(apply_sub_type(ty, sigma) for ty in types)


def _shape(t: Coh) -> tuple[Type, ...]:
    """The positional context entry types and head type of t; memoised."""
    return t.derived("_shape", _new_shape)


def _new_shape(t: Coh) -> tuple[Type, ...]:
    return _positional(t.ctx, t.ty)


def alpha_eq(a: Item | Context, b: Item | Context) -> bool:
    """Equality up to consistent renaming of bound context variables.

    This is == on terms, types and substitutions; two contexts are also
    alpha equal when their entry types agree with variables read as
    positions."""
    if isinstance(a, Context) and isinstance(b, Context):
        return a == b or _positional(a) == _positional(b)
    return a == b


# ---------------------------------------------------------------------------
# Fresh names and printing
# ---------------------------------------------------------------------------


def fresh_name(base: VarName, taken: Container[VarName]) -> VarName:
    """base with primes appended until it is not in taken."""
    name = base
    while name in taken:
        name += "'"
    return name


@bounded
def term_str(t: Term) -> str:
    """The surface rendering of a term; raises TooDeep on a term nested
    too deeply to print."""
    return _term_str(t)


@bounded
def type_str(ty: Type) -> str:
    """The surface rendering of a type; raises TooDeep on a type nested
    too deeply to print."""
    return _type_str(ty)


def _term_str(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    assert isinstance(t, Coh)
    args = ", ".join(_term_str(u) for u in t.sub.values)
    return f"coh {{ {t.ctx} : {_type_str(t.ty)} }} [{args}]"


def _type_str(ty: Type) -> str:
    if isinstance(ty, Star):
        return "*"
    assert isinstance(ty, Arr)
    return f"{_term_str(ty.src)} -> {_term_str(ty.tgt)}"
