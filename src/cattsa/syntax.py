"""Raw syntax of the kernel: terms, types, contexts and substitutions.

A term is a variable or a coherence ``Coh(ctx, ty, sub)``; a type is the
base type ``*`` or an arrow between two terms over a lower-dimensional
type.  Contexts and substitutions are ordered association sequences with
pairwise-distinct names, held as their names and their values in order;
the entries and the index by name are made from those on first read.  A
deferred one is given its values, or a function that makes them on first
read (as a context emitted from a tree is), and may be given its lookup
(as insertion's external map is).
Every value is immutable, so each operation here is a pure function, safe in any thread.

The variables a coherence binds are positions in a pasting diagram, so
== and hash on Coh ignore their names (they read the context's tree
without labels and the head type by positions), and alpha equality is
plain ==.  Names are still stored and printed, and Coh's one constructor
checks that the arguments are named by the context's variables in order.

Every value prints through item_str (also named term_str and type_str),
which str calls and which alone guards the depth, in the surface syntax
but for a coherence: Catt's term former coh { Γ : A } [σ], which the
parser does not yet read.

Values are plain classes derived from Frozen.  Tables and coherences
carry a write-once memo of derived data (what a table makes on first read,
a context's Batanin tree, cell table and unbiased type, a coherence's == key), kept in the
instance __dict__ beside the fields: ==, hash, repr and pickling read
only the fields.  An entry is a function of the fields alone, so two threads that race to fill it compute equal values and
either result is correct; no lock is needed.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Literal, TypeVar, Union

from .errors import (
    DimensionError,
    DuplicateVariable,
    MalformedSyntax,
    NotPasting,
    SubstitutionUndefined,
    UnknownVariable,
    bounded,
)

VarName = str
_T = TypeVar("_T")
_set = object.__setattr__  # how __init__ sets the field of a frozen value

Sign = Literal["-", "+"]
NEG: Sign = "-"
POS: Sign = "+"


class Frozen:
    """Base of the immutable values: a subclass names its fields in _fields,
    and in __slots__ when it keeps no memo.  It defines == to hold only
    within its class, and hash as that of the tuple of compared fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f) for f in self._fields))


class Term(Frozen):
    """Abstract base for terms; instances are Var or Coh."""

    __slots__ = ()

    def __str__(self) -> str:
        return item_str(self)


class Type(Frozen):
    """Abstract base for types; instances are Star or Arr."""

    __slots__ = ()

    def __str__(self) -> str:
        return item_str(self)


class Var(Term):
    __slots__ = _fields = ("name",)

    def __init__(self, name: VarName) -> None:
        _set(self, "name", name)

    def __eq__(self, other: object) -> bool:
        return self.name == other.name if other.__class__ is Var else NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))


class Star(Type):
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return other.__class__ is Star or NotImplemented

    def __hash__(self) -> int:
        return hash(())


class Arr(Type):
    __slots__ = _fields = ("src", "base", "tgt")

    def __init__(self, src: Term, base: Type, tgt: Term) -> None:
        _set(self, "src", src)
        _set(self, "base", base)
        _set(self, "tgt", tgt)

    def __eq__(self, other: object) -> bool:  # a type is often compared with itself
        return self is other or (
            (self.src, self.base, self.tgt) == (other.src, other.base, other.tgt)
            if other.__class__ is Arr else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.src, self.base, self.tgt))


class _Memo(Frozen):
    """A value with a write-once memo in its __dict__, beside its fields."""

    __slots__ = ()

    def derived(self, key: str, compute: Callable[..., _T], *args) -> _T:
        """The memo entry key, set to compute(self, *args) on first use and
        never changed; racing threads compute equal values, the first kept."""
        memo = self.__dict__
        if key in memo:
            return memo[key]
        return memo.setdefault(key, compute(self, *args))


class _OnFirstRead:
    """A field of a deferred table, computed into its memo on first read and
    then found in __dict__.  It takes no lock, unlike cached_property before
    Python 3.12, whose one lock per field every instance shares."""

    def __init__(self, name: str, compute: Callable) -> None:
        self.name, self.compute = name, compute

    def __get__(self, obj: _Memo | None, owner: type) -> object:
        return self if obj is None else obj.derived(self.name, self.compute)


class _Table(_Memo):
    """Ordered (name, value) pairs with pairwise-distinct names, held as the
    names and the values in order; the entries and the index by name are
    made from those on first read."""

    _fields = ("entries",)
    _where = ""

    def __init__(self, entries: Iterable[tuple] = ()) -> None:
        entries = tuple(entries)  # == and hash compare entries as tuples
        table = dict(entries)
        if len(table) != len(entries):
            names = [name for name, _ in entries]
            dup = next(v for i, v in enumerate(names) if v in names[:i])
            raise DuplicateVariable(dup, self._where)
        self.__dict__.update({"_names": tuple(table), "values": tuple(table.values()),
                              "entries": entries, "_table": table})

    @classmethod
    def deferred(cls, names: tuple[VarName, ...], values: tuple | Callable[[], tuple],
                 **memo) -> "_Table":
        """A table over distinct names with the memo given, and with its values
        in order, or a function of no arguments that makes them on first read."""
        table, memo["_names"] = object.__new__(cls), names
        memo["_values" if callable(values) else "values"] = values
        _set(table, "__dict__", memo)  # the memo, a fresh dict, is the instance's
        return table

    values = _OnFirstRead("values", lambda t: t._values())  # by the function given to deferred
    entries = _OnFirstRead("entries", lambda t: tuple(zip(t._names, t.values)))
    _table = _OnFirstRead("_table", lambda t: dict(zip(t._names, t.values)))  # the index by name

    def __eq__(self, other: object) -> bool:
        return self.entries == other.entries if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries,))

    def has(self, name: VarName) -> bool:
        return name in self._table

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.entries)

    def __str__(self) -> str:
        return item_str(self)


class Context(_Table):
    """Ordered sequence of (variable, type) declarations."""

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


class Substitution(_Table):
    """Ordered sequence of (variable, term) assignments."""

    _where = "substitution"

    @property
    def domain(self) -> tuple[VarName, ...]:
        return self._names

    def lookup(self, name: VarName) -> Term:
        try:
            return self._table[name]
        except KeyError:
            raise SubstitutionUndefined(name) from None

    def replace(self, index: int, term: Term) -> "Substitution":
        entries = list(self.entries)
        entries[index] = (entries[index][0], term)
        return Substitution(tuple(entries))


class Coh(Term, _Memo):
    _fields = ("ctx", "ty", "sub")

    def __init__(self, ctx: Context, ty: Type, sub: Substitution) -> None:
        if sub._names is not ctx._names and sub._names != ctx._names:
            raise MalformedSyntax(
                "coherence argument domain must match its context variables in order"
            )
        self.__dict__.update(ctx=ctx, ty=ty, sub=sub)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Coh):
            return NotImplemented
        # Same bound names: compare the fields and build no key.  Most
        # comparisons take this path, and a key holds a renamed copy of the
        # head type, whose nested coherences have keys too.
        if self.ctx.vars == other.ctx.vars:
            return (self.ctx, self.ty, self.sub) == (other.ctx, other.ty, other.sub)
        return self.sub.values == other.sub.values and _alpha_key(self) == _alpha_key(other)

    def __hash__(self) -> int:
        return hash((self.sub.values, _alpha_key(self)))


Item = Union[Term, Type, Substitution]

STAR = Star()


def identity_sub(ctx: Context) -> Substitution:
    """Each variable of ctx sent to itself."""
    return Substitution.deferred(ctx.vars, tuple(map(Var, ctx.vars)))


# ---------------------------------------------------------------------------
# Dimension
# ---------------------------------------------------------------------------


def dim_type(ty: Type) -> int:
    d = 0
    while isinstance(ty, Arr):
        d += 1
        ty = ty.base
    return d


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
    if isinstance(item, Var):
        return sigma.lookup(item.name)
    if isinstance(item, Star):
        return item
    if isinstance(item, Arr):
        return Arr(
            apply_sub(item.src, sigma),
            apply_sub(item.base, sigma),
            apply_sub(item.tgt, sigma),
        )
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
    return Substitution.deferred(tau.domain, tuple(apply_sub_term(t, sigma) for t in tau.values))


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
    """types with the variables of ctx renamed to their positions."""
    sigma = var_sub({v: f"%{i}" for i, v in enumerate(ctx.vars)}, *types)
    return tuple(apply_sub_type(ty, sigma) for ty in types)


def _alpha_key(t: Coh) -> tuple:
    """What == and hash compare of t beside its arguments; memoised."""
    return t.derived("_alpha_key", _new_alpha_key)


def _new_alpha_key(t: Coh) -> tuple:
    """The label-free tree of a pasting context, else its entry types, then
    the head type, all read by positions; a tree is a tuple, not a type."""
    from .trees import ctx_to_tree, label_free  # trees imports this module
    try:
        tree = ctx_to_tree(t.ctx)
    except NotPasting:
        return _positional(t.ctx, *t.ctx.values, t.ty)
    return label_free(tree), *_positional(t.ctx, t.ty)


def alpha_eq(a: Item | Context, b: Item | Context) -> bool:
    """Equality up to consistent renaming of bound context variables.

    This is == on terms, types and substitutions; two contexts are also
    alpha equal when their entry types agree with variables read as
    positions."""
    if isinstance(a, Context) and isinstance(b, Context):
        return a == b or _positional(a, *a.values) == _positional(b, *b.values)
    return a == b


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


@bounded
def item_str(item: Item | Context) -> str:
    """The surface rendering of a term, type, context or substitution, and
    str of anything else; raises TooDeep on a value too deep to print.  The
    rendering below this one guard recurses unguarded."""
    return _render(item)


term_str = type_str = item_str


def _render(x: object) -> str:
    if isinstance(x, Var):
        return x.name
    if isinstance(x, Arr):
        return f"{_render(x.src)} -> {_render(x.tgt)}"
    if isinstance(x, Star):
        return "*"
    if isinstance(x, Coh):
        args = ", ".join(_render(u) for u in x.sub.values)  # map would move TooDeep's depth
        return f"coh {{ {_render(x.ctx)} : {_render(x.ty)} }} [{args}]"
    if isinstance(x, Context):
        return " ".join(f"({v} : {_render(ty)})" for v, ty in x.entries)
    if isinstance(x, Substitution):
        return "<" + ", ".join(f"{v} := {_render(t)}" for v, t in x.entries) + ">"
    return str(x)
