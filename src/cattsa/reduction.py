"""One-step reduction, innermost-leftmost normalisation and definitional
equality.

The only base redex is insertion at the head of a coherence whose
argument at some locally maximal cell is an unbiased composite of
sufficient linear height; everything else is congruence closure.
normalize locates the innermost-leftmost redex of a term and fires only
that one.  Whether a disc-shaped argument may be inserted is the
allow_disc_insertion keyword of normalize and def_eq (default True); the
module keeps no setting of its own.  These functions assume well-typed
input (they never call the typechecker, which keeps the equality/typing
stratification well founded) and surface scope-level defects as
IllTyped where they are detected incidentally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import IllTyped, bounded
from .insertion import InsertionProblem, insert_ctx, insert_sub
from .pasting import shape
from .syntax import (
    Arr,
    Coh,
    Context,
    Item,
    Substitution,
    Term,
    Type,
    VarName,
    apply_sub_type,
    term_str,
    type_str,
)
from .trees import branching_height, is_linear, linear_height

RULE_INSERTION = "insertion"
RULE_CELL = "cell-reduction"
RULE_ARG = "argument-reduction"
RULE_TYPE = "type-component"
RULE_SUB = "sub-component"

Position = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Redex:
    rule: str
    position: Position

    def position_str(self) -> str:
        if not self.position:
            return "head"
        parts = []
        for kind, index in self.position:
            parts.append(f"{kind}[{index}]" if kind in ("arg", "entry") else kind)
        return ".".join(parts)


# ---------------------------------------------------------------------------
# Positions
# ---------------------------------------------------------------------------


def _kind_of(item: Item) -> str:
    if isinstance(item, Term):
        return "term"
    if isinstance(item, Type):
        return "type"
    if isinstance(item, Substitution):
        return "sub"
    raise IllTyped(f"cannot reduce {item!r}")


def _children(item: Item) -> list[tuple[str, int, Item]]:
    """The immediate subitems as (kind, index, child), in traversal order:
    substitution entries left to right, then the type of a coherence, then
    the source, base and target of an arrow."""
    if isinstance(item, Coh):
        out: list[tuple[str, int, Item]] = [
            ("arg", i, arg) for i, (_, arg) in enumerate(item.sub.entries)
        ]
        out.append(("type", 0, item.ty))
        return out
    if isinstance(item, Arr):
        return [("src", 0, item.src), ("base", 0, item.base), ("tgt", 0, item.tgt)]
    if isinstance(item, Substitution):
        return [("entry", i, arg) for i, (_, arg) in enumerate(item.entries)]
    return []


def _with_child(item: Item, kind: str, index: int, new: Item) -> Item:
    """item with the child at (kind, index) replaced by new."""
    if isinstance(item, Coh):
        if kind == "arg":
            return Coh(item.ctx, item.ty, item.sub.replace(index, new))
        return Coh(item.ctx, new, item.sub)
    if isinstance(item, Arr):
        if kind == "src":
            return Arr(new, item.base, item.tgt)
        if kind == "base":
            return Arr(item.src, new, item.tgt)
        return Arr(item.src, item.base, new)
    assert isinstance(item, Substitution)
    return item.replace(index, new)


def _with_rule(kind: str, pos: Position) -> Redex:
    if not pos:
        rule = RULE_INSERTION
    elif kind == "term":
        rule = RULE_ARG if pos[0][0] == "arg" else RULE_CELL
    elif kind == "type":
        rule = RULE_TYPE
    else:
        rule = RULE_SUB
    return Redex(rule, pos)


# ---------------------------------------------------------------------------
# Head eligibility, shared by normalisation and the tests' redex enumerator;
# the pasting shapes it reads are memoised on their contexts by pasting.shape
# ---------------------------------------------------------------------------


def _eligible_heads(t: Coh, allow: bool) -> Iterator[VarName]:
    """Locally maximal cells of t's context that carry an insertion redex,
    in context order.

    The argument at the cell must be an unbiased composite (its type is the
    unbiased type of its pasting context, up to alpha) whose tree is at
    least as linearly high as the cell's branching height; disc-shaped
    arguments qualify only when allow is set.
    """
    outer = shape(t.ctx)
    if outer is None:
        return
    for x in outer.maximal:
        arg = t.sub.lookup(x)
        if not isinstance(arg, Coh):
            continue
        inner = shape(arg.ctx)
        if inner is None:
            continue
        if arg.ty != inner.unbiased:
            continue
        if not allow and is_linear(inner.tree):
            continue
        if branching_height(outer.tree, x) > linear_height(inner.tree):
            continue
        yield x


def _insert_at(t: Coh, x: VarName) -> Term:
    """Fire the insertion redex of t at the locally maximal cell x."""
    arg = t.sub.lookup(x)
    assert isinstance(arg, Coh)
    result = insert_ctx(InsertionProblem(t.ctx, x, arg.ctx, arg.ty))
    return Coh(
        result.inserted,
        apply_sub_type(t.ty, result.external),
        insert_sub(t.sub, x, arg.sub, result),
    )


# ---------------------------------------------------------------------------
# Normalisation
# ---------------------------------------------------------------------------

# Where the innermost-leftmost redex of an item sits: its position and the
# cell of the head insertion fired there.
_Located = Optional[tuple[Position, VarName]]


class _Normaliser:
    """The locate memo of one normalize call; never shared between calls.

    locate finds the first redex in traversal order (see _children) among
    those at the greatest depth, without building any reduct.  It is
    memoised by object identity: a step rebuilds only the spine above the
    redex, so the untouched siblings are the same objects and hit the memo.
    Each memo entry keeps its object alive, so no id is reused while it is
    a key.
    """

    def __init__(self, allow: bool) -> None:
        self.allow = allow
        self.located: dict[int, tuple[Item, _Located]] = {}

    def locate(self, item: Item) -> _Located:
        hit = self.located.get(id(item))
        if hit is not None:
            return hit[1]
        best: _Located = None
        for kind, index, child in _children(item):
            found = self.locate(child)
            # found sits one level below item: take it only if strictly
            # deeper than best, so ties go to the earlier child
            if found is not None and (best is None or len(found[0]) >= len(best[0])):
                best = (((kind, index),) + found[0], found[1])
        if best is None and isinstance(item, Coh):
            x = next(_eligible_heads(item, self.allow), None)
            if x is not None:
                best = ((), x)
        self.located[id(item)] = (item, best)
        return best


def _fire(item: Item, position: Position, x: VarName) -> Item:
    """Rebuild item along position with the head insertion at x fired."""
    if not position:
        assert isinstance(item, Coh)
        return _insert_at(item, x)
    step = position[0]
    child = next(c for kind, index, c in _children(item) if (kind, index) == step)
    return _with_child(item, *step, _fire(child, position[1:], x))


def _render(item: Item) -> str:
    if isinstance(item, Term):
        return term_str(item)
    if isinstance(item, Type):
        return type_str(item)
    return str(item)


@bounded
def normalize(
    ctx: Context,
    item: Item,
    *,
    allow_disc_insertion: bool = True,
    trace: Optional[list[str]] = None,
) -> Item:
    """Innermost-leftmost normal form of a well-typed term, type or
    substitution.  Appends one line per step to trace when given.

    Each step locates the first redex in traversal order among those at
    the greatest depth and builds only that one reduct.
    """
    kind = _kind_of(item)
    norm = _Normaliser(allow_disc_insertion)
    cur = item
    while True:
        found = norm.locate(cur)
        if found is None:
            return cur
        position, x = found
        result = _fire(cur, position, x)
        if trace is not None:
            redex = _with_rule(kind, position)
            trace.append(
                f"{redex.rule} at {redex.position_str()}: "
                f"{_render(cur)} ⇝ {_render(result)}"
            )
        cur = result


def normalize_term(ctx: Context, t: Term, **kw) -> Term:
    out = normalize(ctx, t, **kw)
    assert isinstance(out, Term)
    return out


def normalize_type(ctx: Context, ty: Type, **kw) -> Type:
    out = normalize(ctx, ty, **kw)
    assert isinstance(out, Type)
    return out


@bounded
def def_eq(ctx: Context, a: Item, b: Item, *, allow_disc_insertion: bool = True) -> bool:
    """Definitional equality: compare innermost-leftmost normal forms."""
    if _kind_of(a) != _kind_of(b):
        return False
    na = normalize(ctx, a, allow_disc_insertion=allow_disc_insertion)
    nb = normalize(ctx, b, allow_disc_insertion=allow_disc_insertion)
    return na == nb
