"""Innermost-leftmost normalisation and definitional equality.

The only base redex is insertion at the head of a coherence whose
argument at some locally maximal cell is an unbiased composite of
sufficient linear height; everything else is congruence closure.
Reduction is confluent and terminating, so normalize computes the normal
form bottom-up in one pass, each normal subterm object once; the
innermost-leftmost steps are recorded as events by the same pass and
rendered, by replaying them, only when a trace is asked for.  Whether a
disc-shaped argument may be inserted is the allow_disc_insertion keyword
of normalize and def_eq (default True); the module keeps no setting of
its own.  These functions assume well-typed input (they never call the
typechecker, which keeps the equality/typing stratification well
founded) and surface scope-level defects as IllTyped where they are
detected incidentally.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .errors import IllTyped, bounded
from .insertion import InsertionProblem, external_on, insert_ctx, insert_sub
from .pasting import shape
from .syntax import (
    Arr,
    Coh,
    Context,
    Item,
    Star,
    Substitution,
    Term,
    Type,
    Var,
    VarName,
    apply_sub_type,
    free_vars,
    item_str,
)
from .trees import branching_height, is_linear, linear_height

RULE_INSERTION = "insertion"
RULE_CELL = "cell-reduction"
RULE_ARG = "argument-reduction"
RULE_TYPE = "type-component"
RULE_SUB = "sub-component"

Position = tuple[tuple[str, int], ...]


class Redex(NamedTuple):
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


def _rebuilt(item: Item, kids: list[Item]) -> Item:
    """item with its children, in _children order, replaced by kids."""
    if isinstance(item, Coh):
        # zip stops at the last argument; the type comes after it
        return Coh(item.ctx, kids[-1], Substitution(tuple(zip(item.sub.domain, kids))))
    if isinstance(item, Arr):
        return Arr(*kids)
    return Substitution(tuple(zip(item.domain, kids)))


def _with_child(item: Item, kind: str, index: int, new: Item) -> Item:
    """item with the child at (kind, index) replaced by new."""
    return _rebuilt(item, [new if (k, i) == (kind, index) else c for k, i, c in _children(item)])


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
        apply_sub_type(t.ty, external_on(result, free_vars(t.ty))),
        insert_sub(t.sub, x, arg.sub, result),
    )


# ---------------------------------------------------------------------------
# Normalisation
# ---------------------------------------------------------------------------


def _nf(item: Item, memo: dict, allow: bool, traced: bool) -> tuple:
    """The entry (item, normal form, steps) of item; the steps, a list
    only when traced, pair a position relative to item with the subitem
    that replaces the redex there.  Only a normal item is stored in the
    memo, under id(item): a subitem that reduces is normalised again at
    each position it occupies, so every step fires its own insertion.

    The children are normalised first (arguments, then the type), the node
    is rebuilt only if one changed, then its head insertions fire.  A
    subterm's steps do not depend on its siblings and a head fires only
    once its children are normal, so item's innermost-leftmost steps are
    its children's, merged by _merged, then its head's.  The memo lookups
    are inline, so a level of nesting takes one frame; each stored entry
    keeps its item alive, so no id is reused while it is a key."""
    children = _children(item)
    done = []
    for _, _, child in children:
        hit = memo.get(id(child))
        if hit is None:  # a variable or * is normal and needs no memo entry
            leaf = isinstance(child, (Var, Star))
            hit = (child, child, None) if leaf else _nf(child, memo, allow, traced)
        done.append(hit)
    nf = _rebuilt(item, [h[1] for h in done]) if any(h[1] is not h[0] for h in done) else item
    steps = _merged([(c[:2], h[2]) for c, h in zip(children, done) if h[2]]) if traced else None
    while isinstance(nf, Coh) and (x := next(_eligible_heads(nf, allow), None)) is not None:
        unbiased = nf.ty == shape(nf.ctx).unbiased
        nf = _insert_at(nf, x)
        # the reduct's arguments are normal arguments: only its type may reduce
        _, ty, inner = _nf(nf.ty, memo, allow, traced)
        if unbiased:  # then so is the reduct: ty is its context's unbiased type
            shape(nf.ctx, ty)
        if traced:
            steps.append(((), nf))
            steps += [((("type", 0),) + pos, new) for pos, new in inner]
        if ty is not nf.ty:
            nf = Coh(nf.ctx, ty, nf.sub)
    return memo.setdefault(id(item), (item, nf, steps)) if nf is item else (item, nf, steps)


def _merged(lists: list[tuple[tuple[str, int], list]]) -> list:
    """The steps of a node's children, each list under its (kind, index),
    in the order innermost-leftmost reduction takes them: at every turn the
    next step at the greatest depth, ties to the earlier child.  A turn
    looks at every child, which costs less than rendering the step."""
    out, heads = [], [0] * len(lists)
    while live := [j for j, (_, steps) in enumerate(lists) if heads[j] < len(steps)]:
        j = max(live, key=lambda j: len(lists[j][1][heads[j]][0]))  # the first deepest
        step, steps = lists[j]
        out.append(((step,) + steps[heads[j]][0], steps[heads[j]][1]))
        heads[j] += 1
    return out


@bounded
def normalize(
    ctx: Context,
    item: Item,
    *,
    allow_disc_insertion: bool = True,
    trace: Optional[list[str]] = None,
) -> Item:
    """Innermost-leftmost normal form of a well-typed term, type or
    substitution.  Appends one line per step to trace when given, rendered
    by replaying the steps the normalising pass recorded."""
    kind = _kind_of(item)
    _, nf, steps = _nf(item, {}, allow_disc_insertion, trace is not None)
    cur, shown = item, ""
    for position, new in steps or ():
        spine, node = [], cur  # replace the subitem at position, without recursion
        for step in position:
            spine.append((node, step))
            node = next(c for k, i, c in _children(node) if (k, i) == step)
        for parent, step in reversed(spine):
            new = _with_child(parent, *step, new)
        redex = _with_rule(kind, position)
        # a step's left side is the last one's right side: render each once
        before, shown, cur = shown or item_str(item), item_str(new), new
        trace.append(f"{redex.rule} at {redex.position_str()}: {before} ⇝ {shown}")
    return nf


@bounded
def def_eq(ctx: Context, a: Item, b: Item, *, allow_disc_insertion: bool = True) -> bool:
    """Definitional equality: equal items, or equal innermost-leftmost
    normal forms."""
    if _kind_of(a) != _kind_of(b):
        return False
    if a == b:
        return True  # normal forms are unique
    na = normalize(ctx, a, allow_disc_insertion=allow_disc_insertion)
    nb = normalize(ctx, b, allow_disc_insertion=allow_disc_insertion)
    return na == nb
