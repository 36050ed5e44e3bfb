"""Innermost-leftmost normalisation and definitional equality.

The only base redex is insertion at the head of a coherence whose
argument at some locally maximal cell is an unbiased composite of
sufficient linear height; everything else is congruence closure.
Reduction is confluent and terminating, so normalize computes the normal
form bottom-up in one pass, each normal subterm object once; the
innermost-leftmost steps are recorded by the same pass, each at a path
of child indices, and rendered, by replaying them, only when a trace is
asked for.  Whether a disc-shaped argument may be inserted is the
allow_disc_insertion keyword of normalize and def_eq (default True); the
module keeps no setting of its own.  These functions assume well-typed
input (they never call the typechecker, which keeps the equality/typing
stratification well founded) and surface scope-level defects as
IllTyped where they are detected incidentally.
"""

from __future__ import annotations

from operator import is_
from typing import Iterator, Optional

from .errors import IllTyped, NotPasting, bounded
from .insertion import InsertionProblem, insert_ctx, type_linear_height
from .pasting import unbiased_type
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
    dim_type,
    item_str,
)
from .trees import cell_table, ctx_to_tree, is_linear, linear_height

RULE_INSERTION = "insertion"
RULE_CELL = "cell-reduction"
RULE_ARG = "argument-reduction"
RULE_TYPE = "type-component"
RULE_SUB = "sub-component"


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


def _kids(item: Item) -> tuple[Item, ...]:
    """The immediate subitems, in traversal order: substitution entries left
    to right, then the type of a coherence, then the source, base and
    target of an arrow."""
    if isinstance(item, Coh):
        return (*item.sub.values, item.ty)
    if isinstance(item, Arr):
        return (item.src, item.base, item.tgt)
    return item.values if isinstance(item, Substitution) else ()


def _rebuilt(item: Item, kids: list[Item]) -> Item:
    """item with its children, in _kids order, replaced by kids."""
    if isinstance(item, Coh):  # the type comes last
        return Coh(item.ctx, kids[-1], Substitution.deferred(item.ctx.vars, tuple(kids[:-1])))
    if isinstance(item, Arr):
        return Arr(*kids)
    return Substitution.deferred(item.domain, tuple(kids))


def _label(item: Item, index: int) -> str:
    """The name a trace line gives to child index of item."""
    if isinstance(item, Arr):
        return ("src", "base", "tgt")[index]
    if isinstance(item, Coh):
        return "type" if index == len(item.sub) else f"arg[{index}]"
    return f"entry[{index}]"


# ---------------------------------------------------------------------------
# Head eligibility, shared by normalisation and the tests' redex enumerator;
# the trees, cell tables and unbiased types it reads are memoised on contexts
# ---------------------------------------------------------------------------


def _eligible_heads(t: Coh, allow: bool) -> Iterator[tuple[VarName, Coh]]:
    """Locally maximal cells of t's context that carry an insertion redex,
    in context order, each with its argument, read by position.

    The argument at the cell must be an unbiased composite (its type is the
    unbiased type of its pasting context, up to alpha) whose tree is at
    least as linearly high as the cell's branching height; disc-shaped
    arguments qualify only when allow is set.  The cells of a reduct that
    carry one are its head's after the cell inserted at: the inner
    coherence's arguments were normal in it, and the splice keeps the other
    arguments and their cells' branching heights, and raises none of the
    inner cells'.
    """
    try:
        cells = cell_table(t.ctx)
    except NotPasting:
        return
    for x, arg in zip(t.ctx.vars, t.sub.values):
        if x not in cells or not isinstance(arg, Coh):
            continue
        try:
            unbiased = unbiased_type(arg.ctx)
        except NotPasting:
            continue
        if arg.ty != unbiased:
            continue
        tree = ctx_to_tree(arg.ctx)
        if not allow and is_linear(tree):
            continue
        if len(cells[x][0]) - 1 > linear_height(tree):
            continue
        yield x, arg


def _insert_at(t: Coh, x: VarName, arg: Coh) -> Coh:
    """Fire the insertion redex of t at the locally maximal cell x, whose
    argument is arg.  The reduct's argument at a surviving outer name is
    t's, and at the image of an inner name arg's at that name, through the
    renaming insert_ctx recorded; no image of an inner name is an outer name."""
    result = insert_ctx(InsertionProblem(t.ctx, x, arg.ctx, arg.ty))
    ren = result.internal._ren  # the inner names it changed
    table = dict(zip(t.ctx.vars, t.sub.values))
    table.update(zip(map(ren.get, arg.ctx.vars, arg.ctx.vars), arg.sub.values))
    names = result.inserted.vars
    sub = Substitution.deferred(names, tuple(map(table.__getitem__, names)))
    return Coh(result.inserted, apply_sub_type(t.ty, result.external), sub)


# ---------------------------------------------------------------------------
# Normalisation
# ---------------------------------------------------------------------------


def _nf(item: Item, memo: dict, allow: bool, traced: bool) -> tuple:
    """The normal form of item and its steps, a list only when traced, which
    pair a position relative to item, a path of child indices in _kids
    order, with the subitem that replaces the redex there.  Only a normal
    item is stored in the memo, under id(item): a subitem that reduces is
    normalised again at each position it occupies, so every step fires its
    own insertion.

    The children are normalised first (arguments, then the type), the node
    is rebuilt only if one changed, then its head insertions fire.  A
    subterm's steps do not depend on its siblings and a head fires only
    once its children are normal, so item's innermost-leftmost steps are
    its children's, merged by _merged, then its head's.  The memo test is
    inline, so a level of nesting takes one frame; each stored item is
    kept alive by its entry, so no id is reused while it is a key."""
    kids = _kids(item)
    done = [(kid, None) if isinstance(kid, (Var, Star)) or id(kid) in memo  # normal
            else _nf(kid, memo, allow, traced) for kid in kids]
    nfs = [nf for nf, _ in done]
    nf = item if all(map(is_, nfs, kids)) else _rebuilt(item, nfs)
    steps = _merged([(i, s) for i, (_, s) in enumerate(done) if s]) if traced else None
    for x, arg in _eligible_heads(nf, allow) if isinstance(nf, Coh) else ():  # the head's, in turn
        unbiased = nf.ty == unbiased_type(nf.ctx)
        nf = _insert_at(nf, x, arg)
        # the reduct's arguments are normal arguments: only its type may
        # reduce, and only if a coherence is at some endpoint of it
        coherent = type_linear_height(nf.ty) < dim_type(nf.ty)
        ty, inner = _nf(nf.ty, memo, allow, traced) if coherent else (nf.ty, ())
        if unbiased:  # then so is the reduct: ty is its context's unbiased type
            unbiased_type(nf.ctx, ty)
        if traced:
            steps.append(((), nf))
            steps += [((len(nf.sub),) + pos, new) for pos, new in inner]  # the type's index
        if ty is not nf.ty:
            nf = Coh(nf.ctx, ty, nf.sub)
    if nf is item:
        memo[id(item)] = item
    return nf, steps


def _merged(lists: list[tuple[int, list]]) -> list:
    """The steps of a node's children, each list under its index, in the
    order innermost-leftmost reduction takes them: at every turn the next
    step at the greatest depth, ties to the earlier child.  A turn looks at
    every child, which costs less than rendering the step."""
    out, heads = [], [0] * len(lists)
    while live := [j for j, (_, steps) in enumerate(lists) if heads[j] < len(steps)]:
        j = max(live, key=lambda j: len(lists[j][1][heads[j]][0]))  # the first deepest
        index, steps = lists[j]
        out.append(((index,) + steps[heads[j]][0], steps[heads[j]][1]))
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
    by replaying the steps the normalising pass recorded: a line names each
    index of its position and the rule only when it is printed."""
    kind = _kind_of(item)
    nf, steps = _nf(item, {}, allow_disc_insertion, trace is not None)
    cur, shown = item, ""
    for position, new in steps or ():
        spine, node = [], cur  # replace the subitem at position, without recursion
        for index in position:
            spine.append((node, index))
            node = _kids(node)[index]
        labels = [_label(parent, index) for parent, index in spine]
        for parent, index in reversed(spine):
            kids = list(_kids(parent))
            kids[index] = new
            new = _rebuilt(parent, kids)
        if not labels:
            rule = RULE_INSERTION
        elif kind == "term":
            rule = RULE_CELL if labels[0] == "type" else RULE_ARG
        else:
            rule = RULE_TYPE if kind == "type" else RULE_SUB
        # a step's left side is the last one's right side: render each once
        before, shown, cur = shown or item_str(item), item_str(new), new
        trace.append(f"{rule} at {'.'.join(labels) or 'head'}: {before} ⇝ {shown}")
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
