"""Pasting contexts: locally maximal cells and unbiased composites.

The pasting judgement is the tree parse trees.ctx_to_tree: a context is
pasting exactly when it is the emission of a Batanin tree.  The shape of
a context (its tree and unbiased type, or None when it is not pasting) is
memoised on the context; the unbiased type and the normaliser's redex
test read it, and the redex test reads a head's cells off trees.cell_table.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import NotPasting
from .syntax import (
    NEG,
    POS,
    STAR,
    Arr,
    Coh,
    Context,
    Term,
    Type,
    Var,
    VarName,
    free_vars,
    identity_sub,
)
from .trees import (
    BataninTree,
    ctx_to_tree,
    is_linear,
    tree_boundary,
    tree_depth,
    tree_to_ctx,
)


class Shape(NamedTuple):
    """What the kernel reads off a pasting context."""

    tree: BataninTree
    unbiased: Type


def shape(ctx: Context, unbiased: Optional[Type] = None) -> Optional[Shape]:
    """The shape of ctx, or None if it is not pasting; memoised on ctx.  A
    caller that knows the unbiased type of ctx passes it, to memoise it."""
    return ctx.derived("_pasting_shape", _new_shape, unbiased)


def _new_shape(ctx: Context, unbiased: Optional[Type] = None) -> Optional[Shape]:
    try:
        tree = ctx_to_tree(ctx)
    except NotPasting:
        return None
    return Shape(tree, unbiased or _unbiased_type(tree))


# ---------------------------------------------------------------------------
# Locally maximal variables
# ---------------------------------------------------------------------------


def maximal_vars(ctx: Context) -> tuple[VarName, ...]:
    """Variables that appear in no declared type, in context order.

    It needs no pasting context (declarations are applied over any
    telescope); on a pasting context it lists the leaves of its tree.
    """
    used: set[VarName] = set()
    for _, ty in ctx.entries:
        used |= free_vars(ty)
    return tuple(v for v in ctx.vars if v not in used)


# ---------------------------------------------------------------------------
# Unbiased composites
# ---------------------------------------------------------------------------


def unbiased_type(ctx: Context) -> Type:
    """The canonical composite type over a pasting context; raises
    NotPasting on any other context."""
    s = shape(ctx)
    if s is None:
        ctx_to_tree(ctx)  # raises NotPasting with the reason
    return s.unbiased


def _unbiased_type(t: BataninTree) -> Type:
    """The unbiased type over the emission of t."""
    if is_linear(t):  # a disc: the type of its top cell, built down the trunk
        ty = STAR
        while t.branches:
            ty, t = Arr(Var(t.labels[0]), ty, Var(t.labels[1])), t.branches[0]
        return ty
    k = tree_depth(t) - 1
    src = tree_boundary(t, k, NEG)
    tgt = tree_boundary(t, k, POS)
    return Arr(_unbiased_term(src), _unbiased_type(src), _unbiased_term(tgt))


def _unbiased_term(t: BataninTree) -> Term:
    """The unbiased composite over the emission of t."""
    if is_linear(t):  # a disc: its top cell, at the end of its trunk
        while t.branches:
            t = t.branches[0]
        return Var(t.labels[0])
    ctx = tree_to_ctx(t)
    return Coh(ctx, _unbiased_type(t), identity_sub(ctx))

