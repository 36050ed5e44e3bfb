"""Pasting contexts: locally maximal cells and unbiased composites.

The pasting judgement is the tree parse trees.ctx_to_tree: a context is
pasting exactly when it is the emission of a Batanin tree.  The unbiased
type of a pasting context is memoised on it by unbiased_type, which the
normaliser's redex test reads beside the tree and trees.cell_table; on
any other context each of the three raises NotPasting and memoises nothing.
"""

from __future__ import annotations

from typing import Optional

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


# ---------------------------------------------------------------------------
# Locally maximal variables
# ---------------------------------------------------------------------------


def maximal_vars(ctx: Context) -> tuple[VarName, ...]:
    """Variables that appear in no declared type, in context order.

    It needs no pasting context (declarations are applied over any
    telescope); on a pasting context it lists the leaves of its tree.
    """
    used: set[VarName] = set()
    for ty in ctx.values:
        used |= free_vars(ty)
    return tuple(v for v in ctx.vars if v not in used)


# ---------------------------------------------------------------------------
# Unbiased composites
# ---------------------------------------------------------------------------


def unbiased_type(ctx: Context, known: Optional[Type] = None) -> Type:
    """The canonical composite type over a pasting context, memoised on ctx;
    raises NotPasting on any other context.  A caller that knows it passes
    it as known, to memoise it."""
    return ctx.derived("_unbiased", _new_unbiased_type, known)


def _new_unbiased_type(ctx: Context, known: Optional[Type]) -> Type:
    tree = ctx_to_tree(ctx)  # raises NotPasting
    return known or _unbiased_type(tree)


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

