"""Pasting contexts: boundaries, locally maximal cells, unbiased composites.

The pasting judgement is the tree parse trees.ctx_to_tree: a context is
pasting exactly when it is the emission of a Batanin tree.  Everything
here that needs a pasting context parses it once and reads the answer off
the tree.  The shape of a context (its tree, locally maximal cells and
unbiased type, or None when it is not pasting) is memoised on the
context; the pasting tests, the unbiased type and the normaliser's redex
test all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DimensionError, NotPasting
from .syntax import (
    NEG,
    POS,
    Arr,
    Coh,
    Context,
    Sign,
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
    leaf_labels,
    tree_boundary,
    tree_depth,
    tree_to_ctx,
)


@dataclass(frozen=True)
class Shape:
    """What the kernel reads off a pasting context."""

    tree: BataninTree
    maximal: tuple[VarName, ...]  # locally maximal cells, in context order
    unbiased: Type


def shape(ctx: Context) -> Optional[Shape]:
    """The shape of ctx, or None if it is not pasting; memoised on ctx."""
    return ctx.derived("_pasting_shape", _new_shape)


def _new_shape(ctx: Context) -> Optional[Shape]:
    try:
        tree = ctx_to_tree(ctx)
    except NotPasting:
        return None
    return Shape(tree, leaf_labels(tree), _unbiased_type(tree))


def is_pasting(ctx: Context) -> bool:
    return shape(ctx) is not None


# ---------------------------------------------------------------------------
# Boundary contexts
# ---------------------------------------------------------------------------


def boundary_ctx(ctx: Context, sign: Sign) -> Context:
    """The source (-) or target (+) pasting context, one dimension down."""
    t = ctx_to_tree(ctx)
    d = tree_depth(t)
    if d < 1:
        raise DimensionError("boundary of a 0-dimensional pasting context")
    return tree_to_ctx(tree_boundary(t, d - 1, sign))


# ---------------------------------------------------------------------------
# Locally maximal variables and discs
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


def locally_maximal(ctx: Context) -> frozenset[VarName]:
    return frozenset(leaf_labels(ctx_to_tree(ctx)))


def is_disc_ctx(ctx: Context) -> bool:
    """A pasting context with exactly one locally maximal cell."""
    s = shape(ctx)
    return s is not None and is_linear(s.tree)


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


def unbiased_term(ctx: Context) -> Term:
    """The canonical composite term over a pasting context."""
    return _unbiased_term(ctx_to_tree(ctx))


def _unbiased_type(t: BataninTree) -> Type:
    """The unbiased type over the emission of t."""
    if is_linear(t):  # a disc: the type of its top cell, emitted last
        return tree_to_ctx(t).entries[-1][1]
    k = tree_depth(t) - 1
    src = tree_boundary(t, k, NEG)
    tgt = tree_boundary(t, k, POS)
    return Arr(_unbiased_term(src), _unbiased_type(src), _unbiased_term(tgt))


def _unbiased_term(t: BataninTree) -> Term:
    if is_linear(t):
        return Var(leaf_labels(t)[0])
    ctx = tree_to_ctx(t)
    return Coh(ctx, _unbiased_type(t), identity_sub(ctx))


def is_unbiased(t: Term) -> bool:
    """True iff t is a coherence whose type is the unbiased type of its context."""
    if not isinstance(t, Coh):
        return False
    s = shape(t.ctx)
    return s is not None and t.ty == s.unbiased
