"""Pasting contexts: boundaries, unbiased composites, discs.

The pasting judgement is the tree parse trees.ctx_to_tree: a context is
pasting exactly when it is the emission of a Batanin tree.  Everything
here that needs a pasting context parses it once and reads the answer off
the tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, NotPasting
from .syntax import (
    NEG,
    POS,
    STAR,
    Arr,
    Coh,
    Context,
    Sign,
    Star,
    Substitution,
    Term,
    Type,
    Var,
    VarName,
    dim_term,
    identity_sub,
    term_boundary,
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


def is_pasting(ctx: Context) -> bool:
    try:
        ctx_to_tree(ctx)
        return True
    except NotPasting:
        return False


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
        used |= _type_vars(ty)
    return tuple(v for v in ctx.vars if v not in used)


def _type_vars(ty: Type) -> set[VarName]:
    if isinstance(ty, Star):
        return set()
    assert isinstance(ty, Arr)
    return _term_vars(ty.src) | _type_vars(ty.base) | _term_vars(ty.tgt)


def _term_vars(t: Term) -> set[VarName]:
    if isinstance(t, Var):
        return {t.name}
    assert isinstance(t, Coh)
    out: set[VarName] = set()
    for _, u in t.sub.entries:
        out |= _term_vars(u)
    return out


def locally_maximal(ctx: Context) -> frozenset[VarName]:
    return frozenset(leaf_labels(ctx_to_tree(ctx)))


def is_disc_ctx(ctx: Context) -> bool:
    """A pasting context with exactly one locally maximal cell."""
    try:
        return is_linear(ctx_to_tree(ctx))
    except NotPasting:
        return False


# ---------------------------------------------------------------------------
# Unbiased composites
# ---------------------------------------------------------------------------


def unbiased_type(ctx: Context) -> Type:
    """The canonical composite type over a pasting context."""
    return _unbiased_type(ctx_to_tree(ctx))


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
    try:
        tree = ctx_to_tree(t.ctx)
    except NotPasting:
        return False
    return t.ty == _unbiased_type(tree)


# ---------------------------------------------------------------------------
# Disc contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscContext:
    n: int
    ctx: Context


def disc_var(m: int, sign: Sign) -> VarName:
    return f"d{m}m" if sign == NEG else f"d{m}p"


def disc_context(n: int) -> DiscContext:
    """The pasting context of a single n-cell with its boundary tower."""
    if n < 0:
        raise DimensionError("disc dimension must be non-negative")
    entries: list[tuple[VarName, Type]] = [(disc_var(0, NEG), STAR)]
    ty: Type = STAR
    for m in range(n):
        entries.append((disc_var(m, POS), ty))
        ty = Arr(Var(disc_var(m, NEG)), ty, Var(disc_var(m, POS)))
        entries.append((disc_var(m + 1, NEG), ty))
    return DiscContext(n, Context(tuple(entries)))


def to_disc_sub(ctx: Context, t: Term) -> Substitution:
    """The substitution out of the disc classifying t: boundaries then t itself."""
    n = dim_term(ctx, t)
    entries: list[tuple[VarName, Term]] = []
    for m in range(n):
        entries.append((disc_var(m, NEG), term_boundary(ctx, t, m, NEG)))
        entries.append((disc_var(m, POS), term_boundary(ctx, t, m, POS)))
    entries.append((disc_var(n, NEG), t))
    return Substitution(tuple(entries))
