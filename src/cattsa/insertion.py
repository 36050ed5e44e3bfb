"""Insertion: grafting one pasting diagram into another at a locally
maximal cell, together with the canonical substitutions in and out of the
result and the combined argument substitution of an insertion redex.
"""

from __future__ import annotations

from itertools import chain, count
from operator import attrgetter
from typing import NamedTuple

from .errors import (
    DimensionError,
    DuplicateVariable,
    HeadMismatch,
    LinearHeightTooSmall,
    PathInvalid,
    SubstitutionUndefined,
)
from .syntax import (
    NEG,
    POS,
    Coh,
    Context,
    Substitution,
    Term,
    Type,
    Var,
    VarName,
    dim_type,
    identity_sub,
    term_boundary,
    type_boundary,
)
from .trees import (
    BataninTree,
    TreePath,
    all_labels,
    branching_path,
    ctx_to_tree,
    linear_height,
    relabel_tree,
    tree_to_ctx,
)


class InsertionProblem(NamedTuple):
    outer: Context
    var: VarName
    inner: Context
    inner_type: Type


class InsertionResult(NamedTuple):
    problem: InsertionProblem
    inserted: Context
    internal: Substitution  # inner -> inserted, variable to variable
    external: Substitution  # outer -> inserted


# ---------------------------------------------------------------------------
# Tree insertion
# ---------------------------------------------------------------------------


def insert_tree(s: BataninTree, path: TreePath, t: BataninTree) -> BataninTree:
    """Splice t into s along path.

    A singleton path [n] replaces labels n and n+1 and branch n of s by the
    labels and branches of t; a longer path recurses into the sole branch
    of t, which exists by the linear-height condition.
    """
    if not path:
        raise PathInvalid("empty path")
    if linear_height(t) < len(path) - 1:
        raise LinearHeightTooSmall(
            f"linear height {linear_height(t)} < path length {len(path)} - 1"
        )
    overlap = set(all_labels(s)) & set(all_labels(t))
    if overlap:
        raise DuplicateVariable(sorted(overlap)[0], "tree insertion")
    return _splice(s, path, t)


def _splice(s: BataninTree, path: TreePath, t: BataninTree) -> BataninTree:
    n = path[0]
    if len(path) == 1:
        if len(s.labels) == 1:
            if n != 0:
                raise PathInvalid(f"path head {n} in a branchless tree")
            return t
        if n > len(s.labels) - 2:
            raise PathInvalid(f"path head {n} out of range")
        return BataninTree(
            s.labels[:n] + t.labels + s.labels[n + 2 :],
            s.branches[:n] + t.branches + s.branches[n + 1 :],
        )
    if n >= len(s.branches):
        raise PathInvalid(f"path head {n} out of range")
    if len(t.branches) != 1:  # t is not linearly high enough
        raise LinearHeightTooSmall(f"linear height 0 < path length {len(path)} - 1")
    inner = _splice(s.branches[n], path[1:], t.branches[0])
    return BataninTree(
        s.labels[:n] + t.labels + s.labels[n + 2 :],
        s.branches[:n] + (inner,) + s.branches[n + 1 :],
    )


# ---------------------------------------------------------------------------
# Linear height of a type
# ---------------------------------------------------------------------------


def type_linear_height(ty: Type) -> int:
    """Largest n such that every boundary endpoint of dimension below n is
    a variable; a type with only variable endpoints has its own dimension."""
    n = dim_type(ty)
    for m in range(n):
        if not isinstance(type_boundary(ty, m, NEG), Var):
            return m
        if not isinstance(type_boundary(ty, m, POS), Var):
            return m
    return n


# ---------------------------------------------------------------------------
# Context insertion
# ---------------------------------------------------------------------------


def insert_ctx(problem: InsertionProblem) -> InsertionResult:
    """Insert the inner pasting context in place of a locally maximal cell
    x, which needs an inner type with enough linear height and x's dimension.

    Each inner label in turn is freshened: primes are appended until no
    outer label and no earlier inner image has the name.  Only the labels
    whose name changed are recorded, and relabel_tree rebuilds only the
    nodes that hold one.  The internal substitution maps each inner
    variable to its image; the external one keeps the surviving outer
    variables and sends x and its boundary, erased by the splice, to the
    inner coherence and its boundary.
    """
    outer, x, inner, inner_type = problem
    s, t = ctx_to_tree(outer), ctx_to_tree(inner)
    path = branching_path(s, x)  # raises NotLocallyMaximal
    if type_linear_height(inner_type) < len(path) - 1:
        raise LinearHeightTooSmall(
            f"inner type has linear height {type_linear_height(inner_type)}, "
            f"need at least {len(path) - 1}"
        )
    external, ty = list(identity_sub(outer).entries), outer.lookup(x)
    dx = dim_type(ty)
    if (di := dim_type(inner_type)) != dx:
        raise DimensionError(f"inner coherence has dimension {di}, '{x}' has dimension {dx}")
    outer_at = dict(zip(outer.vars, count()))
    ren: dict[VarName, VarName] = {}
    images: set[VarName] = set()
    for v in inner.vars:
        w = v
        while w in outer_at or w in images:
            w += "'"
        images.add(w)
        if w != v:
            ren[v] = w
    tree = _splice(s, path, relabel_tree(t, ren))
    inserted = tree_to_ctx(tree)  # raises DuplicateVariable on a clash

    internal = Substitution(tuple(zip(inner.vars, map(Var, map(ren.get, inner.vars, inner.vars)))))
    inner_coh: Term = Coh(inner, inner_type, internal)
    erased = [(type_boundary(ty, m, sign).name, m, sign) for m in range(dx) for sign in (NEG, POS)]
    for y, m, sign in erased + [(x, dx, NEG)]:
        external[outer_at[y]] = (y, term_boundary(inserted, inner_coh, m, sign))
    return InsertionResult(problem, inserted, internal, Substitution(tuple(external)))


def insert_sub(
    sigma: Substitution, x: VarName, tau: Substitution, result: InsertionResult
) -> Substitution:
    """Combine argument substitutions through an insertion.

    Variables surviving from the outer context map via sigma, variables
    originating from the inner context map via tau.  The argument at x must
    be the inner coherence applied to tau; when it is built from the very
    inner context, type and tau, it is not built again to compare.
    """
    problem = result.problem
    if x != problem.var:
        raise HeadMismatch(f"insertion was performed at '{problem.var}', not '{x}'")
    actual = sigma.lookup(x) if sigma.has(x) else None
    if not (isinstance(actual, Coh) and actual.ctx is problem.inner
            and actual.ty is problem.inner_type and actual.sub is tau):
        expected = Coh(problem.inner, problem.inner_type, tau)
        if actual is None:
            raise HeadMismatch(f"'{x}' missing from the outer substitution")
        if actual != expected:
            raise HeadMismatch(f"argument at '{x}' is not the inner coherence applied to tau")
    # tau's domain is the inner context's variables, in the order internal maps them
    renamed = map(attrgetter("name"), result.internal.values)
    table = dict(chain(sigma.entries, zip(renamed, tau.values)))
    names = result.inserted.vars
    try:
        return Substitution(tuple(zip(names, map(table.__getitem__, names))))
    except KeyError as exc:
        raise SubstitutionUndefined(exc.args[0]) from None
