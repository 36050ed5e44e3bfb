"""Insertion: grafting one pasting diagram into another at a locally
maximal cell, together with the canonical substitutions in and out of the
result and the combined argument substitution of an insertion redex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DuplicateVariable,
    HeadMismatch,
    LinearHeightTooSmall,
    MalformedSyntax,
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
    dim_term,
    dim_type,
    fresh_name,
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


@dataclass(frozen=True)
class InsertionProblem:
    outer: Context
    var: VarName
    inner: Context
    inner_type: Type


@dataclass(frozen=True)
class InsertionResult:
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
    assert len(t.branches) == 1  # by the linear-height condition
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
    """Insert the inner pasting context in place of a locally maximal cell.

    The inner labels are freshened against every outer label (primes are
    appended) before splicing.  The internal substitution maps each inner
    variable to its fresh image; the external substitution keeps surviving
    outer variables and sends each erased boundary of the cell to the
    matching boundary of the inner coherence.
    """
    outer, x, inner, inner_type = (
        problem.outer,
        problem.var,
        problem.inner,
        problem.inner_type,
    )
    s = ctx_to_tree(outer)
    t = ctx_to_tree(inner)
    path = branching_path(s, x)  # raises NotLocallyMaximal
    if type_linear_height(inner_type) < len(path) - 1:
        raise LinearHeightTooSmall(
            f"inner type has linear height {type_linear_height(inner_type)}, "
            f"need at least {len(path) - 1}"
        )
    taken = set(outer.vars)
    ren: dict[VarName, VarName] = {}
    for label in inner.vars:
        ren[label] = fresh = fresh_name(label, taken)
        taken.add(fresh)
    inserted = tree_to_ctx(insert_tree(s, path, relabel_tree(t, ren)))

    internal = Substitution(tuple((v, Var(ren[v])) for v in inner.vars))
    inner_coh: Term = Coh(inner, inner_type, internal)

    boundary_of_x: dict[VarName, tuple[int, str]] = {}
    dx = dim_term(outer, Var(x))
    for m in range(dx):
        for sign in (NEG, POS):
            b = term_boundary(outer, Var(x), m, sign)
            assert isinstance(b, Var), "pasting context boundaries are variables"
            boundary_of_x[b.name] = (m, sign)
    boundary_of_x[x] = (dx, NEG)

    surviving = set(inserted.vars)
    entries: list[tuple[VarName, Term]] = []
    for y in outer.vars:
        if y in surviving:
            entries.append((y, Var(y)))
        else:
            if y not in boundary_of_x:
                raise MalformedSyntax(
                    f"erased variable '{y}' is not a boundary of '{x}'"
                )
            m, sign = boundary_of_x[y]
            entries.append((y, term_boundary(inserted, inner_coh, m, sign)))
    external = Substitution(tuple(entries))
    return InsertionResult(problem, inserted, internal, external)


def insert_sub(
    sigma: Substitution, x: VarName, tau: Substitution, result: InsertionResult
) -> Substitution:
    """Combine argument substitutions through an insertion.

    Variables surviving from the outer context map via sigma, variables
    originating from the inner context map via tau.  The argument at x must
    be the inner coherence applied to tau.
    """
    problem = result.problem
    if x != problem.var:
        raise HeadMismatch(f"insertion was performed at '{problem.var}', not '{x}'")
    expected = Coh(problem.inner, problem.inner_type, tau)
    try:
        actual = sigma.lookup(x)
    except SubstitutionUndefined as exc:
        raise HeadMismatch(f"'{x}' missing from the outer substitution") from exc
    if actual != expected:
        raise HeadMismatch(
            f"argument at '{x}' is not the inner coherence applied to tau"
        )
    from_inner = {new.name: old for old, new in result.internal}
    entries: list[tuple[VarName, Term]] = []
    for v in result.inserted.vars:
        if v in from_inner:
            entries.append((v, tau.lookup(from_inner[v])))
        else:
            entries.append((v, sigma.lookup(v)))
    return Substitution(tuple(entries))
