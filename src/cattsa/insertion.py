"""Insertion: grafting one pasting diagram into another at a locally
maximal cell, together with the canonical substitutions in and out of the
result.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    DimensionError,
    LinearHeightTooSmall,
    NotLocallyMaximal,
    SubstitutionUndefined,
)
from .syntax import (
    Arr,
    Coh,
    Context,
    Substitution,
    Term,
    Type,
    Var,
    VarName,
    apply_sub_term,
    dim_type,
    type_boundary,
)
from .trees import (
    BataninTree,
    TreePath,
    cell_table,
    ctx_to_tree,
    emission,
    linear_height,
    relabel_tree,
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


def _splice(s: BataninTree, path: TreePath, t: BataninTree) -> BataninTree:
    """Splice t into s along path, the branching path of a cell of s that
    insert_ctx reads off the cell table, with t's linear height checked."""
    n = path[0]
    if len(path) == 1 and len(s.labels) == 1:
        return t
    # the last step puts t's branches in place of branch n, an earlier one its splice
    branches = t.branches if len(path) == 1 else (_splice(s.branches[n], path[1:], t.branches[0]),)
    return BataninTree(s.labels[:n] + t.labels + s.labels[n + 2 :],
                       s.branches[:n] + branches + s.branches[n + 1 :])


# ---------------------------------------------------------------------------
# Linear height of a type
# ---------------------------------------------------------------------------


def type_linear_height(ty: Type) -> int:
    """Largest n such that every boundary endpoint of dimension below n is
    a variable; a type with only variable endpoints has its own dimension."""
    height = 0  # the run of dimensions with variable endpoints, from the top down
    while isinstance(ty, Arr):
        height = height + 1 if isinstance(ty.src, Var) and isinstance(ty.tgt, Var) else 0
        ty = ty.base
    return height


# ---------------------------------------------------------------------------
# Context insertion
# ---------------------------------------------------------------------------


def insert_ctx(problem: InsertionProblem) -> InsertionResult:
    """Insert the inner pasting context in place of a locally maximal cell
    x, which needs an inner type and tree with enough linear height, and an
    inner type of x's dimension; x's path and boundary are read off cell_table.

    Each inner label in turn is freshened: primes are appended until no
    outer label and no earlier inner image has the name.  Only the labels
    whose name changed are recorded, and relabel_tree rebuilds only the
    nodes that hold one.  So the splice repeats no label, and its emission
    is not checked for one.  The internal substitution maps each inner
    variable to its image, and its memo keeps, as _ren, the names that
    changed; the external one keeps the surviving outer
    variables and sends x and its boundary, erased by the splice, to the
    inner coherence and its boundary.  The external map's lookup is image,
    which raises SubstitutionUndefined on a name outside the outer context,
    so carrying a head type through it makes only the images the type
    names: making every image at once raised the median of an in-process
    pass over the benchmark's nfold cases from about 12 to 13.7 ms (seed
    101, CPython 3.11, 2 shared vCPUs).  Both maps make their values when
    first read, and an inner type not over inner raises
    SubstitutionUndefined only then.
    """
    outer, x, inner, inner_type = problem
    s, t = ctx_to_tree(outer), ctx_to_tree(inner)
    if (cell := cell_table(outer).get(x)) is None:
        raise NotLocallyMaximal(x)
    path, erased = cell  # x's boundary cells: the labels beside the way down to x
    if (height := type_linear_height(inner_type)) < (need := len(path) - 1):
        raise LinearHeightTooSmall(f"inner type has linear height {height}, need at least {need}")
    if (di := dim_type(inner_type)) != (dx := len(erased) // 2):
        raise DimensionError(f"inner coherence has dimension {di}, '{x}' has dimension {dx}")
    taken, ren = dict.fromkeys(outer.vars, True), {}  # whether each name taken is outer
    for v in inner.vars:
        w = v
        while w in taken:
            w += "'"
        taken[w] = False
        if w != v:
            ren[v] = w
    if (height := linear_height(t)) < need:
        raise LinearHeightTooSmall(f"linear height {height} < path length {len(path)} - 1")
    inserted = emission(_splice(s, path, relabel_tree(t, ren)))
    renamed = lambda: tuple(Var(ren.get(v, v)) for v in inner.vars)  # noqa: E731
    internal = Substitution.deferred(inner.vars, renamed, _ren=ren)

    def image(y: VarName) -> Term:
        if y not in erased:  # x, a cell the splice keeps, or no outer name
            if not taken.get(y):
                raise SubstitutionUndefined(y)
            return Coh(inner, inner_type, internal) if y == x else Var(y)
        b = type_boundary(inner_type, *erased[y])  # a variable below the type's linear height
        if isinstance(b, Var) and b.name in inner.vars:
            return Var(ren.get(b.name, b.name))
        return apply_sub_term(b, internal)  # raises SubstitutionUndefined on a name not in inner

    external = Substitution.deferred(outer.vars, lambda: tuple(map(image, outer.vars)), lookup=image)
    return InsertionResult(problem, inserted, internal, external)

