"""Labelled Batanin trees: the pasting judgement and tree combinatorics.

A tree carries one more label than it has branches; the labels at depth k
name the k-cells of the pasting context, and the branch between two
consecutive labels holds the part of the diagram suspended between them.
A context is pasting exactly when it is the emission of a tree
(tree_to_ctx), so the strict parse ctx_to_tree is the pasting judgement;
boundaries are read off the tree by tree_boundary.

Trees are immutable values.  The constructor checks only that a node has
one more label than branches; tree_to_ctx also checks that the labels are
pairwise distinct, and records the tree in the memo of the context it emits
(syntax.Context.derived), and ctx_to_tree parses a context at most once,
so a context built by insertion is never re-parsed; cell_table walks the
tree once for the branching path and boundary of every maximal cell.
"""

from __future__ import annotations

from operator import is_
from typing import Iterable

from .errors import DuplicateVariable, MalformedSyntax, NotPasting
from .syntax import NEG, POS, STAR, Arr, Context, Frozen, Sign, Type, Var, VarName

TreePath = tuple[int, ...]

_TREE = "_tree"  # memo key of a context's Batanin tree


class BataninTree(Frozen):
    __slots__ = _fields = ("labels", "branches")

    def __init__(self, labels: Iterable[VarName], branches: Iterable[BataninTree]) -> None:
        labels, branches = tuple(labels), tuple(branches)
        if len(labels) != len(branches) + 1:
            raise MalformedSyntax(
                f"tree needs |labels| = |branches| + 1, got {len(labels)} "
                f"and {len(branches)}"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "branches", branches)

    def __eq__(self, other: object) -> bool:
        return ((self.labels, self.branches) == (other.labels, other.branches)
                if other.__class__ is BataninTree else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.labels, self.branches))

    def __str__(self) -> str:
        return tree_to_bracket(self)


def all_labels(t: BataninTree) -> tuple[VarName, ...]:
    """Every label of the tree, in pasting-context emission order."""
    out: list[VarName] = [t.labels[0]]
    for hi, br in zip(t.labels[1:], t.branches):
        out.append(hi)
        out.extend(all_labels(br) if br.branches else br.labels)
    return tuple(out)


def label_free(t: BataninTree) -> tuple:
    """t without its labels: the tuple of its branches without theirs."""
    return tuple(map(label_free, t.branches))


def tree_depth(t: BataninTree) -> int:
    return 1 + max(tree_depth(br) for br in t.branches) if t.branches else 0


def linear_height(t: BataninTree) -> int:
    """Height of the tree before any branching occurs."""
    return 1 + linear_height(t.branches[0]) if len(t.branches) == 1 else 0


def is_linear(t: BataninTree) -> bool:
    return not t.branches or len(t.branches) == 1 and is_linear(t.branches[0])


# ---------------------------------------------------------------------------
# Tree <-> context
# ---------------------------------------------------------------------------


def tree_to_ctx(t: BataninTree) -> Context:
    """The emission of t; a repeated label raises DuplicateVariable (in
    context).  The check is here and not in the constructor: a parse of a
    context, a boundary, a relabelling to names that no other label has
    and a splice of disjoint trees keep the labels distinct, and a check
    in the constructor would walk every subtree once per node above it."""
    seen: set[VarName] = set()
    for name in all_labels(t):
        if name in seen:
            raise DuplicateVariable(name, "context")
        seen.add(name)
    return emission(t)


def emission(t: BataninTree) -> Context:
    """The emission of t, its entries emitted when first read; for a tree
    known to repeat no label, as it checks for none."""
    build = lambda _: tuple(_emit(t, STAR, [(t.labels[0], STAR)]))  # noqa: E731
    return Context.deferred(all_labels(t), _build=build, **{_TREE: t})


def _emit(t: BataninTree, base: Type, out: list[tuple[VarName, Type]]) -> list:
    """out, with the entries of t over base after its first label appended:
    each later label, then the branch before it."""
    for lo, hi, br in zip(t.labels, t.labels[1:], t.branches):
        sub_base = Arr(Var(lo), base, Var(hi))
        out += ((hi, base), (br.labels[0], sub_base))
        if br.branches:
            _emit(br, sub_base, out)
    return out


def ctx_to_tree(ctx: Context) -> BataninTree:
    """The tree whose emission is ctx: the pasting judgement.

    Raises NotPasting on an empty context, on an entry whose type is not
    the suspended base the parse expects, and on entries left over.  Only
    a successful parse is memoised, so a non-pasting context raises on
    every call.
    """
    return ctx.derived(_TREE, _parse_ctx)


def _parse_ctx(ctx: Context) -> BataninTree:
    t, i = _parse(ctx.entries, 0, STAR)
    if i != len(ctx.entries):
        v, ty = ctx.entries[i]
        raise NotPasting(i, f"entry '{v}' of type {ty} does not extend the diagram")
    return t


def _parse(
    entries: tuple[tuple[VarName, Type], ...], i: int, base: Type
) -> tuple[BataninTree, int]:
    if i == len(entries):
        raise NotPasting(i, f"missing an entry of type {base}")
    v, ty = entries[i]
    if ty != base:
        raise NotPasting(i, f"entry '{v}' has type {ty}, expected {base}")
    labels = [v]
    branches: list[BataninTree] = []
    i += 1
    while i < len(entries) and entries[i][1] == base:
        w = entries[i][0]
        i += 1
        sub_base = Arr(Var(labels[-1]), base, Var(w))
        br, i = _parse(entries, i, sub_base)
        labels.append(w)
        branches.append(br)
    return BataninTree(labels, branches), i


def tree_boundary(t: BataninTree, k: int, sign: Sign) -> BataninTree:
    """The source (-) or target (+) k-boundary: each node at depth k keeps
    only its first (-) or last (+) label."""
    if k == 0:
        return BataninTree((t.labels[0] if sign == NEG else t.labels[-1],), ())
    return BataninTree(t.labels, tuple(tree_boundary(br, k - 1, sign) for br in t.branches))


# ---------------------------------------------------------------------------
# Branching paths
# ---------------------------------------------------------------------------


def cell_table(ctx: Context) -> dict[VarName, tuple[TreePath, dict[VarName, tuple[int, Sign]]]]:
    """Each locally maximal cell of the pasting context ctx, in context order,
    with its branching path and its boundary cells (the labels beside the way
    down to it, with dimension and sign): one walk of the tree, memoised on ctx."""
    return ctx.derived("_cells", _new_cell_table)


def _new_cell_table(ctx: Context) -> dict:
    return _cells(ctx_to_tree(ctx), (), {}, 1, {})


def _cells(t: BataninTree, path: TreePath, boundary: dict, cut: int, out: dict) -> dict:
    """out, with the cells of t added: path leads to t, boundary holds the
    labels beside it, and path[:cut] ends at the last branching node above."""
    if not t.branches:
        out[t.labels[0]] = path[:cut] or (0,), boundary
    m, cut = len(path), len(path) + 1 if len(t.branches) > 1 else cut
    for n, (lo, hi, br) in enumerate(zip(t.labels, t.labels[1:], t.branches)):
        _cells(br, path + (n,), {**boundary, lo: (m, NEG), hi: (m, POS)}, cut, out)
    return out


def relabel_tree(t: BataninTree, mapping: dict[VarName, VarName]) -> BataninTree:
    """t with its labels renamed by mapping, in one walk that rebuilds only
    the nodes where a label or a branch changed and returns every other
    subtree as the same object (a leaf, renamed or not, without a call)."""
    if not mapping:
        return t
    labels = tuple(map(mapping.get, t.labels, t.labels))
    branches = [relabel_tree(br, mapping) if br.branches
                else BataninTree((mapping[br.labels[0]],), ()) if br.labels[0] in mapping
                else br for br in t.branches]
    if labels == t.labels and all(map(is_, branches, t.branches)):
        return t
    return BataninTree(labels, branches)


# ---------------------------------------------------------------------------
# Bracket notation
# ---------------------------------------------------------------------------


def tree_to_bracket(t: BataninTree) -> str:
    """Render as alternating labels and bracketed branches: [x [f] y [g] z]."""
    parts = [t.labels[0]]
    for i, br in enumerate(t.branches):
        parts.append(tree_to_bracket(br))
        parts.append(t.labels[i + 1])
    return "[" + " ".join(parts) + "]"

