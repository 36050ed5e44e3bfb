"""Labelled Batanin trees: the pasting judgement and tree combinatorics.

A tree carries one more label than it has branches; the labels at depth k
name the k-cells of the pasting context, and the branch between two
consecutive labels holds the part of the diagram suspended between them.
A context is pasting exactly when it is the emission of a tree
(tree_to_ctx), so the strict parse ctx_to_tree is the pasting judgement;
boundaries are read off the tree by tree_boundary.

Trees are immutable values.  tree_to_ctx records the tree in the memo of
the context it emits (syntax.Context.derived), and ctx_to_tree parses a
context at most once, so a context built by insertion is never re-parsed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DuplicateVariable,
    MalformedSyntax,
    NotLocallyMaximal,
    NotPasting,
    SurfaceSyntaxError,
)
from .syntax import NEG, STAR, Arr, Context, Sign, Type, Var, VarName

TreePath = tuple[int, ...]

_TREE = "_tree"  # memo key of a context's Batanin tree


@dataclass(frozen=True)
class BataninTree:
    labels: tuple[VarName, ...]
    branches: tuple["BataninTree", ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.branches) + 1:
            raise MalformedSyntax(
                f"tree needs |labels| = |branches| + 1, got {len(self.labels)} "
                f"and {len(self.branches)}"
            )
        seen: set[VarName] = set()
        for name in all_labels(self):
            if name in seen:
                raise DuplicateVariable(name, "tree")
            seen.add(name)

    def __str__(self) -> str:
        return tree_to_bracket(self)


def tree(labels: list[VarName] | tuple[VarName, ...], branches=()) -> BataninTree:
    return BataninTree(tuple(labels), tuple(branches))


def all_labels(t: BataninTree) -> tuple[VarName, ...]:
    """Every label of the tree, in pasting-context emission order."""
    out: list[VarName] = [t.labels[0]]
    for i, br in enumerate(t.branches):
        out.append(t.labels[i + 1])
        out.extend(all_labels(br))
    return tuple(out)


def leaf_labels(t: BataninTree) -> tuple[VarName, ...]:
    """Labels of branchless nodes: the locally maximal cells of the context."""
    if not t.branches:
        return t.labels
    out: list[VarName] = []
    for br in t.branches:
        out.extend(leaf_labels(br))
    return tuple(out)


def tree_depth(t: BataninTree) -> int:
    if not t.branches:
        return 0
    return 1 + max(tree_depth(br) for br in t.branches)


def linear_height(t: BataninTree) -> int:
    """Height of the tree before any branching occurs."""
    if len(t.branches) == 1:
        return 1 + linear_height(t.branches[0])
    return 0


def is_linear(t: BataninTree) -> bool:
    if not t.branches:
        return True
    return len(t.branches) == 1 and is_linear(t.branches[0])


# ---------------------------------------------------------------------------
# Tree <-> context
# ---------------------------------------------------------------------------


def tree_to_ctx(t: BataninTree) -> Context:
    entries: list[tuple[VarName, Type]] = []
    _emit(t, STAR, entries)
    ctx = Context(tuple(entries))
    ctx.derived(_TREE, lambda _: t)
    return ctx


def _emit(t: BataninTree, base: Type, out: list[tuple[VarName, Type]]) -> None:
    out.append((t.labels[0], base))
    for i, br in enumerate(t.branches):
        lo, hi = t.labels[i], t.labels[i + 1]
        out.append((hi, base))
        _emit(br, Arr(Var(lo), base, Var(hi)), out)


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
    return BataninTree(tuple(labels), tuple(branches)), i


def tree_boundary(t: BataninTree, k: int, sign: Sign) -> BataninTree:
    """The source (-) or target (+) k-boundary: each node at depth k keeps
    only its first (-) or last (+) label."""
    if k == 0:
        return BataninTree((t.labels[0] if sign == NEG else t.labels[-1],), ())
    return BataninTree(t.labels, tuple(tree_boundary(br, k - 1, sign) for br in t.branches))


# ---------------------------------------------------------------------------
# Branching paths
# ---------------------------------------------------------------------------


def branching_path(t: BataninTree, x: VarName) -> TreePath:
    """Path to the last branching point above the locally maximal label x.

    A branchless tree yields [0]; a label inside a linear branch yields the
    branch index; otherwise the index is prepended to the recursive path.
    """
    if x not in leaf_labels(t):
        raise NotLocallyMaximal(x)
    if not t.branches:
        return (0,)
    for n, br in enumerate(t.branches):
        if x in all_labels(br):
            if is_linear(br):
                return (n,)
            return (n,) + branching_path(br, x)
    raise NotLocallyMaximal(x)


def branching_height(t: BataninTree, x: VarName) -> int:
    return len(branching_path(t, x)) - 1


def relabel_tree(t: BataninTree, mapping: dict[VarName, VarName]) -> BataninTree:
    return BataninTree(
        tuple(mapping.get(l, l) for l in t.labels),
        tuple(relabel_tree(br, mapping) for br in t.branches),
    )


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


def bracket_to_tree(text: str) -> BataninTree:
    tokens = _tokenize_brackets(text)
    t, i = _parse_bracket(tokens, 0)
    if i != len(tokens):
        raise SurfaceSyntaxError("trailing input after tree", 1, i + 1)
    return t


def _tokenize_brackets(text: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "[]":
            out.append(c)
            i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise SurfaceSyntaxError(f"unexpected character {c!r} in tree literal", 1, i + 1)
    return out


def _parse_bracket(tokens: list[str], i: int) -> tuple[BataninTree, int]:
    if i >= len(tokens) or tokens[i] != "[":
        raise SurfaceSyntaxError("expected '['", 1, i + 1)
    i += 1
    labels: list[VarName] = []
    branches: list[BataninTree] = []
    expect_label = True
    while i < len(tokens) and tokens[i] != "]":
        if tokens[i] == "[":
            if expect_label:
                raise SurfaceSyntaxError("expected a label before a branch", 1, i + 1)
            br, i = _parse_bracket(tokens, i)
            branches.append(br)
            expect_label = False
        else:
            labels.append(tokens[i])
            i += 1
            expect_label = False
    # |labels| = |branches| + 1 is enforced by the constructor
    if i >= len(tokens):
        raise SurfaceSyntaxError("unclosed '['", 1, i + 1)
    return BataninTree(tuple(labels), tuple(branches)), i + 1
