"""Batanin trees: conversions, linear height, branching paths, cell
tables, brackets."""

from __future__ import annotations

import pickle
from itertools import chain, repeat

import pytest
from hypothesis import given, settings, strategies as st

from cattsa.errors import DuplicateVariable, MalformedSyntax, NotLocallyMaximal, NotPasting
from cattsa.insertion import InsertionProblem, insert_ctx
from cattsa.pasting import unbiased_type
from cattsa.syntax import NEG, POS, STAR, Context, alpha_eq
from cattsa.trees import (
    BataninTree,
    all_labels,
    cell_table,
    ctx_to_tree,
    is_linear,
    linear_height,
    tree_depth,
    tree_to_bracket,
    tree_to_ctx,
)
from helpers import (
    DELTA,
    HCOMP2,
    THETA,
    THETA_PRIMED,
    VERT2,
    WHISKER_L,
    WHISKER_R,
    ctx,
    dim_ctx,
    enumerate_trees,
    star,
    tree,
)
from oracles import _leaf_search, leaf_labels

LEAF = tree(["x"])
DELTA_TREE = tree(
    ["x", "y", "z"],
    [
        tree(["f", "g", "h"], [tree(["alpha"]), tree(["beta"])]),
        tree(["k"]),
    ],
)
THETA_TREE = tree(
    ["x'", "y'"],
    [tree(["f'", "g'", "h'"], [tree(["alpha'"]), tree(["beta'"])])],
)


def test_tree_invariants_enforced():
    with pytest.raises(MalformedSyntax):
        BataninTree(("x", "y"), ())
    with pytest.raises(MalformedSyntax):
        BataninTree((v for v in "xy"), (br for br in ()))


def test_a_tree_built_from_any_iterables_is_the_same_value():
    # the constructor stores tuples, whatever iterables it is given
    leaf = BataninTree(("f",), ())
    built = [
        BataninTree(("x", "y"), (leaf,)),
        BataninTree(["x", "y"], [BataninTree(["f"], [])]),
        BataninTree(iter(["x", "y"]), iter([BataninTree(iter(["f"]), iter([]))])),
        BataninTree((v for v in ["x", "y"]), (br for br in [leaf])),
    ]
    for t in built:
        assert type(t.labels) is tuple and type(t.branches) is tuple
        assert t == built[0] and hash(t) == hash(built[0])
        assert pickle.dumps(t) == pickle.dumps(built[0])
        emitted = tree_to_ctx(t)
        assert emitted == tree_to_ctx(built[0])
        assert ctx_to_tree(emitted) == built[0]
        assert ctx_to_tree(Context(emitted.entries)) == t


def test_tree_to_ctx_rejects_a_raw_tree_that_repeats_a_label():
    # the constructor checks no labels, so the emission's check reports it
    raw = BataninTree(("x", "y", "x"), (BataninTree(("f",), ()), BataninTree(("g",), ())))
    with pytest.raises(DuplicateVariable) as exc:
        tree_to_ctx(raw)
    assert str(exc.value) == "duplicate variable 'x' in context"


def test_singleton_tree_to_ctx():
    assert tree_to_ctx(LEAF) == ctx(("x", star))


def test_delta_tree_to_ctx():
    assert tree_to_ctx(DELTA_TREE) == DELTA


def test_theta_tree_to_ctx():
    got = tree_to_ctx(THETA_TREE)
    assert alpha_eq(got, THETA)
    assert [v for v, _ in got.entries] == ["x'", "y'", "f'", "g'", "alpha'", "h'", "beta'"]


def test_ctx_to_tree_point():
    assert ctx_to_tree(ctx(("x", star))) == LEAF


def test_ctx_to_tree_delta():
    assert ctx_to_tree(DELTA) == DELTA_TREE


def test_ctx_to_tree_rejects_non_pasting():
    with pytest.raises(NotPasting):
        ctx_to_tree(ctx(("x", star), ("y", star)))


def test_round_trip_exhaustive():
    trees = enumerate_trees(7)
    assert len(trees) == 9  # sizes 1, 3, 5, 7 give 1 + 1 + 2 + 5 shapes
    for t in trees:
        assert ctx_to_tree(tree_to_ctx(t)) == t


def test_linear_height_examples():
    assert linear_height(DELTA_TREE) == 0
    assert linear_height(THETA_TREE) == 1
    assert linear_height(LEAF) == 0


def test_is_linear():
    assert is_linear(LEAF)
    assert is_linear(tree(["a", "b"], [tree(["c"])]))
    assert not is_linear(DELTA_TREE)


def test_branching_path_examples():
    table = cell_table(tree_to_ctx(DELTA_TREE))
    assert table["alpha"][0] == _leaf_search(DELTA_TREE, "alpha")[0] == (0, 0)
    assert table["k"][0] == _leaf_search(DELTA_TREE, "k")[0] == (1,)
    assert cell_table(tree_to_ctx(LEAF))["x"][0] == _leaf_search(LEAF, "x")[0] == (0,)


def test_branching_path_rejects_non_maximal():
    table = cell_table(tree_to_ctx(DELTA_TREE))
    for x in ("f", "missing"):  # a 1-cell and no cell
        assert x not in table
        assert _leaf_search(DELTA_TREE, x) is None


def _boundary_by_steps(t: BataninTree, path: tuple[int, ...]) -> dict:
    """The boundary cells of the leaf at the end of path (then down its
    linear branch), one step at a time, as insert_ctx found them before
    the cell table: the oracle of its boundaries."""
    node, erased = t, {}
    for m, n in enumerate(chain(path, repeat(0))):  # the path, then x's linear branch
        if not node.branches:
            break
        erased[node.labels[n]], erased[node.labels[n + 1]] = (m, NEG), (m, POS)
        node = node.branches[n]
    return erased


def test_the_cell_table_agrees_with_the_tree_walks():
    # the oracles walk the tree on their own
    trees = enumerate_trees(11)
    assert len(trees) == 65
    for t in trees:
        emitted = tree_to_ctx(t)
        table = cell_table(emitted)
        assert tuple(table) == leaf_labels(t)
        for x, (path, boundary) in table.items():
            assert path == _leaf_search(t, x)[0]
            assert list(boundary.items()) == list(_boundary_by_steps(t, path).items())
        for x in set(all_labels(t)) - set(table):
            assert _leaf_search(t, x) is None
        assert cell_table(emitted) is table
        # a context with the same entries and no memo parses to the same table
        assert cell_table(Context(emitted.entries)) == table


def test_a_cell_not_in_the_table_is_not_locally_maximal():
    inner = tree_to_ctx(tree(["a", "b"], [tree(["p"])]))
    for x in ("f", "y", "missing"):  # a 1-cell, a 0-cell and no cell of DELTA
        with pytest.raises(NotLocallyMaximal) as exc:
            insert_ctx(InsertionProblem(DELTA, x, inner, unbiased_type(inner)))
        assert str(exc.value) == f"variable '{x}' is not locally maximal"
        assert x not in cell_table(DELTA)
    with pytest.raises(NotPasting):
        cell_table(Context((("x", STAR), ("y", STAR))))


def test_tree_depth_matches_context_dimension():
    for t in enumerate_trees(7):
        assert tree_depth(t) == dim_ctx(tree_to_ctx(t))


def test_branching_path_region_contains_label():
    for t in enumerate_trees(7):
        for x, (path, _) in cell_table(tree_to_ctx(t)).items():
            node = t
            for i, n in enumerate(path):
                if not node.branches:
                    assert n == 0 and len(path) == i + 1
                    assert x in node.labels
                    break
                assert n < len(node.branches)
                node = node.branches[n]
            else:
                assert x in all_labels(node)


def test_bracket_rendering():
    assert tree_to_bracket(DELTA_TREE) == "[x [f [alpha] g [beta] h] y [k] z]"


def test_the_telescope_contexts_have_the_trees_their_comments_name():
    for context, bracket in [
        (DELTA, "[x [f [alpha] g [beta] h] y [k] z]"),
        (THETA, "[x [f [alpha] g [beta] h] y]"),
        (THETA_PRIMED, "[x' [f' [alpha'] g' [beta'] h'] y']"),
        (VERT2, "[x [f [alpha] g [beta] h] y]"),
        (WHISKER_R, "[x [f [alpha] g] y [k] z]"),
        (WHISKER_L, "[x [k] y [f [alpha] g] z]"),
        (HCOMP2, "[x [f [alpha] g] y [h [beta] i] z]"),
    ]:
        assert tree_to_bracket(ctx_to_tree(context)) == bracket


# ---------------------------------------------------------------------------
# Round trips on random trees, far beyond the enumerated sizes
# ---------------------------------------------------------------------------

MAX_NODES = 20  # a tree of n nodes has 2n - 1 labels, so up to 39 here


@st.composite
def batanin_trees(draw) -> BataninTree:
    """A random plane tree of at most MAX_NODES nodes, labelled v0, v1, ...
    in the order the labels are drawn."""
    names = iter(f"v{i}" for i in range(2 * MAX_NODES))

    def build(nodes: int) -> BataninTree:
        # a node with k branches carries k + 1 labels
        sizes = []
        rest = nodes - 1
        while rest:
            sizes.append(draw(st.integers(1, rest)))
            rest -= sizes[-1]
        labels = [next(names) for _ in range(len(sizes) + 1)]
        return BataninTree(tuple(labels), tuple(build(n) for n in sizes))

    return build(draw(st.integers(1, MAX_NODES)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(t=batanin_trees())
def test_round_trips_on_random_trees(t):
    emitted = tree_to_ctx(t)
    assert ctx_to_tree(emitted) == t
    # a context built from the same entries has no memo: this parses it
    assert ctx_to_tree(Context(emitted.entries)) == t
