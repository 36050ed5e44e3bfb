"""The pasting judgement, boundary contexts, unbiased composites, discs."""

from __future__ import annotations

import pytest

from cattsa.errors import DimensionError, NotPasting
from cattsa.pasting import _unbiased_type, maximal_vars, unbiased_type
from cattsa.reduction import normalize
from cattsa.syntax import (
    NEG,
    POS,
    Arr,
    Coh,
    Context,
    Var,
    dim_type,
    identity_sub,
    support,
)
from cattsa.trees import cell_table, ctx_to_tree, is_linear, tree_to_ctx
from cattsa.typecheck import Mode, Session
from helpers import (
    CHAIN2,
    CHAIN3,
    DELTA,
    arr,
    boundary_ctx,
    chain,
    comp2,
    ctx,
    ctx_of_telescope,
    dim_ctx,
    enumerate_trees,
    is_pasting,
    pd_derivable,
    star,
    sub,
    tree,
    unbiased_term,
)
from oracles import disc_context, leaf_labels, to_disc_sub

POINT = ctx(("x", star))
ARROW = ctx(("x", star), ("y", star), ("f", arr("x", star, "y")))


def test_point_is_pasting():
    assert ctx_to_tree(POINT) == tree(["x"])
    assert tree_to_ctx(ctx_to_tree(POINT)) == POINT


def test_single_arrow_is_pasting():
    assert ctx_to_tree(ARROW) == tree(["x", "y"], [tree(["f"])])
    assert tree_to_ctx(ctx_to_tree(ARROW)) == ARROW


def test_two_points_rejected():
    with pytest.raises(NotPasting):
        ctx_to_tree(ctx(("x", star), ("y", star)))


def test_derivation_replay_reconstructs_context():
    assert ctx_to_tree(CHAIN3) == tree(
        ["x0", "x1", "x2", "x3"], [tree(["a1"]), tree(["a2"]), tree(["a3"])]
    )
    for context in (POINT, ARROW, CHAIN3, DELTA):
        assert tree_to_ctx(ctx_to_tree(context)) == context


def test_check_pd_agrees_with_exhaustive_search():
    # positive cases: every context arising from a tree
    contexts = [tree_to_ctx(t) for t in enumerate_trees(7)]
    for context in contexts:
        assert pd_derivable(context) and is_pasting(context)
    # mutations: dropping an entry or permuting entries must agree too
    for context in contexts:
        entries = context.entries
        for i in range(len(entries)):
            mutated = entries[:i] + entries[i + 1 :]
            try:
                c = Context(mutated)
            except Exception:
                continue
            assert pd_derivable(c) == is_pasting(c)
        if len(entries) >= 2:
            swapped = (entries[1], entries[0]) + entries[2:]
            c = Context(swapped)
            assert pd_derivable(c) == is_pasting(c)


def test_boundary_of_single_arrow():
    assert boundary_ctx(ARROW, NEG) == POINT
    assert boundary_ctx(ARROW, POS) == ctx(("y", star))


def test_boundary_of_delta():
    assert [v for v, _ in boundary_ctx(DELTA, NEG).entries] == ["x", "y", "f", "z", "k"]
    assert [v for v, _ in boundary_ctx(DELTA, POS).entries] == ["x", "y", "h", "z", "k"]


def test_boundary_drops_the_cells_covered_by_top_cells():
    # independent of the tree: a d-dimensional context's source (target)
    # boundary keeps every cell below dimension d - 1 and the (d - 1)-cells
    # that are not the target (source) of any d-cell
    cases = 0
    for t in enumerate_trees(11):
        context = tree_to_ctx(t)
        d = dim_ctx(context)
        if d < 1:
            continue
        top = [ty for _, ty in context.entries if dim_type(ty) == d]
        for sign, covered in ((NEG, {ty.tgt for ty in top}), (POS, {ty.src for ty in top})):
            expected = tuple(
                (v, ty)
                for v, ty in context.entries
                if dim_type(ty) < d - 1 or (dim_type(ty) == d - 1 and Var(v) not in covered)
            )
            assert boundary_ctx(context, sign).entries == expected
            cases += 1
    assert cases == 128


def test_boundary_dimension_error_on_points():
    with pytest.raises(DimensionError):
        boundary_ctx(POINT, NEG)


def test_boundaries_are_pasting_and_one_dimension_down():
    for context in [ARROW, CHAIN2, CHAIN3, DELTA] + [
        tree_to_ctx(t) for t in enumerate_trees(7) if len(t.branches) or t.branches == ()
    ]:
        if dim_ctx(context) < 1:
            continue
        for sign in (NEG, POS):
            b = boundary_ctx(context, sign)
            assert is_pasting(b)
            assert dim_ctx(b) == dim_ctx(context) - 1


def test_unbiased_disc_is_top_variable():
    d1 = disc_context(1)
    assert unbiased_term(d1.ctx) == Var("d1m")
    assert unbiased_type(d1.ctx) == Arr(Var("d0m"), star, Var("d0p"))


def test_unbiased_binary_composite():
    assert unbiased_type(CHAIN2) == Arr(Var("x0"), star, Var("x2"))
    t = unbiased_term(CHAIN2)
    assert isinstance(t, Coh)
    assert t.sub == identity_sub(CHAIN2)


def test_unbiased_ternary_composite():
    assert unbiased_type(CHAIN3) == Arr(Var("x0"), star, Var("x3"))


def test_unbiased_type_of_delta_is_whiskered_pair():
    ty = unbiased_type(DELTA)
    assert isinstance(ty, Arr)
    # both endpoints are the composites over the two boundary contexts
    assert isinstance(ty.src, Coh) and isinstance(ty.tgt, Coh)
    assert ty.src.ctx == boundary_ctx(DELTA, NEG)
    assert ty.tgt.ctx == boundary_ctx(DELTA, POS)


def test_is_unbiased():
    # the redex test's reading: a coherence whose type is the unbiased type
    # of its pasting context
    t = unbiased_term(CHAIN2)
    assert isinstance(t, Coh) and t.ty == unbiased_type(t.ctx)
    # t's arguments are variables, not composites, so t has no redex
    assert normalize(CHAIN2, t) == t
    biased = Coh(
        DELTA,
        Arr(Var("f"), arr("x", star, "y"), Var("h")),  # not the unbiased type
        identity_sub(DELTA),
    )
    assert biased.ty != unbiased_type(biased.ctx)


def test_a_non_pasting_context_has_no_unbiased_type():
    parallel = ctx_of_telescope("(a : *) (b : *) (p : a -> b) (q : a -> b)")
    for _ in range(2):
        with pytest.raises(NotPasting) as err:
            unbiased_type(parallel)
        assert str(err.value) == "not a pasting context (entry 4): missing an entry of type p -> q"
    assert "_unbiased" not in parallel.__dict__ and "_tree" not in parallel.__dict__


def test_unbiased_source_support_matches_boundary():
    for context in (CHAIN2, CHAIN3, DELTA):
        ty = unbiased_type(context)
        assert isinstance(ty, Arr)
        assert support(context, ty.src) == frozenset(boundary_ctx(context, NEG).vars)
        assert support(context, ty.tgt) == frozenset(boundary_ctx(context, POS).vars)


def test_unbiased_term_typechecks_in_both_modes():
    from cattsa.trees import tree_to_ctx as to_ctx

    contexts = [CHAIN2, CHAIN3, DELTA] + [to_ctx(t) for t in enumerate_trees(7)]
    for context in contexts:
        t = unbiased_term(context)
        for mode in (Mode.CATT, Mode.CATT_SA):
            report = Session(mode).infer_report(context, t)
            assert report.ok, report.message


def test_locally_maximal():
    assert tuple(cell_table(POINT)) == ("x",)
    assert tuple(cell_table(CHAIN2)) == ("a1", "a2")
    assert tuple(cell_table(DELTA)) == ("alpha", "beta", "k")


def test_maximal_vars_reads_no_context():
    # elaboration lets a telescope name an unbound arrow target
    tele = ctx(("x", star), ("f", arr("x", star, "q")))
    assert maximal_vars(tele) == ("f",)


def test_a_discs_unbiased_type_is_its_top_cells_type():
    discs = [t for t in enumerate_trees(11) if is_linear(t)]
    assert len(discs) == 6
    for t in discs:
        assert _unbiased_type(t) == tree_to_ctx(t).entries[-1][1]


def test_every_disc_has_one_maximal_cell():
    for n in range(4):
        d = disc_context(n)
        assert is_linear(ctx_to_tree(d.ctx))
        assert is_pasting(d.ctx)
        assert len(cell_table(d.ctx)) == 1


def test_to_disc_sub_point():
    assert to_disc_sub(POINT, Var("x")) == sub(("d0m", Var("x")))


def test_to_disc_sub_arrow():
    assert to_disc_sub(ARROW, Var("f")) == sub(
        ("d0m", Var("x")), ("d0p", Var("y")), ("d1m", Var("f"))
    )


def test_to_disc_sub_composite():
    amb = chain(3, "u", "m")
    t = comp2(amb, Var("m1"), Var("m2"))
    s = to_disc_sub(amb, t)
    assert s.lookup("d0m") == Var("u0")
    assert s.lookup("d0p") == Var("u2")
    assert s.lookup("d1m") == t


def test_disc_context_shape():
    d2 = disc_context(2)
    assert d2.ctx.vars == ("d0m", "d0p", "d1m", "d1p", "d2m")
    assert dim_ctx(d2.ctx) == 2


def test_tree_leaves_are_locally_maximal():
    for t in enumerate_trees(7):
        context = tree_to_ctx(t)
        assert maximal_vars(context) == leaf_labels(t)
