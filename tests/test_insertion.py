"""Insertion of pasting diagrams, the canonical substitutions, pushouts."""

from __future__ import annotations

import pytest

from cattsa.errors import (
    DuplicateVariable,
    HeadMismatch,
    LinearHeightTooSmall,
    PathInvalid,
)
from cattsa.insertion import (
    InsertionProblem,
    insert_ctx,
    insert_sub,
    insert_tree,
    type_linear_height,
)
from cattsa.pasting import (
    is_pasting,
    locally_maximal,
    unbiased_term,
    unbiased_type,
)
from cattsa.reduction import def_eq
from cattsa.syntax import (
    Arr,
    Coh,
    Context,
    Substitution,
    Var,
    alpha_eq,
    apply_sub_type,
    compose_sub,
    dim_ctx,
    dim_term,
    identity_sub,
    var_sub,
)
from cattsa.trees import (
    branching_height,
    branching_path,
    ctx_to_tree,
    linear_height,
    tree,
    tree_to_ctx,
)
from helpers import (
    CHAIN2,
    DELTA,
    THETA,
    arr,
    chain,
    comp2,
    enumerate_trees,
    star,
    sub,
)
from oracles import check_pushout, check_well_formed_sub, disc_context

L = tree  # shorthand for small literal trees


def test_insert_tree_flattens_binary_into_ternary():
    s = L(["x", "y", "z"], [L(["f"]), L(["g"])])
    t = L(["x'", "y'", "z'"], [L(["f'"]), L(["g'"])])
    out = insert_tree(s, (1,), t)
    assert out == L(["x", "x'", "y'", "z'"], [L(["f"]), L(["f'"]), L(["g'"])])


def test_insert_tree_worked_example():
    delta_tree = L(
        ["x", "y", "z"],
        [L(["f", "g", "h"], [L(["alpha"]), L(["beta"])]), L(["k"])],
    )
    theta_tree = L(
        ["x'", "y'"],
        [L(["f'", "g'", "h'"], [L(["alpha'"]), L(["beta'"])])],
    )
    out = insert_tree(delta_tree, (0, 0), theta_tree)
    assert out == L(
        ["x'", "y'", "z"],
        [
            L(["f'", "g'", "h'", "h"], [L(["alpha'"]), L(["beta'"]), L(["beta"])]),
            L(["k"]),
        ],
    )


def test_insert_tree_head_splice():
    s = L(["x", "y", "z"], [L(["f"]), L(["g"])])
    t = L(["a", "b"], [L(["c"])])
    out = insert_tree(s, (0,), t)
    assert out == L(["a", "b", "z"], [L(["c"]), L(["g"])])


def test_insert_tree_path_errors():
    s = L(["x", "y", "z"], [L(["f"]), L(["g"])])
    t = L(["a", "b"], [L(["c"])])
    with pytest.raises(PathInvalid):
        insert_tree(s, (), t)
    with pytest.raises(PathInvalid):
        insert_tree(s, (5,), t)
    with pytest.raises(LinearHeightTooSmall):
        insert_tree(s, (0, 0), L(["a", "b", "c"], [L(["d"]), L(["e"])]))
    with pytest.raises(DuplicateVariable):
        insert_tree(s, (0,), L(["x", "b"], [L(["c"])]))


def test_type_linear_height():
    # the worked example's whisker type f.k -> h.k has linear height 1
    assert type_linear_height(unbiased_type(DELTA)) == 1
    # the vertical composite type over Theta has only variable boundaries
    assert type_linear_height(unbiased_type(THETA)) == 2
    assert type_linear_height(star and arr("x", star, "y")) == 1


def whisker_insertion_problem() -> InsertionProblem:
    return InsertionProblem(DELTA, "alpha", THETA, unbiased_type(THETA))


def test_insert_ctx_worked_example_context_and_kappa():
    res = insert_ctx(whisker_insertion_problem())
    assert {v: t.name for v, t in res.internal} == {
        "x": "x'",
        "y": "y'",
        "f": "f'",
        "g": "g'",
        "alpha": "alpha'",
        "h": "h'",
        "beta": "beta'",
    }
    assert ctx_to_tree(res.inserted) == L(
        ["x'", "y'", "z"],
        [
            L(["f'", "g'", "h'", "h"], [L(["alpha'"]), L(["beta'"]), L(["beta"])]),
            L(["k"]),
        ],
    )
    kappa = dict(res.external.entries)
    inner_coh = Coh(THETA, unbiased_type(THETA), res.internal)
    assert kappa["x"] == Var("x'")
    assert kappa["y"] == Var("y'")
    assert kappa["z"] == Var("z")
    assert kappa["f"] == Var("f'")
    assert kappa["g"] == Var("h'")
    assert kappa["h"] == Var("h")
    assert kappa["k"] == Var("k")
    assert kappa["beta"] == Var("beta")
    assert kappa["alpha"] == inner_coh


def test_internal_substitution_is_variable_to_variable():
    res = insert_ctx(whisker_insertion_problem())
    assert res.internal == sub(
        ("x", Var("x'")),
        ("y", Var("y'")),
        ("f", Var("f'")),
        ("g", Var("g'")),
        ("alpha", Var("alpha'")),
        ("h", Var("h'")),
        ("beta", Var("beta'")),
    )
    images = [t.name for _, t in res.internal.entries]
    assert len(set(images)) == len(images)


def test_disjoint_inner_names_are_kept():
    # with a pre-primed inner context no renaming is needed and the
    # internal substitution maps every variable to itself
    from helpers import THETA_PRIMED

    prob = InsertionProblem(DELTA, "alpha", THETA_PRIMED, unbiased_type(THETA_PRIMED))
    res = insert_ctx(prob)
    assert {v: t.name for v, t in res.internal} == {v: v for v in THETA_PRIMED.vars}
    assert res.internal == identity_sub(THETA_PRIMED)


def test_inserting_a_disc_reproduces_the_outer_context():
    d2 = disc_context(2)
    prob = InsertionProblem(DELTA, "alpha", d2.ctx, unbiased_type(d2.ctx))
    res = insert_ctx(prob)
    assert alpha_eq(res.inserted, DELTA)


def test_insert_ctx_linear_height_guard():
    # a type with a composite 1-boundary cannot fill a height-1 branching
    bad_type = unbiased_type(DELTA)  # linear height 1, path length 2 is fine
    assert type_linear_height(bad_type) == 1
    skew = Arr(unbiased_term(THETA), unbiased_type(THETA), unbiased_term(THETA))
    # skew is 3-dimensional with non-variable 2-boundaries: lh = 2
    assert type_linear_height(skew) == 2
    # gamma branches at depth 2, so its branching path has length 3 and an
    # inner type of linear height 1 is too shallow
    deep_outer = tree_to_ctx(
        L(["x", "y"], [L(["f", "g"], [L(["m", "n", "o"], [L(["gamma"]), L(["delta"])])])])
    )
    assert branching_path(ctx_to_tree(deep_outer), "gamma") == (0, 0, 0)
    with pytest.raises(LinearHeightTooSmall):
        insert_ctx(InsertionProblem(deep_outer, "gamma", DELTA, unbiased_type(DELTA)))


def test_insert_ctx_variable_bookkeeping():
    res = insert_ctx(whisker_insertion_problem())
    erased = {"x", "y", "f", "g", "alpha"}  # the support of alpha
    survivors = set(DELTA.vars) - erased
    renamed = {t.name for t in res.internal.values}
    assert set(res.inserted.vars) == survivors | renamed
    assert is_pasting(res.inserted)


def test_insert_ctx_output_is_pasting_for_enumerated_problems():
    trees = enumerate_trees(7)
    checked = 0
    for s in trees:
        outer = tree_to_ctx(s)
        for x in locally_maximal(outer):
            bh = branching_height(s, x)
            dx = dim_term(outer, Var(x))
            for t in trees:
                if linear_height(t) < bh:
                    continue
                inner = tree_to_ctx(t)
                if dim_ctx(inner) != dx:
                    continue
                a = unbiased_type(inner)
                if type_linear_height(a) < bh:
                    continue
                res = insert_ctx(InsertionProblem(outer, x, inner, a))
                assert is_pasting(res.inserted)
                checked += 1
    assert checked >= 40


def test_internal_and_external_substitutions_are_well_formed():
    res = insert_ctx(whisker_insertion_problem())
    assert check_well_formed_sub(THETA, res.internal, res.inserted).ok
    assert check_well_formed_sub(DELTA, res.external, res.inserted).ok


def test_canonical_substitutions_well_formed_for_enumerated_problems():
    # dimension zero is excluded: a coherence of dimension zero is never
    # well typed, so such insertion problems cannot arise from reduction
    trees = enumerate_trees(7)
    checked = 0
    for s in trees:
        outer = tree_to_ctx(s)
        for x in locally_maximal(outer):
            if dim_term(outer, Var(x)) == 0:
                continue
            bh = branching_height(ctx_to_tree(outer), x)
            for t in trees:
                inner = tree_to_ctx(t)
                if dim_ctx(inner) != dim_term(outer, Var(x)):
                    continue
                if linear_height(t) < bh:
                    continue
                a = unbiased_type(inner)
                if type_linear_height(a) < bh:
                    continue
                res = insert_ctx(InsertionProblem(outer, x, inner, a))
                assert check_well_formed_sub(inner, res.internal, res.inserted).ok
                assert check_well_formed_sub(outer, res.external, res.inserted).ok
                checked += 1
    assert checked >= 15


def test_insert_ctx_rejects_non_maximal_cells():
    from cattsa.errors import NotLocallyMaximal

    with pytest.raises(NotLocallyMaximal):
        insert_ctx(InsertionProblem(DELTA, "f", THETA, unbiased_type(THETA)))


def chain_insertion_setup():
    outer = CHAIN2
    inner = chain(2, "y", "b")
    a = unbiased_type(inner)
    prob = InsertionProblem(outer, "a2", inner, a)
    res = insert_ctx(prob)
    amb = chain(3, "u", "m")
    tau = sub(
        ("y0", Var("u1")),
        ("y1", Var("u2")),
        ("b1", Var("m2")),
        ("y2", Var("u3")),
        ("b2", Var("m3")),
    )
    sigma = sub(
        ("x0", Var("u0")),
        ("x1", Var("u1")),
        ("a1", Var("m1")),
        ("x2", Var("u3")),
        ("a2", Coh(inner, a, tau)),
    )
    return prob, res, amb, sigma, tau


def test_insert_sub_combines_both_sides():
    prob, res, amb, sigma, tau = chain_insertion_setup()
    mu = insert_sub(sigma, "a2", tau, res)
    assert dict(mu.entries) == {
        "x0": Var("u0"),
        "y0": Var("u1"),
        "a1": Var("m1"),
        "y1": Var("u2"),
        "b1": Var("m2"),
        "y2": Var("u3"),
        "b2": Var("m3"),
    }


def test_insert_sub_identities():
    prob, res, amb, sigma, tau = chain_insertion_setup()
    mu = insert_sub(res.external, "a2", res.internal, res)
    assert mu == identity_sub(res.inserted)


def test_insert_sub_head_mismatch():
    prob, res, amb, sigma, tau = chain_insertion_setup()
    bad = Substitution(
        tuple((v, Var("u0") if v == "a2" else t) for v, t in sigma.entries)
    )
    with pytest.raises(HeadMismatch):
        insert_sub(bad, "a2", tau, res)


def test_insert_sub_accepts_alpha_renamed_argument():
    # the argument's bound context is renamed apart from the inner one;
    # == on coherences ignores bound names, so insert_sub accepts it
    prob, res, amb, sigma, tau = chain_insertion_setup()
    inner, _ = _renamed_copy(prob.inner, "_r")
    ren = dict(zip(prob.inner.vars, inner.vars))
    renamed = Coh(
        inner,
        apply_sub_type(prob.inner_type, var_sub(ren, prob.inner_type)),
        Substitution(tuple((ren[v], t) for v, t in tau.entries)),
    )
    assert renamed.ctx != prob.inner
    alt = Substitution(
        tuple((v, renamed if v == "a2" else t) for v, t in sigma.entries)
    )
    assert insert_sub(alt, "a2", tau, res) == insert_sub(sigma, "a2", tau, res)


def test_insert_sub_naturality():
    # composing with a further substitution commutes with insertion
    prob, res, amb, sigma, tau = chain_insertion_setup()
    big = chain(4, "v", "n")
    rho = sub(
        ("u0", Var("v0")),
        ("u1", Var("v1")),
        ("m1", Var("n1")),
        ("u2", Var("v2")),
        ("m2", Var("n2")),
        ("u3", Var("v4")),
        ("m3", comp2(big, Var("n3"), Var("n4"))),
    )
    lhs = compose_sub(insert_sub(sigma, "a2", tau, res), rho)
    rhs = insert_sub(compose_sub(sigma, rho), "a2", compose_sub(tau, rho), res)
    assert lhs == rhs


def test_factorisation_equations():
    prob, res, amb, sigma, tau = chain_insertion_setup()
    mu = insert_sub(sigma, "a2", tau, res)
    assert compose_sub(res.internal, mu) == tau
    lhs = compose_sub(res.external, mu)
    for (v, got), (_, want) in zip(lhs.entries, sigma.entries):
        assert def_eq(amb, got, want)


def _renamed_copy(context: Context, suffix: str):
    ren = {v: v + suffix for v in context.vars}
    renamed = Context(
        tuple((ren[v], apply_sub_type(ty, var_sub(ren, ty))) for v, ty in context.entries)
    )
    rho = Substitution(tuple((v, Var(ren[v])) for v in context.vars))
    return renamed, rho


def test_check_pushout_on_the_chain_instance():
    prob, res, amb, sigma, tau = chain_insertion_setup()
    gamma2, rho = _renamed_copy(res.inserted, "_c")
    cones = [
        (amb, sigma, tau),
        (res.inserted, res.external, res.internal),
        (gamma2, compose_sub(res.external, rho), compose_sub(res.internal, rho)),
    ]
    report = check_pushout(prob, res, cones)
    assert report.square_commutes
    assert all(c.ok for c in report.cones)
    assert all(c.pool_size > c.candidates_checked for c in report.cones)


def test_check_pushout_degenerate_cone_factors_identically():
    prob, res, amb, sigma, tau = chain_insertion_setup()
    mu = insert_sub(res.external, "a2", res.internal, res)
    assert mu == identity_sub(res.inserted)
    report = check_pushout(prob, res, [(res.inserted, res.external, res.internal)])
    assert report.ok
