"""Structural functions on raw syntax: support, dimension, substitution,
boundaries, and alpha equality."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from cattsa.errors import (
    DimensionError,
    DuplicateVariable,
    MalformedSyntax,
    SubstitutionUndefined,
    TooDeep,
    UnknownVariable,
)
from cattsa.pasting import unbiased_type
from cattsa.syntax import (
    NEG,
    POS,
    Arr,
    Coh,
    Context,
    Star,
    Substitution,
    Var,
    alpha_eq,
    apply_sub,
    apply_sub_term,
    compose_sub,
    dim_term,
    dim_type,
    free_vars,
    identity_sub,
    item_str,
    support,
    term_boundary,
    term_str,
    type_boundary,
    type_str,
    var_sub,
)
from cattsa.typecheck import Mode, Session
from helpers import (
    CHAIN2,
    DELTA,
    PATTERNS,
    arr,
    chain,
    comp2,
    ctx,
    curated_corpus,
    dim_ctx,
    star,
    sub,
)

SEEDS = settings(derandomize=True, deadline=None, max_examples=25)

F_CTX = ctx(("x", star), ("y", star), ("f", arr("x", star, "y")))


def test_support_empty_substitution():
    assert support(F_CTX, Substitution()) == frozenset()


def test_support_variable_pulls_in_type():
    assert support(F_CTX, Var("f")) == {"x", "y", "f"}


def test_support_two_cell_by_hand():
    # supp(alpha) = {alpha} u supp(f -> g) = {alpha, f, g} u supp(x -> y)
    assert support(DELTA, Var("alpha")) == {"x", "y", "f", "g", "alpha"}


def test_support_unknown_variable():
    with pytest.raises(UnknownVariable):
        support(F_CTX, Var("nope"))


def test_dim_star_and_arrow():
    assert dim_type(star) == 0
    assert dim_type(arr("x", star, "y")) == 1


def test_dim_empty_context():
    assert dim_ctx(Context()) == -1


def test_dim_term():
    assert dim_term(DELTA, Var("alpha")) == 2
    assert dim_term(DELTA, Var("x")) == 0


def test_apply_sub_star():
    assert apply_sub(star, sub(("x", Var("t")))) == star


def test_apply_sub_variable_lookup():
    assert apply_sub(Var("x"), sub(("x", Var("t")))) == Var("t")


def test_apply_sub_missing_variable():
    with pytest.raises(SubstitutionUndefined):
        apply_sub(Var("x"), Substitution())


def test_apply_sub_coherence_composes_arguments():
    amb = chain(3, "u", "m")
    t = comp2(amb, Var("m1"), Var("m2"))
    assert isinstance(t, Coh)
    rho = sub(*((v, Var(v)) for v in amb.vars))
    out = apply_sub_term(t, rho)
    assert isinstance(out, Coh)
    assert out.ctx == t.ctx and out.ty == t.ty
    # hand evaluation of the coherence clause: arguments compose pointwise
    assert out.sub == compose_sub(t.sub, rho)


def test_compose_empty():
    assert compose_sub(Substitution(), sub(("y", Var("z")))) == Substitution()


def test_compose_variable_relay():
    assert compose_sub(sub(("x", Var("y"))), sub(("y", Var("z")))) == sub(
        ("x", Var("z"))
    )


def test_compose_identity_restricts():
    sigma = sub(("x", Var("u")), ("y", Var("v")), ("f", Var("w")))
    assert compose_sub(identity_sub(F_CTX), sigma) == sigma


def test_compose_associative_on_samples():
    rho = sub(("a", Var("b")))
    tau = sub(("b", Var("c")))
    sig = sub(("c", Var("d")))
    assert compose_sub(compose_sub(rho, tau), sig) == compose_sub(
        rho, compose_sub(tau, sig)
    )


def _random_term(rng: random.Random, names: list[str], depth: int):
    """A variable from names, or a coherence over a pattern with random
    arguments; substitution never looks at typing, so none is kept."""
    if depth == 0 or rng.random() < 0.4:
        return Var(rng.choice(names))
    pattern = rng.choice(PATTERNS)
    args = tuple((v, _random_term(rng, names, depth - 1)) for v in pattern.vars)
    return Coh(pattern, unbiased_type(pattern), Substitution(args))


def _random_sub(rng: random.Random, domain: list[str], names: list[str]) -> Substitution:
    return Substitution(tuple((v, _random_term(rng, names, 2)) for v in domain))


@SEEDS
@given(seed=st.integers(0, 2**32 - 1))
def test_compose_sub_is_associative(seed):
    # rho assigns b-terms to a-names, tau c-terms to b-names, sig d-terms
    # to c-names, so each composite is defined
    rng = random.Random(seed)
    a, b, c, d = ([f"{p}{i}" for i in range(rng.randint(1, 4))] for p in "abcd")
    rho, tau, sig = _random_sub(rng, a, b), _random_sub(rng, b, c), _random_sub(rng, c, d)
    assert compose_sub(compose_sub(rho, tau), sig) == compose_sub(rho, compose_sub(tau, sig))


@SEEDS
@given(seed=st.integers(0, 2**32 - 1))
def test_renaming_by_a_bijection_and_back_gives_the_item(seed):
    # the mapping permutes some names among themselves and fresh ones; every
    # name outside it is kept, bound in no context of the item or not
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(5)]
    moved = rng.sample(names, rng.randint(0, len(names)))
    images = rng.sample(moved + [f"w{i}" for i in range(3)], len(moved))
    mapping = dict(zip(moved, images))
    inverse = {w: v for v, w in mapping.items()}
    t = _random_term(rng, names, 3)
    for item in (t, Arr(t, star, _random_term(rng, names, 2))):
        there = apply_sub(item, var_sub(mapping, item))
        assert free_vars(there) == {mapping.get(v, v) for v in free_vars(item)}
        assert apply_sub(there, var_sub(inverse, there)) == item


def test_coherences_over_unbound_names_compare_and_hash():
    # elaboration lets an unbound q through in (f : x -> q); the positional
    # shape renames the bound names and keeps q
    def coh(x, f, q):
        pattern = ctx((x, star), (f, arr(x, star, q)))
        return Coh(pattern, arr(x, star, q), sub((x, Var("u")), (f, Var("g"))))

    a, b, c = coh("x", "f", "q"), coh("y", "h", "q"), coh("y", "h", "r")
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_type_boundary_base_clauses():
    assert type_boundary(arr("x", star, "y"), 0, NEG) == Var("x")
    fg = arr("f", arr("x", star, "y"), "g")
    assert type_boundary(fg, 1, POS) == Var("g")
    assert type_boundary(fg, 0, NEG) == Var("x")


def test_type_boundary_dimension_error():
    with pytest.raises(DimensionError):
        type_boundary(arr("x", star, "y"), 1, NEG)


def test_term_boundary_at_own_dimension():
    assert term_boundary(F_CTX, Var("f"), 1, NEG) == Var("f")


def test_term_boundary_variable_clause():
    assert term_boundary(F_CTX, Var("f"), 0, POS) == Var("y")


def test_term_boundary_coherence_clause():
    amb = chain(3, "u", "m")
    t = comp2(amb, Var("m1"), Var("m2"))
    # the 0-source of the composite is the 0-source of its first argument
    assert term_boundary(amb, t, 0, NEG) == term_boundary(amb, Var("m1"), 0, NEG)
    assert term_boundary(amb, t, 0, POS) == Var("u2")


def test_alpha_eq_variables():
    assert alpha_eq(Var("x"), Var("x"))
    assert not alpha_eq(Var("x"), Var("x'"))


def test_alpha_eq_renamed_coherence():
    amb = chain(2, "u", "m")
    t = comp2(amb, Var("m1"), Var("m2"))
    primed = chain(2, "p", "q")
    renamed = Coh(
        primed,
        unbiased_type(primed),
        Substitution(tuple(zip(primed.vars, t.sub.values))),
    )
    assert alpha_eq(t, renamed)


def test_alpha_eq_distinct_bracketings():
    amb = chain(3, "u", "m")
    left = comp2(amb, comp2(amb, Var("m1"), Var("m2")), Var("m3"))
    right = comp2(amb, Var("m1"), comp2(amb, Var("m2"), Var("m3")))
    assert not alpha_eq(left, right)


def test_context_duplicate_names_rejected():
    with pytest.raises(DuplicateVariable):
        ctx(("x", star), ("x", star))


def test_substitution_duplicate_names_rejected():
    with pytest.raises(DuplicateVariable):
        sub(("x", Var("a")), ("x", Var("b")))


def test_coherence_domain_must_match_context():
    with pytest.raises(MalformedSyntax):
        Coh(F_CTX, arr("x", star, "y"), sub(("x", Var("a"))))


def test_apply_distributes_over_arrow():
    amb = chain(3, "u", "m")
    t1 = comp2(amb, Var("m1"), Var("m2"))
    ty = Arr(Var("m3"), arr("u2", star, "u3"), Var("m3"))
    rho = identity_sub(amb)
    out = apply_sub(ty, rho)
    assert out == Arr(
        apply_sub_term(ty.src, rho),
        apply_sub(ty.base, rho),
        apply_sub_term(ty.tgt, rho),
    )
    assert support(amb, t1)  # silences unused warning paths


def test_dim_preserved_by_substitution():
    amb = chain(3, "u", "m")
    pat = chain(2)
    t = comp2(amb, Var("m1"), Var("m2"))
    assert dim_term(amb, t) == dim_term(pat, Var("a1")) == 1


def test_support_monotone_under_substitution():
    # supp(t[sigma]) equals the union of supports of the images of supp(t)
    amb = chain(3, "u", "m")
    pat = CHAIN2
    t = Coh(pat, unbiased_type(pat), identity_sub(pat))
    sigma = comp2(amb, Var("m1"), Var("m2")).sub  # a well-typed sub pat -> amb
    out = support(amb, apply_sub_term(t, sigma))
    expected = frozenset()
    for v in support(pat, t):
        expected |= support(amb, sigma.lookup(v))
    assert out == expected


def test_support_monotone_randomised():
    rng = random.Random(7)
    amb = chain(4, "u", "m")
    arrows = [Var(f"m{i}") for i in range(1, 5)]
    for _ in range(25):
        i = rng.randrange(1, 4)
        t = comp2(amb, arrows[i - 1], arrows[i])
        assert isinstance(t, Coh)
        out = support(amb, t)
        expected = frozenset()
        for v in support(t.ctx, Var("a1")) | support(t.ctx, Var("a2")):
            expected |= support(amb, t.sub.lookup(v))
        assert expected <= out


def test_printers_raise_too_deep():
    # a left-nested composite of 1501 endo-arrows nests coherences 1500
    # deep, past what the recursive printer can traverse
    loop = ctx(("x", star), ("f", arr("x", star, "x")))
    t = Var("f")
    for _ in range(1500):
        t = comp2(loop, t, Var("f"))
    deep_arr = Arr(t, arr("x", star, "x"), t)
    for render, x in ((term_str, t), (type_str, deep_arr), (str, deep_arr),
                      (str, Substitution((("x", Var("x")), ("f", t))))):
        with pytest.raises(TooDeep):
            render(x)
    assert term_str(comp2(loop, Var("f"), Var("f"))).endswith("[x, x, f, x, f]")


def test_str_is_the_printer_on_every_kind():
    # the curated terms, their types, their contexts (with the entry types
    # in them) and their argument substitutions (with the arguments in them)
    items = []
    for ambient, t in curated_corpus():
        items += [t, Session(Mode.CATT).infer_term(ambient, t), ambient, t.ctx, t.sub]
        items += [ty for _, ty in ambient] + list(t.sub.values)
    assert {type(x) for x in items} == {Var, Coh, Star, Arr, Context, Substitution}
    assert all(str(x) == item_str(x) for x in items)
    assert (term_str, type_str) == (item_str, item_str)


def test_printing_a_coherence_renders_its_context_unguarded(monkeypatch):
    # the guard is for entry points: a coherence's context entries are
    # rendered inside term_str's own guard, not through type_str
    from cattsa import syntax

    inner = comp2(CHAIN2, Var("a1"), Var("a2"))
    t = comp2(chain(3), inner, Var("a3"))
    want = (
        f"coh {{ {t.ctx} : {type_str(t.ty)} }} "
        f"[x0, x2, {term_str(inner)}, x3, a3]"
    )
    calls = []
    real = syntax.type_str
    monkeypatch.setattr(syntax, "type_str", lambda ty: calls.append(ty) or real(ty))
    assert term_str(t) == want
    assert calls == []
    # str of a context is still guarded: a context too deep to print raises TooDeep
    loop = ctx(("x", star), ("f", arr("x", star, "x")))
    deep = Var("f")
    for _ in range(1500):
        deep = comp2(loop, deep, Var("f"))
    with pytest.raises(TooDeep):
        str(ctx(("x", star), ("y", star), ("g", arr(deep, star, deep))))
