"""Typing judgements in both modes, and well-formed substitutions."""

from __future__ import annotations

import pytest

from cattsa import typecheck
from cattsa.errors import (
    ArityMismatch,
    EndpointTypeMismatch,
    NotPasting,
    SubstitutionUndefined,
    SupportViolation,
    TooDeep,
    TypeMismatch,
    UnknownVariable,
)
from cattsa.pasting import unbiased_type
from cattsa.reduction import def_eq, normalize
from cattsa.syntax import (
    Arr,
    Coh,
    Context,
    Substitution,
    Var,
    alpha_eq,
    apply_sub_type,
    identity_sub,
)
from cattsa.typecheck import Mode, Session
from helpers import (
    CHAIN2,
    CHAIN3,
    DELTA,
    arr,
    chain,
    comp2,
    ctx,
    curated_corpus,
    enumerate_globular_contexts,
    random_corpus,
    star,
    sub,
    unbiased_term,
)
from oracles import GlobularityViolation, check_well_formed_sub, is_globular_ctx, step_candidates

POINT = ctx(("x", star))
ARROW = ctx(("x", star), ("y", star), ("f", arr("x", star, "y")))


def test_empty_context_checks():
    assert Session(Mode.CATT_SA).check_ctx(Context()).ok


def test_arrow_context_checks():
    assert Session(Mode.CATT_SA).check_ctx(ARROW).ok


def test_unbound_variable_in_context_rejected():
    report = Session(Mode.CATT_SA).check_ctx(ctx(("x", star), ("f", arr("x", star, "y"))))
    assert not report.ok


def test_star_always_checks():
    assert Session(Mode.CATT_SA).check_type(ARROW, star).ok


def test_arrow_type_checks():
    assert Session(Mode.CATT_SA).check_type(ctx(("x", star), ("y", star)), arr("x", star, "y")).ok


def test_arrow_with_mismatched_endpoint_dimension_rejected():
    report = Session(Mode.CATT_SA).check_type(ARROW, arr("x", star, "f"))
    assert not report.ok
    assert isinstance(report.error, EndpointTypeMismatch)


def test_empty_substitution_checks():
    assert Session(Mode.CATT_SA).check_sub(ARROW, Substitution(), Context()).ok


def test_identity_substitution_checks():
    for context in (POINT, ARROW, CHAIN3, DELTA):
        assert Session(Mode.CATT_SA).check_sub(context, identity_sub(context), context).ok


def test_arity_mismatch_detected():
    report = Session(Mode.CATT_SA).check_sub(ARROW, Substitution(), ARROW)
    assert not report.ok
    assert isinstance(report.error, ArityMismatch)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("name", ["y", "z"])  # a later variable, an unknown one
def test_a_type_naming_a_variable_outside_its_prefix_is_undefined(mode, name):
    gamma = ctx(("x", star), ("f", arr("x", star, name)), ("y", star))
    sigma = sub(("x", Var("x")), ("f", Var("f")), ("y", Var("y")))
    report = Session(mode).check_sub(ARROW, sigma, gamma)
    assert isinstance(report.error, SubstitutionUndefined)
    assert str(report.error) == f"substitution has no entry for '{name}'"


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("name", ["y", "z"])  # a later variable, an unknown one
def test_a_context_entry_naming_a_variable_outside_its_prefix_is_unknown(mode, name):
    gamma = ctx(("x", star), ("f", arr("x", star, name)), ("y", star))
    report = Session(mode).check_ctx(gamma)
    assert isinstance(report.error, UnknownVariable)
    assert str(report.error) == f"unknown variable '{name}' in context"


def test_composite_argument_substitution_checks():
    amb = chain(3, "u", "m")
    t = comp2(amb, Var("m1"), comp2(amb, Var("m2"), Var("m3")))
    assert isinstance(t, Coh)
    assert Session(Mode.CATT_SA).check_sub(amb, t.sub, t.ctx).ok


def _bracketing_telescopes():
    """Two telescopes whose final cell is typed by differently bracketed
    composites, and the renaming substitution between them."""
    base = chain(3, "p", "a")
    left = comp2(base, comp2(base, Var("a1"), Var("a2")), Var("a3"))
    tele_l = Context(
        base.entries + (("m", Arr(left, arr("p0", star, "p3"), left)),)
    )
    base2 = chain(3, "v", "w")
    right = comp2(base2, Var("w1"), comp2(base2, Var("w2"), Var("w3")))
    tele_r = Context(
        base2.entries + (("mm", Arr(right, arr("v0", star, "v3"), right)),)
    )
    sigma = Substitution(
        tuple(zip(tele_l.vars, (Var(v) for v in tele_r.vars)))
    )
    return tele_l, tele_r, sigma


def test_substitution_needing_definitional_equality():
    tele_l, tele_r, sigma = _bracketing_telescopes()
    assert Session(Mode.CATT_SA).check_ctx(tele_l).ok
    assert Session(Mode.CATT_SA).check_sub(tele_r, sigma, tele_l).ok
    assert not Session(Mode.CATT).check_sub(tele_r, sigma, tele_l).ok


def test_variable_rule():
    assert Session(Mode.CATT_SA).check_term(POINT, Var("x"), star).ok
    report = Session(Mode.CATT_SA).check_term(ARROW, Var("f"), star)
    assert not report.ok and isinstance(report.error, TypeMismatch)


def test_binary_composite_infers_composite_type():
    amb = chain(2, "u", "m")
    t = comp2(amb, Var("m1"), Var("m2"))
    inferred = Session(Mode.CATT_SA).infer_term(amb, t)
    assert inferred == arr("u0", star, "u2")


@pytest.mark.parametrize("mode, calls", [(Mode.CATT_SA, 1), (Mode.CATT, 0)])
def test_the_coherence_rule_normalises_the_head_type_once(monkeypatch, mode, calls):
    # comp [p, q] fails (coh') and passes (comp'): its three supports are
    # read off one normal form of the head type
    seen = []

    def counting(*args, **kw):
        seen.append(args)
        return normalize(*args, **kw)

    monkeypatch.setattr(typecheck, "normalize", counting)
    amb = chain(2, "u", "m")
    assert Session(mode).infer_term(amb, comp2(amb, Var("m1"), Var("m2"))) == arr("u0", star, "u2")
    assert len(seen) == calls


def test_identity_coherence_typechecks_by_full_support():
    # an endo coherence over a point uses the full-support rule
    t = Coh(POINT, arr("x", star, "x"), sub(("x", Var("u0"))))
    amb = chain(1, "u", "m")
    assert Session(Mode.CATT_SA).infer_term(amb, t) == arr("u0", star, "u0")


def test_support_violation_reported():
    # a well-formed type whose source support misses most of the boundary
    pair = comp2(CHAIN3, Var("a1"), Var("a2"))
    ty = Arr(pair, arr("x0", star, "x2"), pair)
    bad = Coh(CHAIN3, ty, identity_sub(CHAIN3))
    expected = apply_sub_type(ty, identity_sub(CHAIN3))
    report = Session(Mode.CATT_SA).check_term(CHAIN3, bad, expected)
    assert not report.ok
    assert isinstance(report.error, SupportViolation)


def test_dropping_a_whisker_cell_is_rejected():
    # literally dropping the whisker from the source of the worked example's
    # type leaves an arrow with mismatched endpoints, caught before support
    tgt = unbiased_type(DELTA)
    assert isinstance(tgt, Arr)
    bad = Coh(DELTA, Arr(Var("f"), tgt.base, tgt.tgt), identity_sub(DELTA))
    expected = apply_sub_type(bad.ty, identity_sub(DELTA))
    report = Session(Mode.CATT_SA).check_term(DELTA, bad, expected)
    assert not report.ok
    assert isinstance(report.error, EndpointTypeMismatch)


def test_swapped_boundaries_rejected():
    ty = unbiased_type(DELTA)
    assert isinstance(ty, Arr)
    swapped = Coh(DELTA, Arr(ty.tgt, ty.base, ty.src), identity_sub(DELTA))
    expected = apply_sub_type(swapped.ty, identity_sub(DELTA))
    report = Session(Mode.CATT_SA).check_term(DELTA, swapped, expected)
    assert not report.ok
    assert isinstance(report.error, SupportViolation)


def test_non_pasting_head_rejected():
    two_points = ctx(("x", star), ("y", star))
    bad = Coh(two_points, star, sub(("x", Var("u0")), ("y", Var("u1"))))
    amb = chain(1, "u", "m")
    report = Session(Mode.CATT_SA).check_term(amb, bad, star)
    assert not report.ok
    assert isinstance(report.error, NotPasting)


def test_mode_agreement_catt_accepted_implies_sa_accepted():
    judgements = []
    for context, t in curated_corpus():
        judgements.append((context, t))
    for context, t in judgements:
        ty = Session(Mode.CATT_SA).infer_term(context, t)
        catt = Session(Mode.CATT).check_term(context, t, ty)
        if catt.ok:
            sa = Session(Mode.CATT_SA).check_term(context, t, ty)
            assert sa.ok


def test_equality_respects_typing():
    # subject reduction: every one-step reduct checks against the type
    # inferred for the term it came from
    for context, t in curated_corpus() + random_corpus(300, seed=17):
        ty = Session(Mode.CATT_SA).infer_term(context, t)
        for _, reduct in step_candidates(context, t):
            assert def_eq(context, t, reduct)
            assert Session(Mode.CATT_SA).check_term(context, reduct, ty).ok


def test_infer_stable_under_normalisation():
    for context, t in curated_corpus():
        ty = Session(Mode.CATT_SA).infer_term(context, t)
        nty = Session(Mode.CATT_SA).infer_term(context, normalize(context, t))
        assert def_eq(context, ty, nty)


def test_unbiased_terms_infer_unbiased_types():
    for context in (CHAIN2, CHAIN3, DELTA):
        t = unbiased_term(context)
        assert alpha_eq(Session(Mode.CATT_SA).infer_term(context, t), unbiased_type(context))


def test_term_boundaries_agree_with_type_boundaries():
    # if a term has type A then its n-boundary equals the n-boundary of A,
    # up to definitional equality
    from cattsa.syntax import NEG, POS, dim_term, term_boundary, type_boundary

    for context, t in curated_corpus()[:12]:
        ty = Session(Mode.CATT_SA).infer_term(context, t)
        for n in range(dim_term(context, t)):
            for sign in (NEG, POS):
                got = term_boundary(context, t, n, sign)
                want = type_boundary(ty, n, sign)
                assert def_eq(context, got, want)


# ---------------------------------------------------------------------------
# Well-formed substitutions
# ---------------------------------------------------------------------------


def test_identity_is_well_formed():
    for context in (POINT, ARROW, CHAIN2):
        assert check_well_formed_sub(context, identity_sub(context), context).ok


def test_globularity_violation_detected():
    gamma = ARROW
    delta = chain(2, "u", "m")
    bad = sub(("x", Var("u0")), ("y", Var("u1")), ("f", Var("m2")))  # wrong source
    report = check_well_formed_sub(gamma, bad, delta)
    assert not report.ok
    assert isinstance(report.error, GlobularityViolation)


def test_dimension_mismatch_is_a_globularity_violation():
    gamma = POINT
    delta = ARROW
    report = check_well_formed_sub(gamma, sub(("x", Var("f"))), delta)
    assert not report.ok
    assert isinstance(report.error, GlobularityViolation)


def test_non_globular_source_rejected():
    amb = chain(2, "u", "m")
    t = comp2(amb, Var("m1"), Var("m2"))
    gamma = Context(amb.entries + (("w", Arr(t, arr("u0", star, "u2"), t)),))
    assert not is_globular_ctx(gamma)
    report = check_well_formed_sub(gamma, identity_sub(gamma), gamma)
    assert not report.ok


def test_well_formedness_equivalence_small_scale():
    contexts = [c for c in enumerate_globular_contexts(3) if len(c)]
    deltas = [POINT, ARROW, CHAIN2]
    checked = 0
    for gamma in contexts:
        for delta in deltas:
            for sigma in _variable_subs(gamma, delta):
                lhs = Session(Mode.CATT_SA).check_sub(delta, sigma, gamma).ok
                rhs = check_well_formed_sub(gamma, sigma, delta).ok
                assert lhs == rhs
                checked += 1
    assert checked > 100


def _variable_subs(gamma: Context, delta: Context):
    """All variable-valued substitutions gamma -> delta (exhaustive)."""
    names = list(delta.vars)
    out: list[list] = [[]]
    for v in gamma.vars:
        out = [prefix + [(v, Var(w))] for prefix in out for w in names]
    for entries in out:
        yield Substitution(tuple(entries))


def test_too_deep_term_is_a_typed_error():
    # a left-nested composite of 401 endo-arrows nests coherences 400 deep,
    # past what term_str and the checkers can traverse
    loop = ctx(("x", star), ("f", arr("x", star, "x")))
    ty = arr("x", star, "x")

    def tower(depth: int):
        t = Var("f")
        for _ in range(depth):
            t = comp2(loop, t, Var("f"))
        return t

    t = tower(400)
    for mode in Mode:
        with pytest.raises(TooDeep) as exc:
            Session(mode).check_term(loop, t, ty)
        assert str(exc.value) == "a term is nested too deeply for the kernel"
        with pytest.raises(TooDeep):
            Session(mode).infer_term(loop, t)
        # equality recurses less deeply per level than checking
        with pytest.raises(TooDeep):
            Session(mode).equal(loop, tower(1500), tower(1500))
    assert Session(Mode.CATT_SA).check_term(loop, tower(2), ty).ok
