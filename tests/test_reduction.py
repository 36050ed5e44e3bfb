"""Reduction, normalisation, definitional equality, graded equality,
regularity."""

from __future__ import annotations

import math

import pytest

from cattsa import pasting, reduction
from cattsa.errors import MalformedSyntax, TooDeep
from cattsa.insertion import InsertionProblem, insert_ctx
from cattsa.pasting import unbiased_type
from cattsa.reduction import def_eq, normalize
from cattsa.syntax import (
    STAR,
    Arr,
    Coh,
    Context,
    Substitution,
    Var,
    alpha_eq,
    apply_sub_term,
    apply_sub_type,
    dim_type,
    free_vars,
    identity_sub,
    support,
    term_str,
)
from cattsa.trees import (
    ctx_to_tree,
    is_linear,
    linear_height,
    tree_depth,
    tree_to_ctx,
)
from cattsa.typecheck import Mode, Session
from helpers import (
    CHAIN3,
    DELTA,
    VERT2,
    WHISKER_R,
    canonical_term,
    chain,
    count_insertions,
    comp2,
    ctx_of_telescope,
    curated_corpus,
    enumerate_trees,
    random_corpus,
    reduction_graph,
    unbiased_apply,
    unbiased_term,
)
from oracles import (
    Ordinal,
    branching_height,
    disc_context,
    eq_at_level,
    is_regular,
    leaf_labels,
    ord_lt,
    regular_height,
    step_candidates,
    syntactic_depth,
    to_disc_sub,
)

AMB3 = chain(3, "u", "m")
AMB4 = chain(4, "u", "m")
M = [Var(f"m{i}") for i in range(1, 5)]


def test_variables_do_not_reduce():
    assert step_candidates(AMB3, Var("m1")) == []


def test_nested_composite_has_exactly_one_redex():
    t = comp2(AMB3, M[0], comp2(AMB3, M[1], M[2]))
    cands = step_candidates(AMB3, t)
    assert len(cands) == 1
    redex, result = cands[0]
    assert redex.rule == "insertion" and redex.position == ()
    assert redex.detail is not None and redex.detail[0] == "a2"
    expected = unbiased_apply(CHAIN3, AMB3, M[:3])
    assert alpha_eq(result, expected)


def test_unbiased_composite_of_variables_is_normal():
    t = unbiased_apply(CHAIN3, AMB3, M[:3])
    assert step_candidates(AMB3, t) == []


def test_normalize_variable():
    assert normalize(AMB3, Var("m1")) == Var("m1")


def test_bracketings_normalize_to_ternary_composite():
    left = comp2(AMB3, comp2(AMB3, M[0], M[1]), M[2])
    right = comp2(AMB3, M[0], comp2(AMB3, M[1], M[2]))
    expected = unbiased_apply(CHAIN3, AMB3, M[:3])
    assert alpha_eq(normalize(AMB3, left), expected)
    assert alpha_eq(normalize(AMB3, right), expected)


def test_two_dimensional_composite_normalizes_to_unbiased():
    # a whiskered vertical pair over Delta reduces to the unbiased composite
    sigma = Substitution(
        tuple(
            zip(
                WHISKER_R.vars,
                [
                    Var("x"),
                    Var("y"),
                    Var("f"),
                    Var("h"),
                    unbiased_apply(VERT2, DELTA, [Var("alpha"), Var("beta")]),
                    Var("z"),
                    Var("k"),
                ],
            )
        )
    )
    t = Coh(WHISKER_R, unbiased_type(WHISKER_R), sigma)
    expected = unbiased_term(DELTA)
    got = normalize(DELTA, t)
    assert alpha_eq(got, expected)
    # the exhaustive reduction graph finds the same unique normal form
    nodes, edges, normals = reduction_graph(DELTA, t)
    assert len(normals) == 1
    assert normals[0] == canonical_term(expected)


def test_def_eq_reflexive_and_bracketing():
    t = comp2(AMB3, M[0], comp2(AMB3, M[1], M[2]))
    s = comp2(AMB3, comp2(AMB3, M[0], M[1]), M[2])
    assert def_eq(AMB3, t, t)
    assert def_eq(AMB3, s, t)


def test_def_eq_distinguishes_distinct_composites():
    amb = ctx_of_telescope(  # [p [a] q [b] r [c] s], three composable arrows
        "(p : *) (q : *) (a : p -> q) (r : *) (b : q -> r) (s : *) (c : r -> s)"
    )
    ab = comp2(amb, Var("a"), Var("b"))
    bc = comp2(amb, Var("b"), Var("c"))
    assert not def_eq(amb, ab, bc)


def test_def_eq_of_items_of_different_kinds_is_false():
    assert not def_eq(Context(), Var("x"), STAR)
    assert not def_eq(Context(), STAR, Var("x"))


# (a : *) (b : *) (p : a -> b) (q : a -> b) is not pasting: it lacks a cell p -> q
PARALLEL = ctx_of_telescope("(a : *) (b : *) (p : a -> b) (q : a -> b)")
PARALLEL_COH = Coh(PARALLEL, Arr(Var("a"), STAR, Var("b")), identity_sub(PARALLEL))


@pytest.mark.parametrize("allow", [True, False])
def test_a_coherence_over_a_non_pasting_context_is_normal(allow):
    trace: list[str] = []
    assert normalize(PARALLEL, PARALLEL_COH, allow_disc_insertion=allow, trace=trace) is PARALLEL_COH
    assert trace == []


@pytest.mark.parametrize("allow", [True, False])
def test_an_argument_over_a_non_pasting_context_is_not_inserted(allow):
    amb = ctx_of_telescope("(x : *) (y : *) (u : x -> y) (v : x -> y) (z : *) (g : y -> z)")
    arg = Coh(PARALLEL, PARALLEL_COH.ty, Substitution(tuple(zip(PARALLEL.vars, map(Var, "xyuv")))))
    t = comp2(amb, arg, Var("g"))
    assert t.sub.values[2] is arg  # the argument at the locally maximal cell
    trace: list[str] = []
    assert normalize(amb, t, allow_disc_insertion=allow, trace=trace) is t
    assert trace == []


def test_normalize_is_idempotent_on_corpus():
    for context, t in curated_corpus():
        n1 = normalize(context, t)
        assert alpha_eq(normalize(context, n1), n1)


def test_normalize_acts_on_types_and_substitutions():
    from cattsa.syntax import Arr, Star

    nested = comp2(AMB3, M[0], comp2(AMB3, M[1], M[2]))
    flat = unbiased_apply(CHAIN3, AMB3, M[:3])
    ty = Arr(nested, Arr(Var("u0"), Star(), Var("u3")), nested)
    nty = normalize(AMB3, ty)
    assert alpha_eq(nty, Arr(flat, Arr(Var("u0"), Star(), Var("u3")), flat))
    assert def_eq(AMB3, ty, nty)
    sigma = Substitution((("p", nested), ("q", Var("u0"))))
    nsigma = normalize(AMB3, sigma)
    assert isinstance(nsigma, Substitution)
    assert alpha_eq(nsigma.lookup("p"), flat)
    assert def_eq(AMB3, sigma, nsigma)
    assert not def_eq(AMB3, sigma, Substitution((("p", Var("u0")),)))


def test_trace_lines_have_the_documented_shape():
    trace: list[str] = []
    t = comp2(AMB3, M[0], comp2(AMB3, M[1], M[2]))
    normalize(AMB3, t, trace=trace)
    assert len(trace) == 1
    assert trace[0].startswith("insertion at head: ")
    assert " ⇝ " in trace[0]


def test_reduction_stable_under_substitution():
    # t ~> t' implies t[rho] ~> t'[rho], found among the one-step reducts
    rho_amb = chain(4, "v", "n")
    rho = Substitution(
        (
            ("u0", Var("v0")),
            ("u1", Var("v1")),
            ("m1", Var("n1")),
            ("u2", Var("v2")),
            ("m2", Var("n2")),
            ("u3", Var("v4")),
            ("m3", comp2(rho_amb, Var("n3"), Var("n4"))),
        )
    )
    t = comp2(AMB3, M[0], comp2(AMB3, M[1], M[2]))
    for _, reduct in step_candidates(AMB3, t):
        substituted = apply_sub_term(t, rho)
        target = apply_sub_term(reduct, rho)
        assert any(
            alpha_eq(r, target) for _, r in step_candidates(rho_amb, substituted)
        )


def test_depth_decreases_along_every_step_curated():
    for context, t in curated_corpus():
        nodes, edges, _ = reduction_graph(context, t)
        for key, succs in edges.items():
            for skey in succs:
                assert ord_lt(
                    syntactic_depth(nodes[skey]), syntactic_depth(nodes[key])
                )


def _head_type_mentions_insertion_var(term, redex) -> bool:
    """Locate the coherence node the redex fired at and test whether the
    inserted variable occurs freely in its head type."""
    node = term
    for kind, index in redex.position:
        if kind == "arg" or kind == "entry":
            node = node.sub.entries[index][1] if kind == "arg" else node.entries[index][1]
        elif kind == "type":
            node = node.ty
        elif kind == "src":
            node = node.src
        elif kind == "base":
            node = node.base
        elif kind == "tgt":
            node = node.tgt
    assert isinstance(node, Coh)
    assert redex.detail is not None
    return redex.detail[0] in free_vars(node.ty)


def test_depth_decreases_when_insertion_var_not_in_head_type():
    # the case where the inserted cell does not occur in the head type: a
    # special case of the strict decrease along every step, which
    # criterion 4 checks over the whole corpus
    corpus = curated_corpus() + random_corpus(150, seed=31)
    checked = 0
    for context, t in corpus:
        nodes, _, _ = reduction_graph(context, t, max_nodes=200)
        for node in nodes.values():
            for redex, result in step_candidates(context, node):
                if _head_type_mentions_insertion_var(node, redex):
                    continue
                checked += 1
                assert ord_lt(syntactic_depth(result), syntactic_depth(node))
    assert checked > 100


def test_whisker_argument_flattens_into_the_diagram():
    # inserting at a whisker position splits the whisker cell in two: the
    # composite argument is absorbed and the result is the unbiased
    # composite over the enlarged diagram
    amb = ctx_of_telescope(  # [x [f [alpha] g [beta] h] y [c] w [d] z]
        "(x : *) (y : *) (f : x -> y) (g : x -> y) (alpha : f -> g) (h : x -> y)"
        " (beta : g -> h) (w : *) (c : y -> w) (z : *) (d : w -> z)"
    )
    sigma = Substitution(
        tuple(
            (v, comp2(amb, Var("c"), Var("d")) if v == "k" else Var(v))
            for v in DELTA.vars
        )
    )
    t = Coh(DELTA, unbiased_type(DELTA), sigma)
    expected = unbiased_apply(amb, amb, [Var("alpha"), Var("beta"), Var("c"), Var("d")])
    assert alpha_eq(normalize(amb, t), expected)


def test_depth_can_increase_for_whisker_insertions():
    # the whisker step that broke a measure weighing every coherence
    # omega^dim wherever it stands: the whisker cell occurs in both boundary
    # composites of the head type, so inserting there writes two copies of
    # the inner composite into the type while freeing one from the
    # arguments.  Copies under a head type weigh one power of omega less,
    # so the step now lowers the depth:
    #   before: head omega^3, argument comp [c, d] omega^2, two composites
    #           in the head type omega each;
    #   after:  head omega^3, four composites in the head type omega each
    amb = ctx_of_telescope(  # [x [f [alpha] g [beta] h] y [c] w [d] z]
        "(x : *) (y : *) (f : x -> y) (g : x -> y) (alpha : f -> g) (h : x -> y)"
        " (beta : g -> h) (w : *) (c : y -> w) (z : *) (d : w -> z)"
    )
    sigma = Substitution(
        tuple(
            (v, comp2(amb, Var("c"), Var("d")) if v == "k" else Var(v))
            for v in DELTA.vars
        )
    )
    t = Coh(DELTA, unbiased_type(DELTA), sigma)
    assert Session(Mode.CATT).infer_term(amb, t) is not None  # well typed in both modes
    steps = [(r, res) for r, res in step_candidates(amb, t) if r.position == ()]
    assert len(steps) == 1 and steps[0][0].detail[0] == "k"
    before = syntactic_depth(t)
    after = syntactic_depth(steps[0][1])
    assert before == Ordinal(((3, 1), (2, 1), (1, 2)))  # ω^3 ⊞ ω^2 ⊞ ω·2
    assert after == Ordinal(((3, 1), (1, 4)))  # ω^3 ⊞ ω·4
    assert ord_lt(after, before)  # the measure drops on this whisker step
    # and the term normalizes, with a strictly smaller final depth
    nf = normalize(amb, t)
    assert ord_lt(syntactic_depth(nf), before)


def test_local_confluence_curated():
    for context, t in curated_corpus():
        nodes, edges, normals = reduction_graph(context, t)
        assert len(normals) == 1
        assert normals[0] == canonical_term(normalize(context, t))


def test_subject_reduction_curated():
    for context, t in curated_corpus():
        ty = Session(Mode.CATT_SA).infer_term(context, t)
        for _, reduct in step_candidates(context, t):
            ty2 = Session(Mode.CATT_SA).infer_term(context, reduct)
            assert def_eq(context, ty, ty2)


# ---------------------------------------------------------------------------
# Graded equality
# ---------------------------------------------------------------------------


def test_eq_level_zero_is_structural():
    s = comp2(AMB3, comp2(AMB3, M[0], M[1]), M[2])
    t = comp2(AMB3, M[0], comp2(AMB3, M[1], M[2]))
    assert eq_at_level(AMB3, s, s, 0)
    assert not eq_at_level(AMB3, s, t, 0)
    for context, u in curated_corpus()[:10]:
        assert eq_at_level(context, u, u, 0) == alpha_eq(u, u)


def test_eq_level_above_dimension_is_definitional():
    s = comp2(AMB3, comp2(AMB3, M[0], M[1]), M[2])
    t = comp2(AMB3, M[0], comp2(AMB3, M[1], M[2]))
    assert eq_at_level(AMB3, s, t, 2)  # both have dimension 1 < 2
    assert not eq_at_level(AMB3, s, t, 1)  # structural at dimension >= 1


def test_eq_level_double_insertion_results():
    # two independent insertions performed in either order agree at the
    # dimension of the original term
    t = comp2(AMB4, comp2(AMB4, M[0], M[1]), comp2(AMB4, M[2], M[3]))
    cands = step_candidates(AMB4, t)
    heads = [(r, res) for r, res in cands if r.position == ()]
    assert len(heads) == 2
    orders = []
    for _, first in heads:
        assert isinstance(first, Coh)
        seconds = [res for r, res in step_candidates(AMB4, first) if r.position == ()]
        assert len(seconds) == 1
        orders.append(seconds[0])
    assert eq_at_level(AMB4, orders[0], orders[1], 1)


def test_eq_level_double_insertion_two_dimensional():
    amb = ctx_of_telescope(  # [a [p [m1] q [m2] r [m3] s [m4] t] b]
        "(a : *) (b : *) (p : a -> b) (q : a -> b) (m1 : p -> q) (r : a -> b) (m2 : q -> r)"
        " (s : a -> b) (m3 : r -> s) (t : a -> b) (m4 : s -> t)"
    )
    vert = lambda u, v: unbiased_apply(VERT2, amb, [u, v])
    m1, m2, m3, m4 = (Var(f"m{i}") for i in range(1, 5))
    t = vert(vert(m1, m2), vert(m3, m4))
    heads = [(r, res) for r, res in step_candidates(amb, t) if r.position == ()]
    assert len(heads) == 2  # insertions at both two-cell positions
    orders = []
    for _, first in heads:
        seconds = [res for r, res in step_candidates(amb, first) if r.position == ()]
        assert seconds
        orders.append(seconds[0])
    assert eq_at_level(amb, orders[0], orders[1], 2)
    assert def_eq(amb, orders[0], orders[1])


def test_critical_pair_insertion_vs_argument_reduction():
    # the overlapping pair: the head insertion at a variable competes with a
    # reduction inside that same variable's argument; both sides rejoin
    amb = chain(4, "u", "m")
    n = [Var(f"m{i}") for i in range(1, 5)]
    t = comp2(amb, n[0], comp2(amb, n[1], comp2(amb, n[2], n[3])))
    cands = step_candidates(amb, t)
    head = [res for r, res in cands if r.position == ()]
    inner = [res for r, res in cands if r.position != ()]
    assert len(head) == 1 and len(inner) == 1
    joined_a = normalize(amb, head[0])
    joined_b = normalize(amb, inner[0])
    assert alpha_eq(joined_a, joined_b)
    nodes, graph, normals = reduction_graph(amb, t)
    assert any(len(s) >= 2 for s in graph.values())
    assert len(normals) == 1


def test_eq_level_implies_def_eq():
    pairs = [
        (AMB3,
         comp2(AMB3, comp2(AMB3, M[0], M[1]), M[2]),
         comp2(AMB3, M[0], comp2(AMB3, M[1], M[2]))),
    ]
    for context, t in curated_corpus()[:8]:
        pairs.append((context, t, t))
    for context, a, b in pairs:
        for n in (0, 1, 2, 3):
            if eq_at_level(context, a, b, n):
                assert def_eq(context, a, b)


def test_interchange_is_not_identified():
    # only associativity is strict: the vertical composite of two whiskered
    # cells is blocked by the height condition (branching height 1 exceeds
    # the whisker context's linear height 0), while whiskering a vertical
    # pair flattens, and the two sides stay distinct
    whisk = lambda m, k: unbiased_apply(WHISKER_R, DELTA, [m, k])
    vert = lambda m, n: unbiased_apply(VERT2, DELTA, [m, n])
    lhs = vert(whisk(Var("alpha"), Var("k")), whisk(Var("beta"), Var("k")))
    rhs = whisk(vert(Var("alpha"), Var("beta")), Var("k"))
    assert step_candidates(DELTA, lhs) == []
    assert alpha_eq(
        normalize(DELTA, rhs),
        unbiased_apply(DELTA, DELTA, [Var("alpha"), Var("beta"), Var("k")]),
    )
    assert not def_eq(DELTA, lhs, rhs)


# ---------------------------------------------------------------------------
# Disc insertion switch
# ---------------------------------------------------------------------------


def _boxed(context: Context, t) -> Coh:
    d1 = disc_context(1)
    return Coh(d1.ctx, d1.ctx.lookup("d1m"), to_disc_sub(context, t))


def test_disc_insertion_unboxes_by_default():
    t = comp2(AMB3, _boxed(AMB3, M[0]), M[1])
    cands = [r for r, _ in step_candidates(AMB3, t) if r.position == ()]
    assert len(cands) == 1
    got = normalize(AMB3, t)
    assert alpha_eq(got, comp2(AMB3, M[0], M[1]))


def test_disc_insertion_can_be_disabled():
    t = comp2(AMB3, _boxed(AMB3, M[0]), M[1])
    cands = step_candidates(AMB3, t, allow_disc_insertion=False)
    assert cands == []


def test_graded_equality_follows_the_disc_setting():
    boxed = comp2(AMB3, _boxed(AMB3, M[0]), M[1])
    plain = comp2(AMB3, M[0], M[1])
    assert eq_at_level(AMB3, boxed, plain, 2)
    assert not eq_at_level(AMB3, boxed, plain, 2, allow_disc_insertion=False)


# ---------------------------------------------------------------------------
# Regularity
# ---------------------------------------------------------------------------


def test_variables_are_regular_with_infinite_height():
    assert is_regular(AMB3, Var("m1"))
    assert regular_height(AMB3, Var("m1")) == math.inf


def test_unbiased_composite_of_variables_is_regular():
    t = comp2(AMB3, M[0], M[1])
    assert is_regular(AMB3, t)
    assert regular_height(AMB3, t) == 0


def test_coherence_over_disc_is_not_regular():
    t = _boxed(AMB3, M[0])
    assert not is_regular(AMB3, t)
    with pytest.raises(Exception):
        regular_height(AMB3, t)


def test_nested_composite_is_not_regular():
    # the inner composite has regular height 0, not above the branching height
    t = comp2(AMB3, M[0], comp2(AMB3, M[1], M[2]))
    assert not is_regular(AMB3, t)


def test_whiskered_vertical_pair_is_regular():
    sigma = Substitution(
        tuple(
            zip(
                WHISKER_R.vars,
                [
                    Var("x"),
                    Var("y"),
                    Var("f"),
                    Var("h"),
                    unbiased_apply(VERT2, DELTA, [Var("alpha"), Var("beta")]),
                    Var("z"),
                    Var("k"),
                ],
            )
        )
    )
    t = Coh(WHISKER_R, unbiased_type(WHISKER_R), sigma)
    assert is_regular(DELTA, t)
    assert regular_height(DELTA, t) == 0


def _restrict(context: Context, names: frozenset) -> Context:
    return Context(tuple((v, ty) for v, ty in context.entries if v in names))


def _unbiased_of_support(context: Context, t) -> object:
    sub_ctx = _restrict(context, support(context, t))
    u = unbiased_term(sub_ctx)
    if isinstance(u, Var):
        return u
    return Coh(sub_ctx, u.ty, identity_sub(sub_ctx))


def test_regular_terms_normalize_to_unbiased_composite_of_support():
    samples = [(c, t) for c, t in curated_corpus() if is_regular(c, t)]
    samples += [(c, t) for c, t in random_corpus(60, seed=5) if is_regular(c, t)]
    assert samples
    for context, t in samples:
        assert alpha_eq(normalize(context, t), _unbiased_of_support(context, t))


def test_too_deep_term_is_a_typed_error_in_reduction():
    # a left-nested composite of 1201 endo-arrows nests coherences 1200
    # deep, past what the normaliser's recursion can traverse
    loop = Context((("x", STAR), ("f", Arr(Var("x"), STAR, Var("x")))))
    t = Var("f")
    for _ in range(1200):
        t = comp2(loop, t, Var("f"))
    with pytest.raises(TooDeep):
        normalize(loop, t)
    with pytest.raises(TooDeep):
        def_eq(loop, t, Var("f"))


# ---------------------------------------------------------------------------
# No wasted work: nothing rendered untraced, one insertion per step
# ---------------------------------------------------------------------------


def test_untraced_normalisation_renders_nothing(monkeypatch):
    def no_render(item):
        raise AssertionError("an untraced normalisation rendered a term")

    monkeypatch.setattr(reduction, "item_str", no_render)
    cases = curated_corpus() + random_corpus(60, seed=5)
    for allow in (True, False):
        for context, t in cases:
            nf = normalize(context, t, allow_disc_insertion=allow)
            assert def_eq(context, t, nf, allow_disc_insertion=allow)
    with pytest.raises(AssertionError, match="rendered"):
        normalize(*cases[1], trace=[])


def test_each_step_of_the_curated_corpus_inserts_once(monkeypatch):
    calls = count_insertions(monkeypatch)
    steps = 0
    for allow in (True, False):
        for context, t in curated_corpus():
            calls.clear()
            trace: list[str] = []
            normalize(context, t, allow_disc_insertion=allow, trace=trace)
            assert len(calls) == len(trace)
            steps += len(trace)
    assert steps > 0


def test_the_public_coherence_constructor_checks_its_domain():
    pair = ctx_of_telescope("(x : *) (y : *) (f : x -> y)")
    ty = Arr(Var("x"), STAR, Var("y"))
    terms = (Var("a"), Var("b"), Var("p"))
    for names in (("x", "y"), ("y", "x", "f"), ("x", "y", "g"), ("x", "y", "f", "z")):
        for sub in (Substitution(tuple(zip(names, terms + (Var("c"),)))),
                    Substitution.deferred(names, values=(terms + (Var("c"),))[:len(names)])):
            with pytest.raises(MalformedSyntax) as exc:
                Coh(pair, ty, sub)
            assert str(exc.value) == (
                "coherence argument domain must match its context variables in order")
    assert Coh(pair, ty, Substitution.deferred(pair.vars, values=terms)).sub.values == terms


def _coherences(item) -> list[Coh]:
    """Every coherence in item: in arguments, types and context entries."""
    todo, out = [item], []
    while todo:
        x = todo.pop()
        if isinstance(x, Coh):
            out.append(x)
            todo += (*x.sub.values, x.ty, *(ty for _, ty in x.ctx.entries))
        elif isinstance(x, Arr):
            todo += (x.src, x.base, x.tgt)
    return out


def _composites_over_small_trees() -> list[tuple[Context, Coh]]:
    """The unbiased composite over each tree of enumerate_trees(9) with, at
    one locally maximal cell, an unbiased composite over each tree of that
    cell's dimension and variables everywhere else."""
    trees, out = enumerate_trees(9), []
    for s in trees:
        outer = tree_to_ctx(s)
        for x in leaf_labels(s):
            for t in (t for t in trees if tree_depth(t) == dim_type(outer.lookup(x))):
                inner = tree_to_ctx(t)
                tau = Substitution(tuple((v, Var(v + "_i")) for v in inner.vars))
                arg = Coh(inner, unbiased_type(inner), tau)
                sigma = Substitution(tuple((v, arg if v == x else Var(v + "_o")) for v in outer.vars))
                out.append((Context(), Coh(outer, unbiased_type(outer), sigma)))
    return out


def test_every_coherence_of_a_normal_form_has_its_contexts_domain():
    # the normaliser builds its rebuilt nodes and its reducts without the
    # public constructor's domain check, which each must pass all the same
    composites = _composites_over_small_trees()
    assert len(composites) == 341
    checked = 0
    for allow in (True, False):
        for context, t in curated_corpus() + composites:
            for coh in _coherences(normalize(context, t, allow_disc_insertion=allow)):
                assert coh.sub.domain == coh.ctx.vars
                checked += 1
    assert checked == 2630


def _left_nested(n: int) -> tuple[Context, Coh]:
    """The left-nested composite of the n arrows of chain(n)."""
    ambient = chain(n)
    t = Var("a1")
    for i in range(2, n + 1):
        t = comp2(ambient, t, Var(f"a{i}"))
    return ambient, t


def test_the_normaliser_reads_the_arguments_it_builds_by_position():
    # no argument substitution that normalising builds gets an index by
    # name: the normaliser reads arguments by position, so a lookup by name
    # on one of them is a cost that nothing needed
    cases = curated_corpus() + random_corpus(200, seed=5) + [_left_nested(n) for n in (3, 8, 16)]
    built = 0
    for context, t in cases:
        given = {id(coh.sub) for coh in _coherences(t)}
        for coh in _coherences(normalize(context, t)):
            if id(coh.sub) not in given:
                assert "_table" not in coh.sub.__dict__, term_str(coh)
                built += 1
    assert built == 95


# ---------------------------------------------------------------------------
# The reduct of an unbiased composite is one: its unbiased type is recorded
# ---------------------------------------------------------------------------


def test_an_unbiased_insertion_normalises_to_the_unbiased_type():
    """For unbiased composites over S and T, inserted at a leaf x of S that
    T fills, the normal form of S's unbiased type carried to the inserted
    context is that context's unbiased type: the property by which the
    normaliser records a reduct's unbiased type instead of computing it.
    With disc insertion off a linear T is never inserted, and there the
    property fails for some discs of dimension 1, 2 and 3."""
    trees = enumerate_trees(11)
    checked = 0
    for s in trees:
        outer = tree_to_ctx(s)
        outer_type = unbiased_type(outer)
        for t in trees:
            inner = tree_to_ctx(t)
            for x in leaf_labels(s):
                if branching_height(s, x) > linear_height(t):
                    continue
                if dim_type(outer.lookup(x)) != tree_depth(t):
                    continue
                r = insert_ctx(InsertionProblem(outer, x, inner, unbiased_type(inner)))
                checked += 1
                expected = unbiased_type(Context(r.inserted.entries))  # a cold context
                carried = apply_sub_type(outer_type, r.external)
                for allow in (True, False) if not is_linear(t) else (True,):
                    assert normalize(r.inserted, carried, allow_disc_insertion=allow) == expected
    assert checked == 1480


def test_every_recorded_reduct_shape_is_the_computed_one(monkeypatch):
    recorded = []

    def spy(ctx, known=None):
        if known is not None:
            recorded.append(ctx)
        return pasting.unbiased_type(ctx, known)

    monkeypatch.setattr(reduction, "unbiased_type", spy)
    cases = curated_corpus() + random_corpus(400, seed=77)
    for allow in (True, False):
        for context, t in cases:
            normalize(context, t, allow_disc_insertion=allow)
    assert recorded
    for ctx in recorded:
        cold = Context(ctx.entries)
        assert ctx_to_tree(ctx) == ctx_to_tree(cold)
        assert pasting.unbiased_type(ctx) == pasting.unbiased_type(cold)
