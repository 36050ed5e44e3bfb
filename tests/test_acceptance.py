"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and statistics.
"""

from __future__ import annotations

import time

from cattsa.insertion import InsertionProblem, insert_ctx, type_linear_height
from cattsa.parser import parse
from cattsa.pasting import unbiased_type
from cattsa.reduction import def_eq, normalize
from cattsa.syntax import (
    Coh,
    Context,
    Substitution,
    Var,
    alpha_eq,
    apply_sub_type,
    compose_sub,
    dim_term,
    dim_type,
    var_sub,
)
from cattsa.trees import cell_table, ctx_to_tree, linear_height, tree_to_ctx
from cattsa.typecheck import Mode, Session
from cattsa import cli
from helpers import (
    CHAIN2,
    DELTA,
    THETA,
    all_bracketings,
    canonical_term,
    chain,
    comp2,
    ctx_of_telescope,
    curated_corpus,
    enumerate_globular_contexts,
    enumerate_trees,
    random_corpus,
    reduction_graph,
    tree,
    unbiased_apply,
)
from oracles import check_pushout, insert_tree, ord_lt, step_candidates, syntactic_depth

L = tree


def _report(number: int, name: str, started: float, budget: float | None, **stats):
    elapsed = time.perf_counter() - started
    details = " ".join(f"{k}={v}" for k, v in stats.items())
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s {details}")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s"


# ---------------------------------------------------------------------------
# 1. Worked-example fidelity
# ---------------------------------------------------------------------------


def test_criterion_1_worked_example_fidelity():
    t0 = time.perf_counter()
    # the flattening of a nested binary composite is the ternary tree
    s = L(["x", "y", "z"], [L(["f"]), L(["g"])])
    inner = L(["x'", "y'", "z'"], [L(["f'"]), L(["g'"])])
    assert insert_tree(s, (1,), inner) == L(
        ["x", "x'", "y'", "z'"], [L(["f"]), L(["f'"]), L(["g'"])]
    )

    # the two-dimensional insertion with clashing names: the renaming scheme
    # must reproduce the primed labels exactly
    prob = InsertionProblem(DELTA, "alpha", THETA, unbiased_type(THETA))
    res = insert_ctx(prob)
    assert ctx_to_tree(res.inserted) == L(
        ["x'", "y'", "z"],
        [
            L(["f'", "g'", "h'", "h"], [L(["alpha'"]), L(["beta'"]), L(["beta"])]),
            L(["k"]),
        ],
    )
    kappa = dict(res.external.entries)
    expected_action = {
        "x": Var("x'"),
        "y": Var("y'"),
        "z": Var("z"),
        "f": Var("f'"),
        "g": Var("h'"),
        "h": Var("h"),
        "k": Var("k"),
        "beta": Var("beta"),
        "alpha": Coh(THETA, unbiased_type(THETA), res.internal),
    }
    assert kappa == expected_action
    assert res.internal == Substitution(
        tuple((v, Var(v + "'")) for v in THETA.vars)
    )
    _report(1, "worked-example fidelity", t0, 1.0)


# ---------------------------------------------------------------------------
# 2. Tree round trip
# ---------------------------------------------------------------------------


def test_criterion_2_tree_round_trip():
    t0 = time.perf_counter()
    trees = enumerate_trees(7)
    for t in trees:
        context = tree_to_ctx(t)
        assert ctx_to_tree(context) == t
        assert tree_to_ctx(ctx_to_tree(context)) == context
    _report(2, "tree round trip", t0, 30.0, trees=len(trees))


# ---------------------------------------------------------------------------
# 3. Associativity collapse
# ---------------------------------------------------------------------------


def test_criterion_3_associativity_collapse():
    t0 = time.perf_counter()
    catalan = {3: 2, 4: 5, 5: 14}
    total = 0
    for n in (3, 4, 5):
        amb = chain(n, "u", "m")
        leaves = [Var(f"m{i}") for i in range(1, n + 1)]
        terms = all_bracketings(amb, leaves)
        assert len(terms) == catalan[n]
        expected = unbiased_apply(chain(n), amb, leaves)
        normals = [normalize(amb, t) for t in terms]
        for nf in normals:
            assert alpha_eq(nf, expected)
        # in the base mode the same terms are pairwise distinct
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                assert not alpha_eq(terms[i], terms[j])
        total += len(terms)
    _report(3, "associativity collapse", t0, 10.0, bracketings=total)


# ---------------------------------------------------------------------------
# 4. Termination measure
# ---------------------------------------------------------------------------


def test_criterion_4_termination_measure():
    """Stated criterion: the syntactic depth strictly decreases along every
    one-step reduction encountered.  The depth weighs a coherence less the
    more head types enclose it, so the copies of the inner coherence that an
    insertion at a cell occurring in the head type (a whisker position,
    codimension > 0) writes into the type weigh less than the argument the
    step frees; see syntactic_depth for the argument and test_reduction.py
    for the pinned whisker step.  Termination is also checked directly by
    criterion 5, which explores every reduction graph exhaustively."""
    t0 = time.perf_counter()
    corpus = curated_corpus() + random_corpus(500, seed=2024)
    violations = 0
    edges = 0
    sample = None
    for context, t in corpus:
        assert dim_term(context, t) <= 3
        nodes, graph, _ = reduction_graph(context, t, max_nodes=400)
        for key, succs in graph.items():
            for skey in succs:
                edges += 1
                if not ord_lt(syntactic_depth(nodes[skey]), syntactic_depth(nodes[key])):
                    violations += 1
                    if sample is None:
                        sample = (
                            syntactic_depth(nodes[key]),
                            syntactic_depth(nodes[skey]),
                        )
    assert edges > 500
    elapsed = time.perf_counter() - t0
    if violations:
        print(
            f"ACCEPTANCE 4 (termination measure): FAIL in {elapsed:.2f}s "
            f"steps={edges} violations={violations} example={sample[0]} -> {sample[1]}"
        )
    else:
        print(f"ACCEPTANCE 4 (termination measure): PASS in {elapsed:.2f}s steps={edges}")
    assert violations == 0, (
        f"{violations} of {edges} reduction steps increase the depth measure "
        f"(e.g. {sample[0]} -> {sample[1]}); insertions at cells occurring in "
        "the head type duplicate the inner coherence, so the measure as "
        "defined does not decrease for codimension > 0 insertions"
    )


# ---------------------------------------------------------------------------
# 5. Confluence at desk scale
# ---------------------------------------------------------------------------


def test_criterion_5_confluence():
    t0 = time.perf_counter()
    corpus = curated_corpus() + random_corpus(500, seed=2024)
    branching_terms = 0
    pairs_checked = 0
    for context, t in corpus:
        nodes, graph, normals = reduction_graph(context, t, max_nodes=400)
        # unique normal form, equal to the innermost-leftmost result
        assert len(normals) == 1
        assert normals[0] == canonical_term(normalize(context, t))
        nf = {}

        def normal_form_of(key):
            if key not in nf:
                nf[key] = canonical_term(normalize(context, nodes[key]))
            return nf[key]

        has_branch = False
        for key, succs in graph.items():
            if len(succs) >= 2:
                has_branch = True
                for i in range(len(succs)):
                    for j in range(i + 1, len(succs)):
                        pairs_checked += 1
                        assert normal_form_of(succs[i]) == normal_form_of(succs[j])
        branching_terms += has_branch
    assert branching_terms >= 10
    _report(
        5,
        "confluence",
        t0,
        60.0,
        branching_terms=branching_terms,
        reduct_pairs=pairs_checked,
    )


# ---------------------------------------------------------------------------
# 6. Pushout property
# ---------------------------------------------------------------------------


def _chain_instance():
    outer = CHAIN2
    inner = chain(2, "y", "b")
    prob = InsertionProblem(outer, "a2", inner, unbiased_type(inner))
    res = insert_ctx(prob)
    amb = chain(3, "u", "m")
    tau = Substitution(
        (
            ("y0", Var("u1")),
            ("y1", Var("u2")),
            ("b1", Var("m2")),
            ("y2", Var("u3")),
            ("b2", Var("m3")),
        )
    )
    sigma = Substitution(
        (
            ("x0", Var("u0")),
            ("x1", Var("u1")),
            ("a1", Var("m1")),
            ("x2", Var("u3")),
            ("a2", Coh(inner, unbiased_type(inner), tau)),
        )
    )
    gamma2, rho = _renamed_copy(res.inserted, "_c")
    cones = [
        (amb, sigma, tau),
        (res.inserted, res.external, res.internal),
        (gamma2, compose_sub(res.external, rho), compose_sub(res.internal, rho)),
    ]
    return prob, res, cones


def _renamed_copy(context: Context, suffix: str):
    ren = {v: v + suffix for v in context.vars}
    renamed = Context(
        tuple((ren[v], apply_sub_type(ty, var_sub(ren, ty))) for v, ty in context.entries)
    )
    rho = Substitution(tuple((v, Var(ren[v])) for v in context.vars))
    return renamed, rho


def _whisker_instance():
    prob = InsertionProblem(DELTA, "alpha", THETA, unbiased_type(THETA))
    res = insert_ctx(prob)
    a = unbiased_type(THETA)

    # a genuinely composite cone: three stacked two-cells with a whisker
    gamma3 = ctx_of_telescope(  # [a [p [w1] q [w2] r [w3] s] b [o] c]
        "(a : *) (b : *) (p : a -> b) (q : a -> b) (w1 : p -> q) (r : a -> b) (w2 : q -> r)"
        " (s : a -> b) (w3 : r -> s) (c : *) (o : b -> c)"
    )
    tau = Substitution(
        (
            ("x", Var("a")),
            ("y", Var("b")),
            ("f", Var("p")),
            ("g", Var("q")),
            ("alpha", Var("w1")),
            ("h", Var("r")),
            ("beta", Var("w2")),
        )
    )
    sigma = Substitution(
        (
            ("x", Var("a")),
            ("y", Var("b")),
            ("f", Var("p")),
            ("g", Var("r")),
            ("alpha", Coh(THETA, a, tau)),
            ("h", Var("s")),
            ("beta", Var("w3")),
            ("z", Var("c")),
            ("k", Var("o")),
        )
    )
    gamma2, rho = _renamed_copy(res.inserted, "_c")
    cones = [
        (gamma3, sigma, tau),
        (res.inserted, res.external, res.internal),
        (gamma2, compose_sub(res.external, rho), compose_sub(res.internal, rho)),
    ]
    return prob, res, cones


def test_criterion_6_pushout_property():
    t0 = time.perf_counter()
    eliminated = 0
    for prob, res, cones in (_chain_instance(), _whisker_instance()):
        assert len(cones) >= 3
        report = check_pushout(prob, res, cones)
        assert report.square_commutes, report.messages
        for cone in report.cones:
            assert cone.ok, cone.messages
            assert cone.candidates_checked >= 1
            eliminated += cone.pool_size - cone.candidates_checked
    assert eliminated > 0  # the enumeration really discarded candidates
    _report(6, "pushout property", t0, None, eliminated_candidates=eliminated)


def test_every_small_insertion_is_a_pushout():
    # every locally maximal cell x of every tree of up to 11 labels, with
    # every inner tree whose unbiased type has x's dimension and enough
    # linear height: the kernel's insertion against the paper's universal
    # property, on the inserted context itself and on a renamed copy
    trees = enumerate_trees(11)
    instances = candidates = 0
    for s in trees:
        outer = tree_to_ctx(s)
        for x, (path, _) in cell_table(outer).items():
            for t in trees:
                if linear_height(t) < len(path) - 1:
                    continue
                inner = tree_to_ctx(t)
                a = unbiased_type(inner)
                if dim_type(a) != dim_term(outer, Var(x)) or type_linear_height(a) < len(path) - 1:
                    continue
                res = insert_ctx(InsertionProblem(outer, x, inner, a))
                gamma, rho = _renamed_copy(res.inserted, "_c")
                cones = [
                    (res.inserted, res.external, res.internal),
                    (gamma, compose_sub(res.external, rho), compose_sub(res.internal, rho)),
                ]
                report = check_pushout(res.problem, res, cones)
                assert report.square_commutes, (outer, x, inner, report.messages)
                for cone in report.cones:
                    assert cone.ok, (outer, x, inner, cone.messages)
                    candidates += cone.candidates_checked
                instances += 1
    assert (instances, candidates) == (1480, 2960)


# ---------------------------------------------------------------------------
# 7. Typechecker soundness surface
# ---------------------------------------------------------------------------

_VALID_HEADER = """
coh id1 (x : *) : x -> x
coh comp (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) : x -> z
coh comp3 (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) (w : *) (h : z -> w) : x -> w
coh comp4 (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) (w : *) (h : z -> w) (v : *) (i : w -> v) : x -> v
coh vert (x : *) (y : *) (f : x -> y) (g : x -> y) (m : f -> g) (h : x -> y) (n : g -> h) : f -> h
coh vert3 (x : *) (y : *) (f : x -> y) (g : x -> y) (m : f -> g) (h : x -> y) (n : g -> h) (i : x -> y) (o : h -> i) : f -> i
coh whiskr (x : *) (y : *) (f : x -> y) (g : x -> y) (m : f -> g) (z : *) (k : y -> z) : comp [f, k] -> comp [g, k]
coh whiskl (x : *) (y : *) (k : x -> y) (z : *) (f : y -> z) (g : y -> z) (m : f -> g) : comp [k, f] -> comp [k, g]
coh hcomp (x : *) (y : *) (f : x -> y) (g : x -> y) (m : f -> g) (z : *) (h : y -> z) (i : y -> z) (n : h -> i) : comp [f, h] -> comp [g, i]
coh assoc (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) (w : *) (h : z -> w) : comp [comp [f, g], h] -> comp [f, comp [g, h]]
coh associnv (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) (w : *) (h : z -> w) : comp [f, comp [g, h]] -> comp [comp [f, g], h]
coh runit (x : *) (y : *) (f : x -> y) : comp [f, id1 [y]] -> f
coh lunit (x : *) (y : *) (f : x -> y) : comp [id1 [x], f] -> f
"""

_VALID_DEFS = """
def idx (x : *) : x -> x := id1 [x]
def lassoc (x : *) (y : *) (a : x -> y) (z : *) (b : y -> z) (w : *) (c : z -> w) : x -> w := comp [comp [a, b], c]
def rassoc (x : *) (y : *) (a : x -> y) (z : *) (b : y -> z) (w : *) (c : z -> w) : x -> w := comp [a, comp [b, c]]
def flat3 (x : *) (y : *) (a : x -> y) (z : *) (b : y -> z) (w : *) (c : z -> w) : x -> w := comp3 [a, b, c]
def stack (x : *) (y : *) (f : x -> y) (g : x -> y) (m : f -> g) (h : x -> y) (n : g -> h) (i : x -> y) (o : h -> i) : f -> i := vert [vert [m, n], o]
def whiskered (x : *) (y : *) (f : x -> y) (g : x -> y) (m : f -> g) (z : *) (k : y -> z) : comp [f, k] -> comp [g, k] := whiskr [m, k]
def fused (x : *) (y : *) (f : x -> y) (g : x -> y) (m : f -> g) (h : x -> y) (n : g -> h) : f -> h := vert [m, n]
def squared (x : *) (y : *) (a : x -> y) (z : *) (b : y -> z) : x -> z := comp [a, b]
def double (x : *) (y : *) (a : x -> y) : x -> y := comp [a, id1 [y]]
"""

_INVALID_DECLS = [
    # scope errors
    ("coh s1 (x : *) (f : x -> y) : x -> x", "unbound variable in telescope"),
    ("def s2 (x : *) : x -> x := q", "unbound variable in body"),
    ("coh s3 (x : *) : x -> y", "unbound variable in head type"),
    ("def s4 (x : *) (y : *) (f : x -> y) : x -> z := f", "unbound in declared type"),
    ("coh s5 (x : *) (x : *) : x -> x", "duplicate telescope variable"),
    # support violations
    (
        "coh v1 (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) (w : *) (h : z -> w)"
        " : comp [f, g] -> comp [f, g]",
        "source support misses the tail of the chain",
    ),
    (
        "coh v2 (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) : f -> f",
        "support misses the second arrow",
    ),
    (
        "coh v3 (x : *) (y : *) (f : x -> y) (g : x -> y) (m : f -> g) (z : *)"
        " (k : y -> z) : comp [g, k] -> comp [g, k]",
        "source support misses the two-cell",
    ),
    (
        "coh v4 (x : *) (y : *) (f : x -> y) (g : x -> y) (m : f -> g) (h : x -> y)"
        " (n : g -> h) : f -> g",
        "target support misses the upper half",
    ),
    (
        "coh v5 (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) : g -> g",
        "support misses the first arrow",
    ),
    # boundary mismatches
    ("coh b1 (x : *) (y : *) (f : x -> y) : x -> f", "endpoint dimensions differ"),
    (
        "def b2 (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) : x -> z"
        " := comp [f, f]",
        "arguments are not composable",
    ),
    (
        "def b3 (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) : x -> y"
        " := comp [f, g]",
        "declared type differs from the inferred one",
    ),
    (
        "def b4 (x : *) (y : *) (f : x -> y) (g : x -> y) (m : f -> g) (h : x -> y)"
        " (n : g -> h) : f -> h := vert [n, m]",
        "two-cells composed in the wrong order",
    ),
    (
        "def b5 (x : *) (y : *) (f : x -> y) (g : x -> y) (m : f -> g) (z : *)"
        " (k : y -> z) : x -> z := comp [m, k]",
        "argument of the wrong dimension",
    ),
    # non-pasting head contexts
    ("coh n1 (x : *) (y : *) : x -> y", "two disconnected points"),
    (
        "coh n2 (x : *) (y : *) (f : x -> y) (g : x -> y) : f -> g",
        "parallel arrows without a filler",
    ),
    (
        "coh n3 (x : *) (y : *) (f : x -> y) (g : y -> x) : x -> x",
        "arrows forming a loop",
    ),
    (
        "coh n4 (x : *) (y : *) (f : x -> y) (z : *) : x -> y",
        "trailing isolated point",
    ),
    (
        "coh n5 (y : *) (x : *) (f : x -> y) : x -> y",
        "entries out of derivation order",
    ),
    # application errors
    ("def a1 (x : *) : x -> x := nothere [x]", "unknown declaration applied"),
    (
        "def a2 (x : *) (y : *) (a : x -> y) : x -> y := comp [a]",
        "wrong number of arguments",
    ),
]


def test_criterion_7_typechecker_surface():
    t0 = time.perf_counter()
    header = parse(_VALID_HEADER + _VALID_DEFS)
    env = cli.elaborate_file(header)
    valid = 0
    for d in header.decls:
        started = time.perf_counter()
        ok, message = cli._check_decl(env[d.name], Session(Mode.CATT_SA))
        assert ok, message
        assert time.perf_counter() - started < 1.0
        valid += 1
    assert valid >= 20

    invalid = 0
    for text, why in _INVALID_DECLS:
        started = time.perf_counter()
        source = _VALID_HEADER + text
        rejected = False
        try:
            bad_env = cli.elaborate_file(parse(source))
            name = parse(source).decls[-1].name
            ok, _ = cli._check_decl(bad_env[name], Session(Mode.CATT_SA))
            rejected = not ok
        except Exception:
            rejected = True
        assert rejected, f"accepted invalid declaration: {why}"
        assert time.perf_counter() - started < 1.0
        invalid += 1
    assert invalid >= 20
    _report(7, "typechecker surface", t0, None, valid=valid, invalid=invalid)


# ---------------------------------------------------------------------------
# 8. Well-formedness equivalence
# ---------------------------------------------------------------------------


def _wf_entry_ok(gamma, sigma_prefix, v, ty, img, delta) -> bool:
    from cattsa.errors import CattError
    from cattsa.syntax import Arr, apply_sub_term, term_boundary

    try:
        Session(Mode.CATT_SA).infer_term(delta, img)
        d = dim_type(ty)
        if dim_term(delta, img) != d:
            return False
        if isinstance(ty, Arr):
            for sign, endpoint in (("-", ty.src), ("+", ty.tgt)):
                got = term_boundary(delta, img, d - 1, sign)
                want = apply_sub_term(endpoint, sigma_prefix)
                if not def_eq(delta, got, want):
                    return False
        return True
    except CattError:
        return False


def _sub_entry_ok(gamma_prefix_ty, sigma_prefix, img, delta) -> bool:
    from cattsa.errors import CattError
    from cattsa.syntax import apply_sub_type

    try:
        expected = apply_sub_type(gamma_prefix_ty, sigma_prefix)
        return Session(Mode.CATT_SA).check_term(delta, img, expected).ok
    except CattError:
        return False


def _candidates(delta: Context):
    out = [Var(v) for v in delta.vars]
    arrows = [
        (v, ty) for v, ty in delta.entries if dim_type(ty) == 1
    ]
    for i in range(len(arrows) - 1):
        (u, ty_u), (w, ty_w) = arrows[i], arrows[i + 1]
        if ty_u.tgt == ty_w.src:  # type: ignore[union-attr]
            out.append(comp2(delta, Var(u), Var(w)))
    return out


def _equivalence_on_pair(gamma: Context, delta: Context, cands) -> tuple[int, int]:
    """Enumerate substitutions gamma -> delta, pruning once both judgements
    have failed; returns (full substitutions compared, violations)."""
    compared = 0
    violations = 0
    stack = [(0, Substitution(), True, True)]
    while stack:
        i, prefix, sub_alive, wf_alive = stack.pop()
        if i == len(gamma.entries):
            compared += 1
            if sub_alive != wf_alive:
                violations += 1
            continue
        v, ty = gamma.entries[i]
        for img in cands:
            s2 = sub_alive and _sub_entry_ok(ty, prefix, img, delta)
            w2 = wf_alive and _wf_entry_ok(gamma, prefix, v, ty, img, delta)
            if not s2 and not w2:
                continue  # both judgements already failed: verdicts agree
            stack.append(
                (i + 1, Substitution(prefix.entries + ((v, img),)), s2, w2)
            )
    return compared, violations


def test_criterion_8_well_formedness_equivalence():
    t0 = time.perf_counter()
    from cattsa.syntax import STAR, Arr

    family = [c for c in enumerate_globular_contexts(4) if len(c)]
    # curated five- and six-cell globular contexts
    pq = Arr(Var("p"), STAR, Var("q"))
    g5 = Context(
        (
            ("p", STAR),
            ("q", STAR),
            ("u", pq),
            ("v", pq),
            ("mu", Arr(Var("u"), pq, Var("v"))),
        )
    )
    g6 = Context(g5.entries + (("w", pq),))
    sources = family + [g5, g6]
    targets = [
        chain(1, "t", "e"),
        chain(2, "t", "e"),
        DELTA,
        g5,
        g6,
    ]
    compared = 0
    violations = 0
    for gamma in sources:
        if len(gamma) > 4 and gamma not in (g5, g6):
            continue
        for delta in targets:
            c, v = _equivalence_on_pair(gamma, delta, _candidates(delta))
            compared += c
            violations += v
    assert violations == 0
    assert compared > 200
    _report(
        8,
        "well-formedness equivalence",
        t0,
        None,
        sources=len(sources),
        substitutions=compared,
    )


# ---------------------------------------------------------------------------
# 9. Equality/typing coherence
# ---------------------------------------------------------------------------


def test_criterion_9_equality_typing_coherence():
    t0 = time.perf_counter()
    pairs: list[tuple[Context, object, object]] = []
    for n in (3, 4):
        amb = chain(n, "u", "m")
        leaves = [Var(f"m{i}") for i in range(1, n + 1)]
        terms = all_bracketings(amb, leaves)
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                pairs.append((amb, terms[i], terms[j]))
    for context, t in curated_corpus() + random_corpus(400, seed=77):
        if len(pairs) >= 200:
            break
        candidates = step_candidates(context, t)
        if candidates:
            pairs.append((context, t, candidates[0][1]))
        else:
            pairs.append((context, t, normalize(context, t)))
    pairs = pairs[:220]
    assert len(pairs) >= 200
    violations = 0
    for context, a, b in pairs:
        assert def_eq(context, a, b)
        ty_a = Session(Mode.CATT_SA).infer_term(context, a)
        ty_b = Session(Mode.CATT_SA).infer_term(context, b)
        if not def_eq(context, ty_a, ty_b):
            violations += 1
            continue
        if not Session(Mode.CATT_SA).check_term(context, a, ty_b).ok:
            violations += 1
        if not Session(Mode.CATT_SA).check_term(context, b, ty_a).ok:
            violations += 1
    assert violations == 0
    _report(9, "equality/typing coherence", t0, None, pairs=len(pairs))
