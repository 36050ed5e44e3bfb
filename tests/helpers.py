"""Shared fixtures, builders and independent oracles for the test suite.

The oracles here are deliberately written against the definitions rather
than the implementation: pasting derivations are found by exhaustive rule
search, tree shapes are enumerated from scratch, and normal forms are
confirmed by searching the whole reduction graph.
"""

from __future__ import annotations

import random
from itertools import product

from cattsa.pasting import maximal_vars, unbiased_term, unbiased_type
from cattsa.reduction import normalize
from cattsa.syntax import (
    NEG,
    POS,
    STAR,
    Arr,
    Coh,
    Context,
    Substitution,
    Term,
    Type,
    Star,
    Var,
    dim_term,
    dim_type,
    term_boundary,
    term_str,
    type_boundary,
    type_str,
)
from cattsa.trees import BataninTree, bracket_to_tree, tree_to_ctx
from oracles import disc_context, step_candidates, to_disc_sub

star = STAR


def arr(s, base, t) -> Arr:
    if isinstance(s, str):
        s = Var(s)
    if isinstance(t, str):
        t = Var(t)
    return Arr(s, base, t)


def ctx(*entries) -> Context:
    return Context(tuple(entries))


def sub(*entries) -> Substitution:
    return Substitution(tuple(entries))


def chain(n: int, pref: str = "x", cell: str = "a") -> Context:
    """The 1-dimensional pasting context of n composable arrows."""
    entries = [(f"{pref}0", star)]
    for i in range(1, n + 1):
        entries.append((f"{pref}{i}", star))
        entries.append((f"{cell}{i}", arr(f"{pref}{i-1}", star, f"{pref}{i}")))
    return Context(tuple(entries))


def ctx_of_bracket(text: str) -> Context:
    return tree_to_ctx(bracket_to_tree(text))


# The worked example contexts: Delta has three parallel arrows with two
# 2-cells between them followed by a whisker, Theta is its unwhiskered part.
DELTA = ctx_of_bracket("[x [f [alpha] g [beta] h] y [k] z]")
THETA = ctx_of_bracket("[x [f [alpha] g [beta] h] y]")
THETA_PRIMED = ctx_of_bracket("[x' [f' [alpha'] g' [beta'] h'] y']")
VERT2 = ctx_of_bracket("[x [f [alpha] g [beta] h] y]")  # alias used by reduction tests
WHISKER_R = ctx_of_bracket("[x [f [alpha] g] y [k] z]")
WHISKER_L = ctx_of_bracket("[x [k] y [f [alpha] g] z]")
HCOMP2 = ctx_of_bracket("[x [f [alpha] g] y [h [beta] i] z]")

CHAIN2 = chain(2)
CHAIN3 = chain(3)


def unbiased_apply(pattern: Context, ambient: Context, args: list[Term]) -> Term:
    """The unbiased composite over pattern applied to the given locally
    maximal arguments; boundary entries are recomputed from the arguments."""
    assignment: dict[str, Term] = {}
    maximal = maximal_vars(pattern)
    assert len(maximal) == len(args)
    for v, t in zip(maximal, args):
        v_ty = pattern.lookup(v)
        assignment[v] = t
        for m in range(dim_type(v_ty)):
            for sign in (NEG, POS):
                b = type_boundary(v_ty, m, sign)
                assert isinstance(b, Var)
                assignment.setdefault(b.name, term_boundary(ambient, t, m, sign))
    sigma = Substitution(tuple((v, assignment[v]) for v in pattern.vars))
    return Coh(pattern, unbiased_type(pattern), sigma)


def comp2(ambient: Context, s: Term, t: Term) -> Term:
    return unbiased_apply(CHAIN2, ambient, [s, t])


def all_bracketings(ambient: Context, leaves: list[Term]) -> list[Term]:
    """Every binary bracketing of a sequence of composable arrows."""
    if len(leaves) == 1:
        return list(leaves)
    out = []
    for i in range(1, len(leaves)):
        for left in all_bracketings(ambient, leaves[:i]):
            for right in all_bracketings(ambient, leaves[i:]):
                out.append(comp2(ambient, left, right))
    return out


# ---------------------------------------------------------------------------
# Exhaustive tree enumeration (oracle for the round-trip tests)
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def _shapes(n: int) -> list:
    out = []
    for k in range(1, n + 1):
        for split in _compositions(n - k, k - 1):
            for branches in product(*(_shapes(s) for s in split)):
                out.append((k, branches))
    return out


def _shape_to_tree(shape, counter: list[int]) -> BataninTree:
    k, branch_shapes = shape
    labels = []
    branches = []
    labels.append(f"v{counter[0]}")
    counter[0] += 1
    for bs in branch_shapes:
        labels.append(f"v{counter[0]}")
        counter[0] += 1
        branches.append(_shape_to_tree(bs, counter))
    return BataninTree(tuple(labels), tuple(branches))


def enumerate_trees(max_labels: int) -> list[BataninTree]:
    """All Batanin trees with at most max_labels labels, canonically named."""
    out = []
    for n in range(1, max_labels + 1):
        for shape in _shapes(n):
            out.append(_shape_to_tree(shape, [0]))
    return out


# ---------------------------------------------------------------------------
# Exhaustive pasting-derivation search (oracle for the pasting judgement)
# ---------------------------------------------------------------------------


def pd_derivable(context: Context) -> bool:
    """Search every interleaving of the derivation rules of Finster and
    Mimram (LICS 2017); the kernel's judgement is the tree parse
    trees.ctx_to_tree, which this checks independently."""
    entries = context.entries
    if not entries or entries[0][1] != star:
        return False
    names = [v for v, _ in entries]
    if len(set(names)) != len(names):
        return False
    start = (1, entries[0][0], star)
    seen = set()
    stack = [start]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        i, cur_var, cur_ty = state
        if i == len(entries):
            ty = cur_ty
            ok = True
            while isinstance(ty, Arr):
                if not isinstance(ty.tgt, Var):
                    ok = False
                    break
                ty = ty.base
            if ok:
                return True
            continue
        if i + 1 < len(entries):
            y, ty_y = entries[i]
            f, ty_f = entries[i + 1]
            if ty_y == cur_ty and ty_f == Arr(Var(cur_var), cur_ty, Var(y)):
                stack.append((i + 2, f, ty_f))
        if isinstance(cur_ty, Arr) and isinstance(cur_ty.tgt, Var):
            stack.append((i, cur_ty.tgt.name, cur_ty.base))
    return False


# ---------------------------------------------------------------------------
# Globular context enumeration
# ---------------------------------------------------------------------------


def enumerate_globular_contexts(max_cells: int) -> list[Context]:
    """All globular contexts with at most max_cells cells, canonical names."""
    out: list[Context] = [Context()]
    frontier: list[Context] = [Context()]
    for _ in range(max_cells):
        nxt: list[Context] = []
        for c in frontier:
            name = f"g{len(c)}"
            options: list[Type] = [star]
            for u, ty_u in c.entries:
                for v, ty_v in c.entries:
                    if ty_u == ty_v:
                        options.append(Arr(Var(u), ty_u, Var(v)))
            for ty in options:
                nxt.append(c.extend(name, ty))
        out.extend(nxt)
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# Positional keys (oracle for equality up to bound names)
# ---------------------------------------------------------------------------


def canonical_term(t: Term, env: dict | None = None):
    """A nested-tuple key of t that ignores the names coherences bind: a
    bound variable becomes ("bound", i), i its position in the binding
    context, and a free variable ("free", name).  It builds no kernel
    objects, so it does not rest on the kernel's ==."""
    env = env or {}
    if isinstance(t, Var):
        return ("bound", env[t.name]) if t.name in env else ("free", t.name)
    assert isinstance(t, Coh)
    bound = {v: i for i, v in enumerate(t.ctx.vars)}
    return (
        "coh",
        tuple(canonical_type(ty, bound) for _, ty in t.ctx.entries),
        canonical_type(t.ty, bound),
        tuple(canonical_term(u, env) for _, u in t.sub.entries),
    )


def canonical_type(ty: Type, env: dict | None = None):
    """The positional key of a type; see canonical_term."""
    if isinstance(ty, Star):
        return ("*",)
    assert isinstance(ty, Arr)
    return (
        "arr",
        canonical_term(ty.src, env),
        canonical_type(ty.base, env),
        canonical_term(ty.tgt, env),
    )


# ---------------------------------------------------------------------------
# Reduction graph search (oracle for confluence and unique normal forms)
# ---------------------------------------------------------------------------


def reduction_graph(context: Context, t: Term, max_nodes: int = 5000):
    """Breadth-first exploration of every reduction sequence from t.

    Returns (nodes, edges, normal_keys): nodes maps the canonical form of
    each reachable term to a representative, edges maps it to the canonical
    forms of its one-step reducts.
    """
    start = canonical_term(t)
    nodes = {start: t}
    edges: dict = {}
    queue = [t]
    while queue:
        cur = queue.pop()
        key = canonical_term(cur)
        if key in edges:
            continue
        succs = []
        for _, res in step_candidates(context, cur):
            assert isinstance(res, Term)
            rkey = canonical_term(res)
            succs.append(rkey)
            if rkey not in nodes:
                nodes[rkey] = res
                queue.append(res)
                if len(nodes) > max_nodes:
                    raise RuntimeError("reduction graph too large")
        edges[key] = succs
    normal_keys = [k for k, ss in edges.items() if not ss]
    return nodes, edges, normal_keys


# ---------------------------------------------------------------------------
# Enumerate-then-pick normalisation (oracle for the direct normaliser)
# ---------------------------------------------------------------------------


def _render(item) -> str:
    if isinstance(item, Term):
        return term_str(item)
    if isinstance(item, Type):
        return type_str(item)
    return str(item)


def reference_normalize(context: Context, item, *, allow_disc_insertion=True, trace=None):
    """Innermost-leftmost normalisation by brute force: build every
    one-step reduct and keep the first one at the greatest depth."""
    cur = item
    while True:
        candidates = step_candidates(
            context, cur, allow_disc_insertion=allow_disc_insertion
        )
        if not candidates:
            return cur
        redex, result = candidates[0]
        for cand in candidates[1:]:
            if len(cand[0].position) > len(redex.position):
                redex, result = cand
        if trace is not None:
            trace.append(
                f"{redex.rule} at {redex.position_str()}: "
                f"{_render(cur)} ⇝ {_render(result)}"
            )
        cur = result


# ---------------------------------------------------------------------------
# Cached definitional equality (test-side convenience)
# ---------------------------------------------------------------------------

_NF_CACHE: dict = {}


def nf_key(context: Context, t: Term):
    raw = canonical_term(t)
    hit = _NF_CACHE.get(raw)
    if hit is None:
        hit = canonical_term(normalize(context, t))
        _NF_CACHE[raw] = hit
    return hit


def def_eq_cached(context: Context, a: Term, b: Term) -> bool:
    return nf_key(context, a) == nf_key(context, b)


# ---------------------------------------------------------------------------
# Random well-typed term generation
# ---------------------------------------------------------------------------

PATTERNS = [
    CHAIN2,
    CHAIN3,
    VERT2,
    WHISKER_R,
    WHISKER_L,
    HCOMP2,
]


def try_build_sub(
    pattern: Context, ambient: Context, pool: list[Term], rng: random.Random
):
    """Assemble a well-typed substitution out of pool terms, or None."""
    assignment: dict[str, Term] = {}
    for v in maximal_vars(pattern):
        v_ty = pattern.lookup(v)
        dv = dim_type(v_ty)
        cands = []
        for t in pool:
            if dim_term(ambient, t) != dv:
                continue
            ok = True
            for m in range(dv):
                for sign in (NEG, POS):
                    b = type_boundary(v_ty, m, sign)
                    assert isinstance(b, Var)
                    if b.name in assignment and not def_eq_cached(
                        ambient, term_boundary(ambient, t, m, sign), assignment[b.name]
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                cands.append(t)
        if not cands:
            return None
        composite = [t for t in cands if isinstance(t, Coh)]
        if composite and rng.random() < 0.65:
            t = rng.choice(composite)
        else:
            t = rng.choice(cands)
        assignment[v] = t
        for m in range(dv):
            for sign in (NEG, POS):
                b = type_boundary(v_ty, m, sign)
                assert isinstance(b, Var)
                assignment.setdefault(b.name, term_boundary(ambient, t, m, sign))
    return Substitution(tuple((v, assignment[v]) for v in pattern.vars))


def generate_terms(
    ambient: Context,
    rng: random.Random,
    rounds: int,
    max_dim: int = 3,
    endo_share: float = 0.2,
) -> list[Term]:
    """Grow a pool of well-typed terms over ambient by random composition."""
    pool: list[Term] = [Var(v) for v in ambient.vars]
    made: list[Term] = []
    for _ in range(rounds):
        pattern = rng.choice(PATTERNS)
        sigma = try_build_sub(pattern, ambient, pool, rng)
        if sigma is None:
            continue
        if rng.random() < endo_share:
            u = unbiased_term(pattern)
            ty = Arr(u, unbiased_type(pattern), u)
            t: Term = Coh(pattern, ty, sigma)
        else:
            t = Coh(pattern, unbiased_type(pattern), sigma)
        if dim_term(ambient, t) > max_dim:
            continue
        pool.append(t)
        made.append(t)
    return made


AMBIENTS = [
    chain(4, "u", "m"),
    DELTA,
    ctx_of_bracket("[p [q [r] s [t] u [v] w] e [o] n]"),  # three stacked 2-cells + whisker
]


def random_corpus(count: int, seed: int = 2024) -> list[tuple[Context, Term]]:
    """count random well-typed terms of dimension <= 3 with their contexts."""
    rng = random.Random(seed)
    out: list[tuple[Context, Term]] = []
    while len(out) < count:
        ambient = rng.choice(AMBIENTS)
        for t in generate_terms(ambient, rng, rounds=12):
            out.append((ambient, t))
            if len(out) >= count:
                break
    return out


def curated_corpus() -> list[tuple[Context, Term]]:
    """Hand-picked well-typed terms exercising every reduction shape."""
    amb1 = chain(4, "u", "m")
    m = [Var(f"m{i}") for i in range(1, 5)]
    out: list[tuple[Context, Term]] = []
    for t in all_bracketings(amb1, m[:3]):
        out.append((amb1, t))
    for t in all_bracketings(amb1, m):
        out.append((amb1, t))
    out.append((amb1, unbiased_apply(chain(4), amb1, m)))

    # vertical composite whose arguments are themselves vertical composites
    amb2 = ctx_of_bracket("[a [p [m1] q [m2] r [m3] s [m4] t] b]")
    vert = lambda u, v: unbiased_apply(VERT2, amb2, [u, v])
    m1, m2, m3, m4 = (Var(f"m{i}") for i in range(1, 5))
    out.append((amb2, vert(vert(m1, m2), vert(m3, m4))))
    out.append((amb2, vert(m1, vert(m2, vert(m3, m4)))))

    # whiskered vertical composite over the Delta shape
    sigma = Substitution(
        tuple(
            (v, t)
            for v, t in zip(
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
    out.append((DELTA, Coh(WHISKER_R, unbiased_type(WHISKER_R), sigma)))

    # boxed argument: a disc-headed coherence that unboxes by insertion
    d1 = disc_context(1)
    boxed = Coh(d1.ctx, d1.ctx.lookup("d1m"), to_disc_sub(amb1, comp2(amb1, m1, m2)))
    out.append((amb1, comp2(amb1, boxed, m3)))

    # identity-like endo coherence (no redexes) over a point
    pt = Context((("p0", star),))
    out.append((amb1, Coh(pt, Arr(Var("p0"), star, Var("p0")), Substitution((("p0", Var("u0")),)))))
    return out
