"""Shared fixtures, builders and independent oracles for the test suite.

The oracles here are deliberately written against the definitions rather
than the implementation: pasting derivations are found by exhaustive rule
search, tree shapes are enumerated from scratch, and normal forms are
confirmed by searching the whole reduction graph.
"""

from __future__ import annotations

import ast
import functools
import importlib.util
import random
import sys
from itertools import product
from pathlib import Path

from cattsa import reduction
from cattsa.cli import elaborate_telescope
from cattsa.errors import DimensionError, NotPasting, SurfaceSyntaxError
from cattsa.parser import (
    DUMMY_SPAN,
    KEYWORDS,
    SourceFile,
    Span,
    SrcApp,
    SrcArrow,
    SrcDecl,
    SrcStar,
    SrcTerm,
    SrcType,
    SrcVar,
    Token,
    parse,
    parse_telescope,
)
from cattsa.insertion import insert_ctx
from cattsa.pasting import _unbiased_term, maximal_vars, unbiased_type
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
    Sign,
    Var,
    dim_term,
    dim_type,
    term_boundary,
    term_str,
    type_boundary,
    type_str,
)
from cattsa.trees import (
    BataninTree,
    ctx_to_tree,
    tree_boundary,
    tree_depth,
    tree_to_ctx,
)
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


def ctx_of_telescope(text: str) -> Context:
    """The context of a telescope literal, read as `cattsa tree --context`
    reads it."""
    return elaborate_telescope(parse_telescope(text), {}, DUMMY_SPAN)


def tree(labels, branches=()) -> BataninTree:
    """The tree with these labels and branches, by default a leaf."""
    return BataninTree(labels, branches)


# ---------------------------------------------------------------------------
# References the kernel does not run: dimension, boundary and unbiased
# composite of a context, and the printer of the surface language
# ---------------------------------------------------------------------------


def dim_ctx(context: Context) -> int:
    return max((dim_type(ty) for _, ty in context.entries), default=-1)


def boundary_ctx(context: Context, sign: Sign) -> Context:
    """The source (-) or target (+) pasting context, one dimension down."""
    t = ctx_to_tree(context)
    d = tree_depth(t)
    if d < 1:
        raise DimensionError("boundary of a 0-dimensional pasting context")
    return tree_to_ctx(tree_boundary(t, d - 1, sign))


def unbiased_term(context: Context) -> Term:
    """The canonical composite term over a pasting context."""
    return _unbiased_term(ctx_to_tree(context))


def is_pasting(context: Context) -> bool:
    """The kernel's pasting judgement, the tree parse, as a verdict."""
    try:
        ctx_to_tree(context)
    except NotPasting:
        return False
    return True


def print_term(t: SrcTerm) -> str:
    if isinstance(t, SrcVar):
        return t.name
    assert isinstance(t, SrcApp)
    return f"{t.name} [{', '.join(print_term(a) for a in t.args)}]"


def print_type(ty: SrcType) -> str:
    if isinstance(ty, SrcStar):
        return "*"
    assert isinstance(ty, SrcArrow)
    return f"{print_term(ty.src)} -> {print_term(ty.tgt)}"


def print_decl(d: SrcDecl) -> str:
    tele = " ".join(f"({v} : {print_type(ty)})" for v, ty in d.telescope)
    head = f"{d.kind} {d.name}" + (f" {tele}" if tele else "")
    line = f"{head} : {print_type(d.ty)}"
    if d.body is not None:
        line += f" := {print_term(d.body)}"
    return line


def print_file(f: SourceFile) -> str:
    """The inverse of parse, up to whitespace."""
    return "\n".join(print_decl(d) for d in f.decls) + ("\n" if f.decls else "")


# The worked example contexts: Delta has three parallel arrows with two
# 2-cells between them followed by a whisker, Theta is its unwhiskered part.
DELTA = ctx_of_telescope(  # [x [f [alpha] g [beta] h] y [k] z]
    "(x : *) (y : *) (f : x -> y) (g : x -> y) (alpha : f -> g) (h : x -> y) (beta : g -> h)"
    " (z : *) (k : y -> z)"
)
THETA = ctx_of_telescope(  # [x [f [alpha] g [beta] h] y]
    "(x : *) (y : *) (f : x -> y) (g : x -> y) (alpha : f -> g) (h : x -> y) (beta : g -> h)"
)
THETA_PRIMED = ctx_of_telescope(  # [x' [f' [alpha'] g' [beta'] h'] y']
    "(x' : *) (y' : *) (f' : x' -> y') (g' : x' -> y') (alpha' : f' -> g') (h' : x' -> y')"
    " (beta' : g' -> h')"
)
VERT2 = ctx_of_telescope(  # [x [f [alpha] g [beta] h] y], alias used by reduction tests
    "(x : *) (y : *) (f : x -> y) (g : x -> y) (alpha : f -> g) (h : x -> y) (beta : g -> h)"
)
WHISKER_R = ctx_of_telescope(  # [x [f [alpha] g] y [k] z]
    "(x : *) (y : *) (f : x -> y) (g : x -> y) (alpha : f -> g) (z : *) (k : y -> z)"
)
WHISKER_L = ctx_of_telescope(  # [x [k] y [f [alpha] g] z]
    "(x : *) (y : *) (k : x -> y) (z : *) (f : y -> z) (g : y -> z) (alpha : f -> g)"
)
HCOMP2 = ctx_of_telescope(  # [x [f [alpha] g] y [h [beta] i] z]
    "(x : *) (y : *) (f : x -> y) (g : x -> y) (alpha : f -> g) (z : *) (h : y -> z)"
    " (i : y -> z) (beta : h -> i)"
)

CHAIN2 = chain(2)
CHAIN3 = chain(3)


SYMBOLS = ["->", ":=", "(", ")", "[", "]", ":", ",", "*"]


def reference_tokenize(text: str) -> list[Token]:
    """The tokens of text, one character at a time: the oracle for
    parser.tokenize."""
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, Span(line, col)))
            col += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("symbol", sym, Span(line, col)))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise SurfaceSyntaxError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", Span(line, col)))
    return tokens


TESTS = Path(__file__).resolve().parent


@functools.cache
def string_constants() -> list[str]:
    """Every string constant of the test modules, and every module-level
    string they build from constants and names with +, in file order;
    computed once, so do not change the list."""
    out: list[str] = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out += [
            n.value for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
        ]
        known: dict[str, str] = {}
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                value = _static_str(node.value, known)
                if value is not None:
                    known[node.targets[0].id] = value
                    out.append(value)
    return out


def _static_str(node: ast.expr, known: dict[str, str]) -> str | None:
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, str) else None
    if isinstance(node, ast.Name):
        return known.get(node.id)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left, right = _static_str(node.left, known), _static_str(node.right, known)
        return None if left is None or right is None else left + right
    return None


def catt_texts() -> list[str]:
    """The source files written in the test modules: the strings of
    string_constants that parse to at least one declaration, each once."""
    out: list[str] = []
    for text in dict.fromkeys(string_constants()):
        try:
            if parse(text).decls:
                out.append(text)
        except SurfaceSyntaxError:
            pass
    return out


def bench_catt_texts(seed: int = 101) -> list[str]:
    """The texts of the benchmark's generated .catt files at seed."""
    module = sys.modules.get("bench_inputs")
    if module is None:
        path = TESTS.parent / "bench" / "inputs.py"
        spec = importlib.util.spec_from_file_location("bench_inputs", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules["bench_inputs"] = module  # dataclasses looks its module up
        spec.loader.exec_module(module)
    return [f.text for f in module.catt_files(seed)]


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


def count_insertions(monkeypatch) -> list:
    """The problems of every insert_ctx call the normaliser makes from now
    on, for the rest of the test."""
    calls: list = []

    def counting(problem):
        calls.append(problem)
        return insert_ctx(problem)

    monkeypatch.setattr(reduction, "insert_ctx", counting)
    return calls


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
    ctx_of_telescope(  # [p [q [r] s [t] u [v] w] e [o] n], three stacked 2-cells + whisker
        "(p : *) (e : *) (q : p -> e) (s : p -> e) (r : q -> s) (u : p -> e) (t : s -> u)"
        " (w : p -> e) (v : u -> w) (n : *) (o : e -> n)"
    ),
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
    amb2 = ctx_of_telescope(  # [a [p [m1] q [m2] r [m3] s [m4] t] b]
        "(a : *) (b : *) (p : a -> b) (q : a -> b) (m1 : p -> q) (r : a -> b) (m2 : q -> r)"
        " (s : a -> b) (m3 : r -> s) (t : a -> b) (m4 : s -> t)"
    )
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
