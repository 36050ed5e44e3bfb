"""Seeded input builders and known answers for the benchmark.

Everything here is built from the seed alone, without calling the
normaliser, the typechecker or the alpha-equality of the kernel under
test.  The kernel's syntax constructors are used only to hand it the
generated terms; reference normal forms are compared by a positional
canonical key written here.

Two kinds of input are produced:

* library inputs for ``nfold``: left-nested n-fold composites of arrows,
  seeded random bracketings of the same arrows, right-whiskered n-fold
  vertical composites of 2-cells, and the unbiased n-ary composite that is
  the normal form of each;
* ``.catt`` source files for the CLI workloads, one per size, with the
  verdict that the theory predicts for every declaration in each mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from cattsa.syntax import STAR, Arr, Coh, Context, Substitution, Var

# Sizes of the two library series and of the per-size .catt files.
NFOLD_1D = (8, 16, 24, 32)
NFOLD_2D = (4, 8, 12, 16)
CHECK_SIZES = (4, 6, 8, 10)

# A bracketing is a leaf index or a pair of bracketings.
Bracketing = object


# ---------------------------------------------------------------------------
# Bracketings
# ---------------------------------------------------------------------------


def left_nested(n: int) -> Bracketing:
    tree: Bracketing = 1
    for i in range(2, n + 1):
        tree = (tree, i)
    return tree


def random_bracketing(rng: random.Random, lo: int, hi: int) -> Bracketing:
    """A binary bracketing of leaves lo..hi, split points drawn uniformly."""
    if lo == hi:
        return lo
    k = rng.randint(lo, hi - 1)
    return (random_bracketing(rng, lo, k), random_bracketing(rng, k + 1, hi))


def other_bracketing(rng: random.Random, n: int, avoid: Bracketing) -> Bracketing:
    """A seeded bracketing of n >= 3 leaves that differs from avoid."""
    while True:
        tree = random_bracketing(rng, 1, n)
        if tree != avoid:
            return tree


# ---------------------------------------------------------------------------
# Kernel syntax built by hand
# ---------------------------------------------------------------------------


def _arr(s: str, base, t: str) -> Arr:
    return Arr(Var(s), base, Var(t))


def _ctx(*entries) -> Context:
    return Context(tuple(entries))


def _sub(*entries) -> Substitution:
    return Substitution(tuple(entries))


def _identity(ctx: Context) -> Substitution:
    return Substitution(tuple((v, Var(v)) for v, _ in ctx.entries))


# The binary composite of arrows, [x [f] y [g] z], with its unbiased type.
CHAIN2 = _ctx(
    ("x", STAR), ("y", STAR), ("f", _arr("x", STAR, "y")),
    ("z", STAR), ("g", _arr("y", STAR, "z")),
)
CHAIN2_TY = _arr("x", STAR, "z")

# The binary vertical composite of 2-cells, [x [f [a] g [b] h] y].
_XY = _arr("x", STAR, "y")
VERT2 = _ctx(
    ("x", STAR), ("y", STAR), ("f", _XY), ("g", _XY),
    ("a", _arr("f", _XY, "g")), ("h", _XY), ("b", _arr("g", _XY, "h")),
)
VERT2_TY = _arr("f", _XY, "h")

# Right whiskering of a 2-cell by an arrow, [x [f [a] g] y [h] z].
WHISK = _ctx(
    ("x", STAR), ("y", STAR), ("f", _XY), ("g", _XY),
    ("a", _arr("f", _XY, "g")), ("z", STAR), ("h", _arr("y", STAR, "z")),
)
_XZ = _arr("x", STAR, "z")


def _comp2_in_whisk(first: str) -> Coh:
    return Coh(CHAIN2, CHAIN2_TY, _sub(
        ("x", Var("x")), ("y", Var("y")), ("f", Var(first)),
        ("z", Var("z")), ("g", Var("h")),
    ))


WHISK_TY = Arr(_comp2_in_whisk("f"), _XZ, _comp2_in_whisk("g"))


def chain_ctx(n: int) -> Context:
    """n composable arrows a1..an between points x0..xn."""
    entries = [("x0", STAR)]
    for i in range(1, n + 1):
        entries.append((f"x{i}", STAR))
        entries.append((f"a{i}", _arr(f"x{i-1}", STAR, f"x{i}")))
    return Context(tuple(entries))


def column_ctx(n: int) -> Context:
    """n vertically composable 2-cells a1..an between parallel arrows f0..fn
    from x to y, followed by an arrow h from y to z."""
    entries = [("x", STAR), ("y", STAR), ("f0", _XY)]
    for i in range(1, n + 1):
        entries.append((f"f{i}", _XY))
        entries.append((f"a{i}", _arr(f"f{i-1}", _XY, f"f{i}")))
    entries += [("z", STAR), ("h", _arr("y", STAR, "z"))]
    return Context(tuple(entries))


def _span(tree: Bracketing) -> tuple[int, int]:
    if isinstance(tree, int):
        return tree, tree
    return _span(tree[0])[0], _span(tree[1])[1]


def arrow_composite(tree: Bracketing) -> Coh | Var:
    """The bracketing as nested binary composites over chain_ctx."""
    if isinstance(tree, int):
        return Var(f"a{tree}")
    (lo, mid), (_, hi) = _span(tree[0]), _span(tree[1])
    return Coh(CHAIN2, CHAIN2_TY, _sub(
        ("x", Var(f"x{lo-1}")), ("y", Var(f"x{mid}")),
        ("f", arrow_composite(tree[0])),
        ("z", Var(f"x{hi}")), ("g", arrow_composite(tree[1])),
    ))


def vertical_composite(tree: Bracketing) -> Coh | Var:
    """The bracketing as nested binary vertical composites over column_ctx."""
    if isinstance(tree, int):
        return Var(f"a{tree}")
    (lo, mid), (_, hi) = _span(tree[0]), _span(tree[1])
    return Coh(VERT2, VERT2_TY, _sub(
        ("x", Var("x")), ("y", Var("y")),
        ("f", Var(f"f{lo-1}")), ("g", Var(f"f{mid}")),
        ("a", vertical_composite(tree[0])),
        ("h", Var(f"f{hi}")), ("b", vertical_composite(tree[1])),
    ))


def whiskered_column(n: int, tree: Bracketing) -> Coh:
    """The n-fold vertical composite, right-whiskered by h."""
    return Coh(WHISK, WHISK_TY, _sub(
        ("x", Var("x")), ("y", Var("y")), ("f", Var("f0")), ("g", Var(f"f{n}")),
        ("a", vertical_composite(tree)), ("z", Var("z")), ("h", Var("h")),
    ))


def unbiased_chain(n: int) -> Coh:
    """Reference normal form of any bracketing of n arrows."""
    ctx = chain_ctx(n)
    return Coh(ctx, _arr("x0", STAR, f"x{n}"), _identity(ctx))


def unbiased_column(n: int) -> Coh:
    """Reference normal form of the right-whiskered n-fold column: the
    unbiased composite over column_ctx(n), whose type runs between the
    unbiased composites of its two boundary contexts."""
    ctx = column_ctx(n)

    def side(f: str) -> Coh:
        bdry = _ctx(("x", STAR), ("y", STAR), (f, _XY), ("z", STAR),
                    ("h", _arr("y", STAR, "z")))
        return Coh(bdry, _XZ, _identity(bdry))

    return Coh(ctx, Arr(side("f0"), _XZ, side(f"f{n}")), _identity(ctx))


# ---------------------------------------------------------------------------
# Positional canonical key and size, independent of the kernel
# ---------------------------------------------------------------------------


def canonical_key(item, env: dict | None = None):
    """A hashable key equal for two items exactly when they agree up to
    renaming of the variables bound by coherence contexts."""
    env = env or {}
    if isinstance(item, Var):
        return env.get(item.name, ("free", item.name))
    if isinstance(item, Coh):
        bound = {v: ("bound", i) for i, (v, _) in enumerate(item.ctx.entries)}
        return (
            "coh",
            tuple(canonical_key(ty, bound) for _, ty in item.ctx.entries),
            canonical_key(item.ty, bound),
            tuple(canonical_key(t, env) for _, t in item.sub.entries),
        )
    if isinstance(item, Arr):
        return ("arr", canonical_key(item.src, env), canonical_key(item.base, env),
                canonical_key(item.tgt, env))
    if item == STAR:
        return "*"
    raise TypeError(f"cannot key {item!r}")


def node_count(item, memo: dict | None = None) -> int:
    """Number of term and type nodes, counting coherence contexts."""
    memo = {} if memo is None else memo
    key = id(item)
    if key in memo:
        return memo[key][1]
    if isinstance(item, Coh):
        n = 1 + sum(node_count(ty, memo) for _, ty in item.ctx.entries)
        n += node_count(item.ty, memo)
        n += sum(node_count(t, memo) for _, t in item.sub.entries)
    elif isinstance(item, Arr):
        n = 1 + node_count(item.src, memo) + node_count(item.base, memo)
        n += node_count(item.tgt, memo)
    else:
        n = 1
    memo[key] = (item, n)  # keep item alive so its id is not reused
    return n


# ---------------------------------------------------------------------------
# nfold inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One library operation with its known answer."""

    kind: str  # "normalize" or "def_eq"
    series: str  # "1d" or "2d"
    n: int
    ctx: Context
    term: Coh
    other: Coh | None  # second operand of def_eq
    expected: object  # canonical key of the normal form, or a bool


def nfold_cases(seed: int, sizes_1d=NFOLD_1D, sizes_2d=NFOLD_2D) -> list[Case]:
    rng = random.Random(seed)
    cases: list[Case] = []
    for n in sizes_1d:
        ctx, tree = chain_ctx(n), left_nested(n)
        term = arrow_composite(tree)
        ref = canonical_key(unbiased_chain(n))
        cases.append(Case("normalize", "1d", n, ctx, term, None, ref))
        other = arrow_composite(other_bracketing(rng, n, tree))
        cases.append(Case("def_eq", "1d", n, ctx, term, other, True))
    for n in sizes_2d:
        ctx = column_ctx(n)
        term = whiskered_column(n, left_nested(n))
        ref = canonical_key(unbiased_column(n))
        cases.append(Case("normalize", "2d", n, ctx, term, None, ref))
    return cases


# ---------------------------------------------------------------------------
# .catt files with expected verdicts
# ---------------------------------------------------------------------------

HEADER = """\
coh comp (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) : x -> z
coh id (x : *) : x -> x
coh idc (x : *) (y : *) (f : x -> y) : f -> f
coh idc2 (x : *) (y : *) (f : x -> y) (g : x -> y) (a : f -> g) : a -> a
coh vert (x : *) (y : *) (f : x -> y) (g : x -> y) (a : f -> g) (h : x -> y) (b : g -> h) : f -> h
coh hcomp (x : *) (y : *) (f : x -> y) (g : x -> y) (a : f -> g) (z : *) (h : y -> z) (k : y -> z) (b : h -> k) : comp [f, h] -> comp [g, k]
coh whisk (x : *) (y : *) (f : x -> y) (g : x -> y) (a : f -> g) (z : *) (h : y -> z) : comp [f, h] -> comp [g, h]
"""
HEADER_NAMES = tuple(line.split()[1] for line in HEADER.splitlines())

INTERCHANGE_TELE = (
    "(x : *) (y : *) (f : x -> y) (g : x -> y) (a : f -> g) (h : x -> y) "
    "(b : g -> h) (z : *) (k : y -> z) (l : y -> z) (c : k -> l) (m : y -> z) "
    "(d : l -> m)"
)

BOTH = {"sa": True, "catt": True}
SA_ONLY = {"sa": True, "catt": False}
NEITHER = {"sa": False, "catt": False}


def _src_arrows(tree: Bracketing) -> str:
    if isinstance(tree, int):
        return f"a{tree}"
    return f"comp [{_src_arrows(tree[0])}, {_src_arrows(tree[1])}]"


def _src_column(tree: Bracketing) -> str:
    if isinstance(tree, int):
        return f"a{tree}"
    return f"vert [{_src_column(tree[0])}, {_src_column(tree[1])}]"


def _chain_tele(n: int) -> str:
    parts = ["(x0 : *)"]
    for i in range(1, n + 1):
        parts.append(f"(x{i} : *) (a{i} : x{i-1} -> x{i})")
    return " ".join(parts)


def _column_tele(n: int) -> str:
    parts = ["(x : *) (y : *) (f0 : x -> y)"]
    for i in range(1, n + 1):
        parts.append(f"(f{i} : x -> y) (a{i} : f{i-1} -> f{i})")
    parts.append("(z : *) (h : y -> z)")
    return " ".join(parts)


@dataclass(frozen=True)
class CattFile:
    """Source text of one size class, with the answers the theory gives.

    ``verdicts`` maps each declaration name to its ok/error verdict per
    mode; ``eq_pairs`` lists (name1, name2, {mode: equal}).
    """

    n: int
    text: str
    verdicts: dict[str, dict[str, bool]]
    eq_pairs: tuple[tuple[str, str, dict[str, bool]], ...]


def catt_file(rng: random.Random, n: int) -> CattFile:
    """Declarations over n arrows and an n-fold column of 2-cells.

    Associativity is strict only in sa mode, so identity cells typed
    between two bracketings are accepted there and rejected in catt mode.
    Units and interchange are weak in both modes, so the unit-padded and
    interchange declarations are errors in both.
    """
    lines = [HEADER.rstrip("\n")]
    verdicts = {name: BOTH for name in HEADER_NAMES}

    def decl(kind: str, name: str, tele: str, ty: str, body: str | None, verdict):
        text = f"{kind} {name} {tele} : {ty}"
        if body is not None:
            text += f" := {body}"
        lines.append(text)
        verdicts[name] = verdict

    chain, left = _chain_tele(n), left_nested(n)
    a = [left] + [other_bracketing(rng, n, left) for _ in range(3)]
    a.append(other_bracketing(rng, n, a[3]))
    src = [_src_arrows(t) for t in a]
    end0, endn = "x0", f"x{n}"
    decl("def", "cmp0", chain, f"{end0} -> {endn}", src[0], BOTH)
    decl("def", "cmp1", chain, f"{end0} -> {endn}", src[1], BOTH)
    decl("def", "pad0", chain, f"{end0} -> {endn}", f"comp [{src[0]}, id [{endn}]]", BOTH)
    decl("coh", "assoc0", chain, f"{src[2]} -> {src[3]}", None, BOTH)
    decl("def", "strict0", chain, f"{src[0]} -> {src[2]}", f"idc [{src[0]}]", SA_ONLY)
    decl("def", "strict1", chain, f"{src[3]} -> {src[4]}", f"idc [{src[3]}]", SA_ONLY)
    decl("def", "unitr0", chain, f"{src[1]} -> comp [{src[1]}, id [{endn}]]",
         f"idc [{src[1]}]", NEITHER)
    decl("def", "unitl0", chain, f"{src[2]} -> comp [id [{end0}], {src[2]}]",
         f"idc [{src[2]}]", NEITHER)

    lhs = "hcomp [vert [a, b], vert [c, d]]"
    rhs = "vert [hcomp [a, c], hcomp [b, d]]"
    decl("def", "ichg0", INTERCHANGE_TELE, f"{lhs} -> {rhs}", f"idc2 [{lhs}]", NEITHER)

    column = _column_tele(n)
    vleft = left_nested(n)
    w0 = f"whisk [{_src_column(vleft)}, h]"
    w1 = f"whisk [{_src_column(other_bracketing(rng, n, vleft))}, h]"
    decl("def", "wv0", column, f"comp [f0, h] -> comp [f{n}, h]", w0, BOTH)
    decl("def", "wveq0", column, f"{w0} -> {w1}", f"idc2 [{w0}]", SA_ONLY)

    eq_pairs = (("cmp0", "cmp1", SA_ONLY), ("cmp1", "pad0", NEITHER))
    return CattFile(n, "\n".join(lines) + "\n", verdicts, eq_pairs)


def catt_files(seed: int, sizes=CHECK_SIZES) -> list[CattFile]:
    rng = random.Random(seed)
    return [catt_file(rng, n) for n in sizes]
