"""def_eq on 1-cells against words in the free category.

Over the 1-cells of a chain ambient u0 -m1-> u1 -m2-> ... a term is a
generator m_i, the identity coherence coh (x : *) : x -> x at some u_i,
or the unbiased composite over chain(k) of k such terms, for any k >= 1,
bracketed at random.  Insertion on such terms only flattens composites:
an argument that is a composite of arity at least 2 is spliced into the
composite around it, and a unary one too when disc insertion is on.
Neither an identity nor a unary composite at the top is removed: units
are weak.  So the normal form is the word read off by flattening, with
identities as letters (oracle A), and definitionally equal terms have
equal words of generators (oracle B), though comp [f, id] and f, with
one, are not equal.

The terms are built here from scratch, and the words read off them by
code of their own, so nothing is shared with the normaliser.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from cattsa.reduction import def_eq
from cattsa.syntax import STAR, Arr, Coh, Context, Substitution, Var

POINT = Context((("x", STAR),))
ENDO = Arr(Var("x"), STAR, Var("x"))  # the identity's type over POINT


def ambient(n: int) -> Context:
    """u0 -m1-> u1 -> ... -mn-> un."""
    entries = [("u0", STAR)]
    for i in range(1, n + 1):
        entries += [(f"u{i}", STAR), (f"m{i}", Arr(Var(f"u{i - 1}"), STAR, Var(f"u{i}")))]
    return Context(tuple(entries))


# A word expression: ("gen", i) is m_i, from u_{i-1} to u_i; ("id", i) the
# identity at u_i; ("comp", parts) the composite of parts, which compose.


def ends(e: tuple) -> tuple[int, int]:
    if e[0] == "gen":
        return e[1] - 1, e[1]
    if e[0] == "id":
        return e[1], e[1]
    return ends(e[1][0])[0], ends(e[1][-1])[1]


def term(e: tuple):
    if e[0] == "gen":
        return Var(f"m{e[1]}")
    if e[0] == "id":
        return Coh(POINT, ENDO, Substitution((("x", Var(f"u{e[1]}")),)))
    parts = e[1]
    k = len(parts)
    entries = [("x0", STAR)]
    args = [("x0", Var(f"u{ends(parts[0])[0]}"))]
    for i, part in enumerate(parts, 1):
        entries += [(f"x{i}", STAR), (f"a{i}", Arr(Var(f"x{i - 1}"), STAR, Var(f"x{i}")))]
        args += [(f"x{i}", Var(f"u{ends(part)[1]}")), (f"a{i}", term(part))]
    ty = Arr(Var("x0"), STAR, Var(f"x{k}"))
    return Coh(Context(tuple(entries)), ty, Substitution(tuple(args)))


def flat(e: tuple, allow: bool) -> tuple:
    """The normal form of e as a word: a letter, or the composite of the
    flattened words of its parts, each part that is a composite of arity
    at least 2, or any composite when allow is set, spliced in."""
    if e[0] != "comp":
        return e
    out: list = []
    for part in map(lambda p: flat(p, allow), e[1]):
        spliced = part[0] == "comp" and (allow or len(part[1]) > 1)
        out += part[1] if spliced else [part]
    return ("comp", tuple(out))


def generators(e: tuple) -> tuple[int, ...]:
    """The generators of e, left to right: its word in the free category."""
    if e[0] == "gen":
        return (e[1],)
    return () if e[0] == "id" else sum((generators(p) for p in e[1]), ())


def random_expr(rng: random.Random, i: int, j: int, depth: int) -> tuple:
    """A random expression from u_i to u_j, nested at most depth deep."""
    if i == j and (depth == 0 or rng.random() < 0.6):
        return ("id", i)
    if j == i + 1 and (depth == 0 or rng.random() < 0.5):
        return ("gen", j)
    if depth == 0:
        return ("comp", tuple(("gen", g) for g in range(i + 1, j + 1)))
    cuts = sorted(rng.randint(i, j) for _ in range(rng.randint(0, 3)))
    points = [i, *cuts, j]
    return ("comp", tuple(random_expr(rng, a, b, depth - 1) for a, b in zip(points, points[1:])))


def regroup(rng: random.Random, e: tuple) -> tuple:
    """e with its composites rebracketed in ways that keep its flattened
    word in both disc settings: a run of at least two parts grouped into a
    composite, a part that is a composite of arity at least 2 spliced in,
    or a composite of arity at least 2 made the one part of a composite."""
    if e[0] != "comp":
        return e
    parts = [regroup(rng, p) for p in e[1]]
    move = rng.randrange(3)
    if move == 0 and len(parts) >= 2:
        a = rng.randrange(len(parts) - 1)
        b = rng.randint(a + 2, len(parts))
        parts[a:b] = [("comp", tuple(parts[a:b]))]
    elif move == 1:
        wide = [k for k, p in enumerate(parts) if p[0] == "comp" and len(p[1]) > 1]
        if wide:
            k = rng.choice(wide)
            parts[k : k + 1] = parts[k][1]
    out = ("comp", tuple(parts))
    return ("comp", (out,)) if move == 2 and len(parts) > 1 else out


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_def_eq_is_equality_of_flattened_words(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    amb = ambient(n)
    i = rng.randint(0, n)
    j = rng.randint(i, n)
    exprs = [random_expr(rng, i, j, 3) for _ in range(4)]
    exprs += [regroup(rng, e) for e in exprs[:2]]
    for allow in (True, False):
        for a in range(len(exprs)):
            for b in range(a, len(exprs)):
                ea, eb = exprs[a], exprs[b]
                equal = def_eq(amb, term(ea), term(eb), allow_disc_insertion=allow)
                assert equal == (flat(ea, allow) == flat(eb, allow))  # oracle A
                assert not equal or generators(ea) == generators(eb)  # oracle B
        for e, regrouped in zip(exprs, exprs[4:]):
            assert flat(e, allow) == flat(regrouped, allow)
            assert def_eq(amb, term(e), term(regrouped), allow_disc_insertion=allow)


def test_units_are_weak():
    amb = ambient(1)
    f, right, left = ("gen", 1), ("id", 1), ("id", 0)
    for allow in (True, False):
        for e in (("comp", (f, right)), ("comp", (left, f)), ("comp", (f,))):
            assert generators(e) == generators(f)
            assert not def_eq(amb, term(e), term(f), allow_disc_insertion=allow)
            assert flat(e, allow) != flat(f, allow)
    # a unary composite is spliced into a composite only with disc insertion
    unary = ("comp", (("comp", (f,)), right))
    for allow in (True, False):
        got = def_eq(amb, term(unary), term(("comp", (f, right))), allow_disc_insertion=allow)
        assert got == allow == (flat(unary, allow) == flat(("comp", (f, right)), allow))


def _left_nested(n: int) -> tuple:
    e = ("gen", 1)
    for g in range(2, n + 1):
        e = ("comp", (e, ("gen", g)))
    return e


def _right_nested(n: int) -> tuple:
    e = ("gen", n)
    for g in range(n - 1, 0, -1):
        e = ("comp", (("gen", g), e))
    return e


@pytest.mark.parametrize("n", [64, 128])
def test_long_bracketings_against_their_words(n):
    amb = ambient(n)
    unbiased = ("comp", tuple(("gen", g) for g in range(1, n + 1)))
    left, right = _left_nested(n), _right_nested(n)
    # the identity at u_{n/2} between the two halves: the same generators
    halves = ("comp", (_left_nested(n // 2), ("id", n // 2),
                       ("comp", tuple(("gen", g) for g in range(n // 2 + 1, n + 1)))))
    pairs = ((left, unbiased, True), (right, unbiased, True), (left, right, True),
             (halves, unbiased, False))
    for allow in (True, False):
        for a, b, want in pairs:
            assert def_eq(amb, term(a), term(b), allow_disc_insertion=allow) == want
            assert (flat(a, allow) == flat(b, allow)) == want
            assert generators(a) == generators(b)
