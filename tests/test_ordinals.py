"""Cantor-normal-form ordinals, natural sums, and the depth measure."""

from __future__ import annotations

import random

import pytest

from cattsa.errors import MalformedSyntax
from cattsa.syntax import Coh, Substitution, Var, identity_sub
from cattsa.pasting import unbiased_type
from helpers import CHAIN2, CHAIN3, chain, comp2, unbiased_apply
from oracles import (
    ONE,
    ZERO,
    Ordinal,
    from_int,
    nat_sum,
    omega_pow,
    ord_lt,
    syntactic_depth,
)


def test_zero_sum():
    assert nat_sum(ZERO, ZERO) == ZERO


def test_disjoint_exponents():
    omega = omega_pow(1)
    assert nat_sum(omega, ONE) == Ordinal(((1, 1), (0, 1)))


def test_one_is_omega_to_the_zero():
    assert omega_pow(0) == ONE == from_int(1)


def test_sum_with_shared_exponent():
    # (omega + 1) natural-sum omega = omega.2 + 1
    a = Ordinal(((1, 1), (0, 1)))
    b = omega_pow(1)
    assert nat_sum(a, b) == Ordinal(((1, 2), (0, 1)))


def test_order_examples():
    assert ord_lt(omega_pow(1), omega_pow(2))
    many = ZERO
    for _ in range(100):
        many = nat_sum(many, omega_pow(1))
        assert ord_lt(many, omega_pow(2))


def test_invalid_forms_rejected():
    with pytest.raises(MalformedSyntax):
        Ordinal(((0, 1), (1, 1)))  # increasing exponents
    with pytest.raises(MalformedSyntax):
        Ordinal(((1, 0),))  # zero coefficient


def _random_ordinal(rng: random.Random) -> Ordinal:
    terms = []
    for e in sorted(rng.sample(range(6), rng.randint(0, 4)), reverse=True):
        terms.append((e, rng.randint(1, 5)))
    return Ordinal(tuple(terms))


def test_nat_sum_associative_commutative_randomised():
    rng = random.Random(11)
    for _ in range(1000):
        a, b, c = (_random_ordinal(rng) for _ in range(3))
        assert nat_sum(a, b) == nat_sum(b, a)
        assert nat_sum(nat_sum(a, b), c) == nat_sum(a, nat_sum(b, c))


def test_nat_sum_strictly_monotone():
    rng = random.Random(13)
    for _ in range(300):
        a, b = _random_ordinal(rng), _random_ordinal(rng)
        smaller = _random_ordinal(rng)
        if not ord_lt(smaller, a):
            continue
        assert ord_lt(nat_sum(smaller, b), nat_sum(a, b))


# ---------------------------------------------------------------------------
# Oracle: the supremum-of-successors recursion, evaluated on pairs (a, b)
# representing omega*a + b.  Limits are taken by evaluating the chain at
# several points and checking the linear pattern before extrapolating.
# ---------------------------------------------------------------------------


def _sup_recursion(a, b, memo):
    if (a, b) in memo:
        return memo[(a, b)]
    if a == (0, 0) and b == (0, 0):
        return (0, 0)
    cands = []
    for first, second in ((a, b), (b, a)):
        # candidates S(first (+) second') for second' < second
        ca, cb = second
        if cb > 0:
            s = _sup_recursion(first, (ca, cb - 1), memo)
            cands.append((s[0], s[1] + 1))
        elif ca > 0:
            # limit ordinal: evaluate the chain at k = 0, 1, 2 and extrapolate
            probes = [_sup_recursion(first, (ca - 1, k), memo) for k in (0, 1, 2)]
            assert probes[1] == (probes[0][0], probes[0][1] + 1)
            assert probes[2] == (probes[0][0], probes[0][1] + 2)
            cands.append((probes[0][0] + 1, 0))
    out = max(cands)
    memo[(a, b)] = out
    return out


def _to_pair(o: Ordinal):
    return (o.coefficient(1), o.coefficient(0))


def _from_pair(p) -> Ordinal:
    terms = []
    if p[0]:
        terms.append((1, p[0]))
    if p[1]:
        terms.append((0, p[1]))
    return Ordinal(tuple(terms))


def test_nat_sum_matches_supremum_recursion_below_omega_4():
    memo: dict = {}
    pairs = [(a, b) for a in range(2) for b in range(6)]
    for pa in pairs:
        for pb in pairs:
            got = nat_sum(_from_pair(pa), _from_pair(pb))
            want = _sup_recursion(pa, pb, memo)
            assert _to_pair(got) == want and got.coefficient(1) < 4


# ---------------------------------------------------------------------------
# Syntactic depth
# ---------------------------------------------------------------------------


def test_depth_of_variables_and_empty_substitution():
    assert syntactic_depth(Var("x")) == ZERO
    assert syntactic_depth(Substitution()) == ZERO


def test_depth_of_binary_composite_of_variables():
    amb = chain(2, "u", "m")
    t = comp2(amb, Var("m1"), Var("m2"))
    assert syntactic_depth(t) == omega_pow(1)


def test_depth_decreases_from_nested_to_flat():
    amb = chain(3, "u", "m")
    nested = comp2(amb, Var("m1"), comp2(amb, Var("m2"), Var("m3")))
    flat = unbiased_apply(CHAIN3, amb, [Var(f"m{i}") for i in (1, 2, 3)])
    assert syntactic_depth(nested) == Ordinal(((1, 2),))
    assert syntactic_depth(flat) == omega_pow(1)
    assert ord_lt(syntactic_depth(flat), syntactic_depth(nested))


def test_depth_counts_type_and_arguments():
    t = Coh(CHAIN2, unbiased_type(CHAIN2), identity_sub(CHAIN2))
    # arguments and type are variables, only the head contributes
    assert syntactic_depth(t) == omega_pow(1)


def test_rendering():
    assert str(ZERO) == "0"
    assert str(omega_pow(1)) == "ω"
    o = nat_sum(nat_sum(Ordinal(((2, 3),)), omega_pow(1)), from_int(5))
    assert str(o) == "ω^2·3 ⊞ ω ⊞ 5"
