"""Ordinals below omega^omega in Cantor normal form, natural sums, and the
syntactic-depth measure used to prove that reduction terminates.

An ordinal is a finite sum of terms omega^e * c stored as (exponent,
coefficient) pairs with strictly decreasing exponents; the natural
(Hessenberg) sum adds coefficients pointwise, which keeps it commutative
and strictly monotone in both arguments.

The depth of a term or type of dimension D is the natural sum, over its
coherence occurrences, of omega^(n + D - 1 - l), where n is the dimension
of the coherence and l the number of head types enclosing it.  A
coherence therefore weighs less the deeper it sits in head types, which
is what makes every reduction step lower the depth; syntactic_depth
states the weights and the argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import MalformedSyntax
from .syntax import Arr, Coh, Item, Star, Substitution, Type, Var, dim_type


@dataclass(frozen=True)
class Ordinal:
    terms: tuple[tuple[int, int], ...] = ()  # (exponent, coefficient)

    def __post_init__(self) -> None:
        exps = [e for e, _ in self.terms]
        if exps != sorted(exps, reverse=True) or len(set(exps)) != len(exps):
            raise MalformedSyntax("ordinal exponents must strictly decrease")
        if any(e < 0 or c <= 0 for e, c in self.terms):
            raise MalformedSyntax("ordinal terms need e >= 0 and c > 0")

    def coefficient(self, exponent: int) -> int:
        for e, c in self.terms:
            if e == exponent:
                return c
        return 0

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __lt__(self, other: "Ordinal") -> bool:
        return self.terms < other.terms

    def __le__(self, other: "Ordinal") -> bool:
        return self.terms <= other.terms

    def __gt__(self, other: "Ordinal") -> bool:
        return other < self

    def __ge__(self, other: "Ordinal") -> bool:
        return other <= self

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            else:
                head = "ω" if e == 1 else f"ω^{e}"
                parts.append(head if c == 1 else f"{head}·{c}")
        return " ⊞ ".join(parts)


ZERO = Ordinal()
ONE = Ordinal(((0, 1),))


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise MalformedSyntax("ordinals are non-negative")
    return Ordinal(((0, n),)) if n else ZERO


def omega_pow(n: int) -> Ordinal:
    """The ordinal omega^n (so omega_pow(0) is 1)."""
    if n < 0:
        raise MalformedSyntax("exponent must be non-negative")
    return Ordinal(((n, 1),))


def nat_sum(a: Ordinal, b: Ordinal) -> Ordinal:
    coeffs: dict[int, int] = {}
    for e, c in a.terms:
        coeffs[e] = coeffs.get(e, 0) + c
    for e, c in b.terms:
        coeffs[e] = coeffs.get(e, 0) + c
    return Ordinal(tuple(sorted(coeffs.items(), reverse=True)))


def nat_sum_all(items) -> Ordinal:
    return reduce(nat_sum, items, ZERO)


def ord_lt(a: Ordinal, b: Ordinal) -> bool:
    return a < b


# ---------------------------------------------------------------------------
# Syntactic depth
# ---------------------------------------------------------------------------


def syntactic_depth(item: Item) -> Ordinal:
    """Ordinal measure that strictly decreases along every reduction step.

    Weights.  A term or type of dimension D weighs mu_(D-1) of itself, where
    mu_k is the natural sum, over every coherence occurrence c, of
    omega^(dim c + k - l_c), l_c being the number of head types on the way
    down to c (arguments and arrow parts do not count):

        mu_k(variable) = mu_k(*) = 0
        mu_k(s -> t over B) = mu_k(s) + mu_k(B) + mu_k(t)
        mu_k(coh(G : A)[sigma]) = omega^(dim A + k) + mu_(k-1)(A) + mu_k(sigma)

    with mu_k of a substitution the sum over its entries; a substitution on
    its own weighs the sum of the depths of its entries.  In a well-typed
    item no exponent is negative: the terms inside a head type of dimension
    m have dimension below m and the arguments of a coherence of dimension
    m have dimension at most m, so a coherence of dimension n >= 1 inside l
    head types has n + l <= D and weighs at least omega^(2n - 1).  (A
    coherence of type * has empty support and is never well typed; if one
    turns up, MalformedSyntax is raised.)

    Why every step lowers the depth.  Raising k by one adds one to every
    exponent, which preserves the order of ordinals, and the natural sum is
    strictly monotone; so a step inside an argument or an arrow part
    (argument reduction) or inside a head type (cell reduction) lowers the
    whole as soon as the reduct weighs less than the redex at any one k.
    Reduction preserves dimension, so D does not move.  At a redex
    coh(G : A)[sigma] of weight mu_k, the insertion at a cell x of
    dimension d whose argument is c = coh(Delta : U)[tau]:
      - keeps the head weight omega^(dim A + k), since the external
        substitution preserves dimension;
      - frees c from the arguments: the combined substitution holds each
        surviving entry of sigma other than c once and each entry of tau
        at most once, so the arguments lose at least
        omega^(d + k) + mu_(k-1)(U);
      - writes into A, in place of x and of the erased boundaries of x,
        copies of the inner coherence and of boundaries of its type.  All
        their coherences have dimension at most d and sit inside at least
        one head type, so each weighs at most omega^(d + k - 1), and
        finitely many of them sum to less than omega^(d + k).
    The gain is thus below the loss, and the depth strictly drops.  With
    equal weights everywhere a whisker insertion at a cell that occurs
    twice in the head type would trade one omega^d for two.
    """
    if isinstance(item, Substitution):
        return nat_sum_all(syntactic_depth(t) for _, t in item.entries)
    if isinstance(item, Coh):
        return _weigh(item, dim_type(item.ty) - 1)
    if isinstance(item, Type):
        return _weigh(item, dim_type(item) - 1)
    return _weigh(item, 0)


def _weigh(item: Item, k: int) -> Ordinal:
    """mu_k of syntactic_depth: coherences of dimension n enclosed by l
    head types weigh omega^(n + k - l)."""
    if isinstance(item, (Var, Star)):
        return ZERO
    if isinstance(item, Arr):
        return nat_sum_all(
            (_weigh(item.src, k), _weigh(item.base, k), _weigh(item.tgt, k))
        )
    if isinstance(item, Substitution):
        return nat_sum_all(_weigh(t, k) for _, t in item.entries)
    if isinstance(item, Coh):
        return nat_sum_all(
            (
                omega_pow(dim_type(item.ty) + k),  # rejects a negative exponent
                _weigh(item.ty, k - 1),
                _weigh(item.sub, k),
            )
        )
    raise MalformedSyntax(f"no syntactic depth for {item!r}")
