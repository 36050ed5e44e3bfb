"""Typing judgements for contexts, types, substitutions and terms.

Two modes share one algorithm: the base mode compares types with ==,
which ignores the names coherences bind, the strictly associative mode
compares normal forms.  Each public entry point builds one private judge
that holds the mode, the allow_disc_insertion setting (default True,
passed on to every normalize and def_eq call) and the rule trace; the
checkers are its methods, and no setting outlives the call.  The
checkers call definitional equality on already-constructed syntax and
definitional equality never calls back into typing, which keeps the
mutual definition well founded.  Every public entry point raises
errors.TooDeep, not RecursionError, on a term too deep for the kernel,
with the rendering of its subject inside the guard.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    ArityMismatch,
    CattError,
    EndpointTypeMismatch,
    SupportViolation,
    TooDeep,
    TypeMismatch,
    bounded,
)
from .reduction import def_eq, normalize
from .syntax import (
    NEG,
    POS,
    Arr,
    Coh,
    Context,
    Item,
    Star,
    Substitution,
    Term,
    Type,
    Var,
    VarName,
    alpha_eq,  # noqa: F401  (bench/test_bench.py traces it as typecheck.alpha_eq)
    apply_sub_type,
    support,
    term_str,
    type_str,
)
from .trees import all_labels, ctx_to_tree, tree_boundary, tree_depth


class Mode(enum.Enum):
    CATT = "catt"
    CATT_SA = "sa"


@bounded
def equal(
    mode: Mode, ctx: Context, a: Item, b: Item, *, allow_disc_insertion: bool = True
) -> bool:
    return _Judge(mode, allow_disc_insertion).equal(ctx, a, b)


@dataclass
class TypingReport:
    ok: bool
    kind: str
    subject: str
    mode: Mode
    inferred: Optional[Type] = None
    rule_trace: tuple[str, ...] = ()
    error: Optional[CattError] = None

    @property
    def message(self) -> str:
        if self.ok:
            return f"{self.kind} {self.subject}: ok"
        return f"{self.kind} {self.subject}: {self.error}"


# ---------------------------------------------------------------------------
# Internal checkers (raise on failure, append to the rule trace)
# ---------------------------------------------------------------------------


@dataclass
class _Judge:
    """The setting of one public call: the mode, whether disc-shaped
    arguments are inserted, and the rule trace the checkers append to.
    Built afresh by every entry point and never shared between calls."""

    mode: Mode
    allow_disc_insertion: bool
    trace: list[str] = field(default_factory=list)

    def equal(self, ctx: Context, a: Item, b: Item) -> bool:
        # the checkers call this unguarded form, so that a RecursionError
        # reaches their entry point's guard and is not reported as a failure
        if self.mode is Mode.CATT:
            return a == b
        return def_eq(ctx, a, b, allow_disc_insertion=self.allow_disc_insertion)

    def check_ctx(self, ctx: Context) -> None:
        prefix = Context()
        for v, ty in ctx.entries:
            self.check_type(prefix, ty)
            prefix = prefix.extend(v, ty)  # raises DuplicateVariable
            self.trace.append(f"ctx-extend {v}")

    def check_type(self, ctx: Context, ty: Type) -> None:
        if isinstance(ty, Star):
            self.trace.append("type-star")
            return
        assert isinstance(ty, Arr)
        self.check_type(ctx, ty.base)
        for label, endpoint in (("source", ty.src), ("target", ty.tgt)):
            try:
                self.check_term(ctx, endpoint, ty.base)
            except TypeMismatch as exc:
                raise EndpointTypeMismatch(f"{label} of {type_str(ty)}: {exc}") from exc
        self.trace.append("type-arrow")

    def check_sub(self, delta: Context, sigma: Substitution, gamma: Context) -> None:
        _check_domain(sigma, gamma)
        done: list[tuple[VarName, Term]] = []
        for (v, t), (_, ty) in zip(sigma.entries, gamma.entries):
            expected = apply_sub_type(ty, Substitution(tuple(done)))
            self.check_term(delta, t, expected)
            done.append((v, t))
            self.trace.append(f"sub-extend {v}")

    def infer(self, delta: Context, t: Term) -> Type:
        if isinstance(t, Var):
            ty = delta.lookup(t.name)  # raises UnknownVariable
            self.trace.append(f"var' {t.name}")
            return ty
        assert isinstance(t, Coh)
        gamma, head_ty, sigma = t.ctx, t.ty, t.sub
        tree = ctx_to_tree(gamma)  # raises NotPasting
        self.check_type(gamma, head_ty)
        self.check_sub(delta, sigma, gamma)

        # sa mode reads every support off one normal form: no redex sits at
        # an arrow, so the endpoints of nf are the normal forms of head_ty's
        nf = head_ty
        if self.mode is Mode.CATT_SA:
            nf = normalize(gamma, head_ty, allow_disc_insertion=self.allow_disc_insertion)
        full = frozenset(gamma.vars)
        supp_ty = support(gamma, nf)
        if supp_ty == full:
            self.trace.append("coh'")
            return apply_sub_type(head_ty, sigma)
        coh_failure = (
            f"(coh') support {sorted(supp_ty)} is not the whole context "
            f"{sorted(full)}"
        )
        k = tree_depth(tree) - 1
        if isinstance(nf, Arr) and k >= 0:
            src_vars = frozenset(all_labels(tree_boundary(tree, k, NEG)))
            tgt_vars = frozenset(all_labels(tree_boundary(tree, k, POS)))
            supp_src = support(gamma, nf.src)
            supp_tgt = support(gamma, nf.tgt)
            problems = []
            if supp_src != src_vars:
                problems.append(
                    f"source support {sorted(supp_src)} != source boundary "
                    f"{sorted(src_vars)}"
                )
            if supp_tgt != tgt_vars:
                problems.append(
                    f"target support {sorted(supp_tgt)} != target boundary "
                    f"{sorted(tgt_vars)}"
                )
            if not problems:
                self.trace.append("comp'")
                return apply_sub_type(head_ty, sigma)
            raise SupportViolation(f"(comp') {'; '.join(problems)}; {coh_failure}")
        raise SupportViolation(coh_failure)

    def check_term(self, delta: Context, t: Term, expected: Type) -> Type:
        """Check t against expected; returns expected."""
        inferred = self.infer(delta, t)
        if not self.equal(delta, inferred, expected):
            raise TypeMismatch(
                f"term {term_str(t)} has type {type_str(inferred)}, "
                f"expected {type_str(expected)}"
            )
        return expected


def _check_domain(sigma: Substitution, gamma: Context) -> None:
    if sigma.domain != gamma.vars:
        raise ArityMismatch(
            f"substitution domain {sigma.domain} does not match "
            f"context variables {gamma.vars}"
        )


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------


def _report(kind: str, subject: str, mode: Mode, allow: bool, check, *args) -> TypingReport:
    """Run check(judge, *args) with a fresh judge; its result is the
    report's inferred type."""
    trace: list[str] = []
    try:
        inferred = check(_Judge(mode, allow, trace), *args)
    except TooDeep:
        raise  # from a guarded reduction call: not a typing failure
    except CattError as exc:
        return TypingReport(False, kind, subject, mode, error=exc, rule_trace=tuple(trace))
    return TypingReport(True, kind, subject, mode, inferred=inferred, rule_trace=tuple(trace))


@bounded
def check_ctx(
    ctx: Context, mode: Mode = Mode.CATT_SA, *, allow_disc_insertion: bool = True
) -> TypingReport:
    return _report("context", str(ctx), mode, allow_disc_insertion, _Judge.check_ctx, ctx)


@bounded
def check_type(
    ctx: Context, ty: Type, mode: Mode = Mode.CATT_SA, *, allow_disc_insertion: bool = True
) -> TypingReport:
    return _report(
        "type", type_str(ty), mode, allow_disc_insertion, _Judge.check_type, ctx, ty
    )


@bounded
def check_sub(
    delta: Context,
    sigma: Substitution,
    gamma: Context,
    mode: Mode = Mode.CATT_SA,
    *,
    allow_disc_insertion: bool = True,
) -> TypingReport:
    return _report(
        "substitution", str(sigma), mode, allow_disc_insertion, _Judge.check_sub,
        delta, sigma, gamma,
    )


@bounded
def check_term(
    ctx: Context,
    t: Term,
    ty: Type,
    mode: Mode = Mode.CATT_SA,
    *,
    allow_disc_insertion: bool = True,
) -> TypingReport:
    return _report(
        "term", term_str(t), mode, allow_disc_insertion, _Judge.check_term, ctx, t, ty
    )


@bounded
def infer_term(
    ctx: Context, t: Term, mode: Mode = Mode.CATT_SA, *, allow_disc_insertion: bool = True
) -> Type:
    """Inferred type of a term; the substituted head type is returned as
    constructed, not normalised."""
    return _Judge(mode, allow_disc_insertion).infer(ctx, t)


@bounded
def infer_report(
    ctx: Context, t: Term, mode: Mode = Mode.CATT_SA, *, allow_disc_insertion: bool = True
) -> TypingReport:
    return _report("term", term_str(t), mode, allow_disc_insertion, _Judge.infer, ctx, t)
