"""Typing judgements for contexts, types, substitutions and terms.

Two modes share one algorithm: the base mode compares types with ==,
which ignores the names coherences bind, the strictly associative mode
compares normal forms.  The checkers call definitional equality on
already-constructed syntax and definitional equality never calls back
into typing, which keeps the mutual definition well founded.  Every
public entry point raises errors.TooDeep, not RecursionError, on a term
too deep for the kernel, with the rendering of its subject inside the
guard.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .errors import (
    ArityMismatch,
    CattError,
    EndpointTypeMismatch,
    GlobularityViolation,
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
    apply_sub_term,
    apply_sub_type,
    dim_term,
    dim_type,
    support,
    term_boundary,
    term_str,
    type_str,
)
from .trees import all_labels, ctx_to_tree, tree_boundary, tree_depth


class Mode(enum.Enum):
    CATT = "catt"
    CATT_SA = "sa"


@bounded
def equal(mode: Mode, ctx: Context, a: Item, b: Item) -> bool:
    return _equal(mode, ctx, a, b)


def _equal(mode: Mode, ctx: Context, a: Item, b: Item) -> bool:
    # the checkers call this unguarded form, so that a RecursionError
    # reaches their entry point's guard and is not reported as a failure
    if mode is Mode.CATT:
        return a == b
    return def_eq(ctx, a, b)


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


def _check_ctx(ctx: Context, mode: Mode, trace: list[str]) -> None:
    prefix = Context()
    for v, ty in ctx.entries:
        _check_type(prefix, ty, mode, trace)
        prefix = prefix.extend(v, ty)  # raises DuplicateVariable
        trace.append(f"ctx-extend {v}")


def _check_type(ctx: Context, ty: Type, mode: Mode, trace: list[str]) -> None:
    if isinstance(ty, Star):
        trace.append("type-star")
        return
    assert isinstance(ty, Arr)
    _check_type(ctx, ty.base, mode, trace)
    for label, endpoint in (("source", ty.src), ("target", ty.tgt)):
        try:
            _check_term(ctx, endpoint, ty.base, mode, trace)
        except TypeMismatch as exc:
            raise EndpointTypeMismatch(
                f"{label} of {type_str(ty)}: {exc}"
            ) from exc
    trace.append("type-arrow")


def _check_sub(
    delta: Context, sigma: Substitution, gamma: Context, mode: Mode, trace: list[str]
) -> None:
    if sigma.domain != gamma.vars:
        raise ArityMismatch(
            f"substitution domain {sigma.domain} does not match "
            f"context variables {gamma.vars}"
        )
    done: list[tuple[VarName, Term]] = []
    for (v, t), (_, ty) in zip(sigma.entries, gamma.entries):
        expected = apply_sub_type(ty, Substitution(tuple(done)))
        _check_term(delta, t, expected, mode, trace)
        done.append((v, t))
        trace.append(f"sub-extend {v}")


def _support_vars(ctx: Context, item: Item, mode: Mode) -> frozenset[VarName]:
    if mode is Mode.CATT_SA:
        item = normalize(ctx, item)
    return support(ctx, item)


def _infer(delta: Context, t: Term, mode: Mode, trace: list[str]) -> Type:
    if isinstance(t, Var):
        ty = delta.lookup(t.name)  # raises UnknownVariable
        trace.append(f"var' {t.name}")
        return ty
    assert isinstance(t, Coh)
    gamma, head_ty, sigma = t.ctx, t.ty, t.sub
    tree = ctx_to_tree(gamma)  # raises NotPasting
    _check_type(gamma, head_ty, mode, trace)
    _check_sub(delta, sigma, gamma, mode, trace)

    full = frozenset(gamma.vars)
    supp_ty = _support_vars(gamma, head_ty, mode)
    if supp_ty == full:
        trace.append("coh'")
        return apply_sub_type(head_ty, sigma)
    coh_failure = (
        f"(coh') support {sorted(supp_ty)} is not the whole context "
        f"{sorted(full)}"
    )
    k = tree_depth(tree) - 1
    if isinstance(head_ty, Arr) and k >= 0:
        src_vars = frozenset(all_labels(tree_boundary(tree, k, NEG)))
        tgt_vars = frozenset(all_labels(tree_boundary(tree, k, POS)))
        supp_src = _support_vars(gamma, head_ty.src, mode)
        supp_tgt = _support_vars(gamma, head_ty.tgt, mode)
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
            trace.append("comp'")
            return apply_sub_type(head_ty, sigma)
        raise SupportViolation(f"(comp') {'; '.join(problems)}; {coh_failure}")
    raise SupportViolation(coh_failure)


def _check_term(
    delta: Context, t: Term, expected: Type, mode: Mode, trace: list[str]
) -> None:
    inferred = _infer(delta, t, mode, trace)
    if not _equal(mode, delta, inferred, expected):
        raise TypeMismatch(
            f"term {term_str(t)} has type {type_str(inferred)}, "
            f"expected {type_str(expected)}"
        )


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------


def _report(kind: str, subject: str, mode: Mode, run) -> TypingReport:
    trace: list[str] = []
    try:
        inferred = run(trace)
    except TooDeep:
        raise  # from a guarded reduction call: not a typing failure
    except CattError as exc:
        return TypingReport(False, kind, subject, mode, error=exc, rule_trace=tuple(trace))
    return TypingReport(True, kind, subject, mode, inferred=inferred, rule_trace=tuple(trace))


@bounded
def check_ctx(ctx: Context, mode: Mode = Mode.CATT_SA) -> TypingReport:
    return _report(
        "context", str(ctx), mode, lambda tr: _check_ctx(ctx, mode, tr)
    )


@bounded
def check_type(ctx: Context, ty: Type, mode: Mode = Mode.CATT_SA) -> TypingReport:
    return _report(
        "type", type_str(ty), mode, lambda tr: _check_type(ctx, ty, mode, tr)
    )


@bounded
def check_sub(
    delta: Context,
    sigma: Substitution,
    gamma: Context,
    mode: Mode = Mode.CATT_SA,
) -> TypingReport:
    return _report(
        "substitution",
        str(sigma),
        mode,
        lambda tr: _check_sub(delta, sigma, gamma, mode, tr),
    )


@bounded
def check_term(
    ctx: Context, t: Term, ty: Type, mode: Mode = Mode.CATT_SA
) -> TypingReport:
    def run(tr: list[str]) -> Type:
        _check_term(ctx, t, ty, mode, tr)
        return ty

    return _report("term", term_str(t), mode, run)


@bounded
def infer_term(ctx: Context, t: Term, mode: Mode = Mode.CATT_SA) -> Type:
    """Inferred type of a term; the substituted head type is returned as
    constructed, not normalised."""
    trace: list[str] = []
    return _infer(ctx, t, mode, trace)


@bounded
def infer_report(ctx: Context, t: Term, mode: Mode = Mode.CATT_SA) -> TypingReport:
    return _report("term", term_str(t), mode, lambda tr: _infer(ctx, t, mode, tr))


# ---------------------------------------------------------------------------
# Well-formed substitutions out of globular contexts
# ---------------------------------------------------------------------------


def is_globular_ctx(ctx: Context) -> bool:
    """True when no coherence occurs in any declared type."""

    def term_ok(t: Term) -> bool:
        return isinstance(t, Var)

    def type_ok(ty: Type) -> bool:
        if isinstance(ty, Star):
            return True
        assert isinstance(ty, Arr)
        return term_ok(ty.src) and type_ok(ty.base) and term_ok(ty.tgt)

    return all(type_ok(ty) for _, ty in ctx.entries)


@bounded
def check_well_formed_sub(
    gamma: Context, sigma: Substitution, delta: Context
) -> TypingReport:
    """Globularity-based well-formedness of sigma : gamma -> delta.

    Every image must be well typed in delta with the dimension of its
    declared type, and for arrow-typed cells the one-step boundaries of the
    image must be definitionally equal to the images of the declared
    endpoints.
    """

    def run(trace: list[str]) -> None:
        if not is_globular_ctx(gamma):
            raise GlobularityViolation("source context contains a coherence")
        if sigma.domain != gamma.vars:
            raise ArityMismatch(
                f"substitution domain {sigma.domain} does not match "
                f"context variables {gamma.vars}"
            )
        for v, ty in gamma.entries:
            img = sigma.lookup(v)
            _infer(delta, img, Mode.CATT_SA, trace)
            d = dim_type(ty)
            if dim_term(delta, img) != d:
                raise GlobularityViolation(
                    f"image of '{v}' has dimension {dim_term(delta, img)}, "
                    f"declared {d}"
                )
            if isinstance(ty, Arr):
                for sign, endpoint in ((NEG, ty.src), (POS, ty.tgt)):
                    got = term_boundary(delta, img, d - 1, sign)
                    want = apply_sub_term(endpoint, sigma)
                    if not def_eq(delta, got, want):
                        raise GlobularityViolation(
                            f"boundary {sign} of image of '{v}' is "
                            f"{term_str(got)}, expected {term_str(want)}"
                        )
            trace.append(f"wf {v}")

    return _report("well-formed-substitution", str(sigma), Mode.CATT_SA, run)
