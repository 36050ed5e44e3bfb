"""Typing judgements for contexts, types, substitutions and terms.

Two modes share one algorithm: the base mode compares types with ==,
which ignores the names coherences bind, the strictly associative mode
compares normal forms, and tries == first: normal forms are unique, so
equal types need no normalising.  A Session holds the mode, the
allow_disc_insertion setting (default True, passed on to every normalize
and def_eq call) and a memo of what the coherence rule has judged: the
verdict on a head (its pasting tree, head type, sa normal form and
supports) per (context, head type), and the inferred type per (context,
term).  Both are keyed by object identity and hold their keys alive, so
a subterm that elaboration shares is judged once however often it
occurs; only successes are stored.  The session's public methods are the
only typing entry points, and the CLI builds one session per command; a
shared session changes no verdict or message.

The checkers call definitional equality on already-constructed syntax and
definitional equality never calls back into typing, which keeps the
mutual definition well founded.  Every public Session method raises
errors.TooDeep, not RecursionError, on a term too deep for the kernel.
A report renders its subject when it is read, with the printers, which
raise TooDeep too.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from .errors import (
    ArityMismatch,
    CattError,
    EndpointTypeMismatch,
    SupportViolation,
    TooDeep,
    TypeMismatch,
    bounded,
)
from .pasting import unbiased_type
from .reduction import def_eq, normalize
from .syntax import (
    Arr,
    Coh,
    Context,
    Item,
    Star,
    Substitution,
    Term,
    Type,
    Var,
    alpha_eq,  # noqa: F401  (bench/test_bench.py traces it as typecheck.alpha_eq)
    apply_sub_type,
    item_str,
    support,
    term_str,
    type_str,
)
from .trees import ctx_to_tree


class Mode(enum.Enum):
    CATT = "catt"
    CATT_SA = "sa"


class TypingReport(NamedTuple):
    ok: bool
    kind: str
    judged: Item | Context  # the context, type, substitution or term judged
    mode: Mode
    inferred: Optional[Type] = None
    error: Optional[CattError] = None

    @property
    def subject(self) -> str:
        return item_str(self.judged)

    @property
    def message(self) -> str:
        if self.ok:
            return f"{self.kind} {self.subject}: ok"
        return f"{self.kind} {self.subject}: {self.error}"


class Session:
    """The setting of a run of judgements and what they have established.

    Sharing one session between calls, or between threads, changes no
    verdict: a memo entry is a function of its key objects, the mode and
    the setting, and two threads that race to fill it store equal values.
    """

    def __init__(self, mode: Mode, *, allow_disc_insertion: bool = True) -> None:
        self.mode = mode
        self.allow_disc_insertion = allow_disc_insertion
        # (id(gamma), id(head type)) -> (gamma, head type)
        self._heads: dict[tuple[int, int], tuple[Context, Type]] = {}
        # (id(delta), id(term)) -> (delta, term, inferred type)
        self._inferred: dict[tuple[int, int], tuple[Context, Term, Type]] = {}

    @bounded
    def equal(self, ctx: Context, a: Item, b: Item) -> bool:
        return self._equal(ctx, a, b)

    @bounded
    def check_ctx(self, ctx: Context) -> TypingReport:
        return self._report("context", ctx, self._check_ctx, ctx)

    @bounded
    def check_type(self, ctx: Context, ty: Type) -> TypingReport:
        return self._report("type", ty, self._check_type, ctx, ty)

    @bounded
    def check_sub(
        self, delta: Context, sigma: Substitution, gamma: Context
    ) -> TypingReport:
        return self._report("substitution", sigma, self._check_sub, delta, sigma, gamma)

    @bounded
    def check_term(self, ctx: Context, t: Term, ty: Type) -> TypingReport:
        return self._report("term", t, self._check_term, ctx, t, ty)

    @bounded
    def infer_term(self, ctx: Context, t: Term) -> Type:
        """Inferred type of a term; the substituted head type is returned
        as constructed, not normalised."""
        return self._infer(ctx, t)

    @bounded
    def infer_report(self, ctx: Context, t: Term) -> TypingReport:
        return self._report("term", t, self._infer, ctx, t)

    def _report(self, kind: str, judged, check, *args) -> TypingReport:
        """Run check(*args), one of the checkers below; its result is the
        report's inferred type."""
        try:
            inferred = check(*args)
        except TooDeep:
            raise  # from a guarded reduction call: not a typing failure
        except CattError as exc:
            return TypingReport(False, kind, judged, self.mode, error=exc)
        return TypingReport(True, kind, judged, self.mode, inferred=inferred)

    # the checkers, which raise on failure and read and fill the memo

    def _equal(self, ctx: Context, a: Item, b: Item) -> bool:
        # the checkers call this unguarded form, so that a RecursionError
        # reaches their entry point's guard and is not reported as a failure
        if a == b:
            return True  # normal forms are unique
        if self.mode is Mode.CATT:
            return False
        return def_eq(ctx, a, b, allow_disc_insertion=self.allow_disc_insertion)

    def _check_ctx(self, ctx: Context) -> None:
        prefix = Context()
        for v, ty in ctx.entries:
            self._check_type(prefix, ty)
            prefix = prefix.extend(v, ty)  # raises DuplicateVariable

    def _check_type(self, ctx: Context, ty: Type) -> None:
        if isinstance(ty, Star):
            return
        assert isinstance(ty, Arr)
        self._check_type(ctx, ty.base)
        for label, endpoint in (("source", ty.src), ("target", ty.tgt)):
            try:
                self._check_term(ctx, endpoint, ty.base)
            except TypeMismatch as exc:
                raise EndpointTypeMismatch(f"{label} of {type_str(ty)}: {exc}") from exc

    def _check_sub(self, delta: Context, sigma: Substitution, gamma: Context) -> None:
        _check_domain(sigma, gamma)  # so the names of each prefix are distinct
        for i, (t, ty) in enumerate(zip(sigma.values, gamma.values)):
            done = Substitution.deferred(sigma.domain[:i], sigma.values[:i])
            self._check_term(delta, t, apply_sub_type(ty, done))

    def _infer(self, delta: Context, t: Term) -> Type:
        # the memo lookups are inline: a helper would add a frame per level
        # of nesting, and the nesting bound is set by the frames per level
        if isinstance(t, Var):
            return delta.lookup(t.name)  # raises UnknownVariable
        assert isinstance(t, Coh)
        key = (id(delta), id(t))
        hit = self._inferred.get(key)
        if hit is not None:
            return hit[2]
        gamma, head_ty, sigma = t.ctx, t.ty, t.sub
        head_key = (id(gamma), id(head_ty))
        violation = None
        if head_key not in self._heads:
            ctx_to_tree(gamma)  # raises NotPasting
            self._check_type(gamma, head_ty)
            # stored before the arguments are checked, so that nested
            # coherences with this head find it
            violation = self._head_violation(gamma, head_ty)
            if violation is None:
                self._heads[head_key] = (gamma, head_ty)
        self._check_sub(delta, sigma, gamma)
        if violation is not None:
            raise violation
        ty = apply_sub_type(head_ty, sigma)
        self._inferred[key] = (delta, t, ty)
        return ty

    def _head_violation(self, gamma: Context, head_ty: Type) -> Optional[SupportViolation]:
        """None when the head type meets the support condition of coh' or
        comp', else the violation: it is raised once the substitution
        checks, whose errors come first."""
        # sa mode reads every support off one normal form: no redex sits at
        # an arrow, so the endpoints of nf are the normal forms of head_ty's
        nf = head_ty
        if self.mode is Mode.CATT_SA:
            nf = normalize(gamma, head_ty, allow_disc_insertion=self.allow_disc_insertion)
        full = frozenset(gamma.vars)
        supp_ty = support(gamma, nf)
        if supp_ty == full:
            return None  # coh'
        coh_failure = (
            f"(coh') support {sorted(supp_ty)} is not the whole context "
            f"{sorted(full)}"
        )
        # gamma's boundaries: the supports of its unbiased type's endpoints
        u = unbiased_type(gamma)
        if isinstance(nf, Arr) and isinstance(u, Arr):
            src_vars = support(gamma, u.src)
            tgt_vars = support(gamma, u.tgt)
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
                return None  # comp'
            return SupportViolation(f"(comp') {'; '.join(problems)}; {coh_failure}")
        return SupportViolation(coh_failure)

    def _check_term(self, delta: Context, t: Term, expected: Type) -> Type:
        """Check t against expected; returns expected."""
        inferred = self._infer(delta, t)
        if not self._equal(delta, inferred, expected):
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
