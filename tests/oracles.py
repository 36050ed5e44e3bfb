"""Verification machinery that no command of the kernel runs.

Each piece here checks a claim of the paper or of the kernel from
outside it:

- disc contexts and the substitution out of a disc classifying a term;
- leaf_labels and _leaf_search, walks of a tree of their own to its
  locally maximal cells and to one cell's branching path: the
  independent references for trees.cell_table, whose walk alone the
  kernel reads cells and paths off;
- step_candidates, every one-step reduct of an item, for the
  reduction-graph tests (it decides redexes with the normaliser's own
  eligibility predicate, so the enumerator and the locator agree on what
  a redex is);
- eq_at_level, equality that is definitional below a dimension and
  structural from it on, and the regularity diagnostics;
- check_well_formed_sub, the globularity-based judgement of a
  substitution out of a globular context, against which the kernel's
  check_sub and insertion's substitutions are tested, and its error
  GlobularityViolation;
- check_pushout, the universal property of an insertion on concrete
  cones;
- insert_tree, the paper's insertion of one labelled tree into another
  along a branching path, written as a wedge sum of suspensions and
  sharing no code with the kernel's splice, with the checks that the
  inner tree's linear height is enough and that the labels are disjoint;
- reference_insert_ctx and reference_insert_sub, insertion as the kernel
  computed it before it shared unchanged structure: every inner label
  freshened, the tree relabelled and spliced whole by insert_tree, the
  context emitted whole, and the combined substitution looked up one name
  at a time;
- ordinals below omega^omega and the syntactic-depth measure that
  decreases along every reduction step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from typing import NamedTuple, Optional, Union

from cattsa.errors import (
    CattError,
    DimensionError,
    DuplicateVariable,
    HeadMismatch,
    IllTyped,
    LinearHeightTooSmall,
    MalformedSyntax,
    NotLocallyMaximal,
    NotPasting,
    SubstitutionUndefined,
    bounded,
)
from cattsa.insertion import (
    InsertionProblem,
    InsertionResult,
    insert_sub,
    type_linear_height,
)
from cattsa.pasting import _unbiased_type
from cattsa.reduction import (
    Position,
    _children,
    _eligible_heads,
    _insert_at,
    _kind_of,
    _with_child,
    _with_rule,
    def_eq,
)
from cattsa.syntax import (
    NEG,
    POS,
    STAR,
    Arr,
    Coh,
    Context,
    Item,
    Sign,
    Star,
    Substitution,
    Term,
    Type,
    Var,
    VarName,
    alpha_eq,
    apply_sub_term,
    apply_sub_type,
    compose_sub,
    dim_term,
    dim_type,
    identity_sub,
    term_boundary,
    term_str,
    var_sub,
)
from cattsa.trees import (
    BataninTree,
    TreePath,
    all_labels,
    ctx_to_tree,
    is_linear,
    linear_height,
    tree_to_ctx,
)
from cattsa.typecheck import Mode, Session, TypingReport, _check_domain


class GlobularityViolation(IllTyped):
    """A substitution out of a globular context that is not well formed."""


# ---------------------------------------------------------------------------
# Disc contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscContext:
    n: int
    ctx: Context


def disc_var(m: int, sign: Sign) -> VarName:
    return f"d{m}m" if sign == NEG else f"d{m}p"


def disc_context(n: int) -> DiscContext:
    """The pasting context of a single n-cell with its boundary tower."""
    if n < 0:
        raise DimensionError("disc dimension must be non-negative")
    entries: list[tuple[VarName, Type]] = [(disc_var(0, NEG), STAR)]
    ty: Type = STAR
    for m in range(n):
        entries.append((disc_var(m, POS), ty))
        ty = Arr(Var(disc_var(m, NEG)), ty, Var(disc_var(m, POS)))
        entries.append((disc_var(m + 1, NEG), ty))
    return DiscContext(n, Context(tuple(entries)))


def to_disc_sub(ctx: Context, t: Term) -> Substitution:
    """The substitution out of the disc classifying t: boundaries then t itself."""
    n = dim_term(ctx, t)
    entries: list[tuple[VarName, Term]] = []
    for m in range(n):
        entries.append((disc_var(m, NEG), term_boundary(ctx, t, m, NEG)))
        entries.append((disc_var(m, POS), term_boundary(ctx, t, m, POS)))
    entries.append((disc_var(n, NEG), t))
    return Substitution(tuple(entries))


# ---------------------------------------------------------------------------
# Leaves and branching paths, each by a walk of its own
# ---------------------------------------------------------------------------


def leaf_labels(t: BataninTree) -> tuple[VarName, ...]:
    """Labels of branchless nodes: the locally maximal cells of the context."""
    if not t.branches:
        return t.labels
    out: list[VarName] = []
    for br in t.branches:
        out.extend(leaf_labels(br) if br.branches else br.labels)
    return tuple(out)


def _leaf_search(t: BataninTree, x: VarName) -> Optional[tuple[TreePath, bool]]:
    """The branching path of the leaf x in t and whether t is linear, in
    one walk that stops at the first leaf labelled x; None when x labels
    no leaf of t."""
    if not t.branches:
        return ((0,), True) if t.labels[0] == x else None
    for n, br in enumerate(t.branches):
        found = _leaf_search(br, x)
        if found is not None:
            path, linear = found
            return ((n,) if linear else (n,) + path), linear and len(t.branches) == 1
    return None


def branching_height(t: BataninTree, x: VarName) -> int:
    """The branching height of the leaf x of t, by _leaf_search."""
    return len(_leaf_search(t, x)[0]) - 1


# ---------------------------------------------------------------------------
# Redex enumeration
# ---------------------------------------------------------------------------


class Step(NamedTuple):
    """A redex together with, for a head insertion, the cell it fires at,
    and the context and arguments of the coherence inserted there."""

    rule: str
    position: Position
    detail: Optional[tuple[VarName, Context, Substitution]] = None

    def position_str(self) -> str:
        """The position as the trace prints it, rendered here on its own."""
        parts = (f"{k}[{i}]" if k in ("arg", "entry") else k for k, i in self.position)
        return ".".join(parts) or "head"


def step_candidates(
    ctx: Context, item: Item, *, allow_disc_insertion: bool = True
) -> list[tuple[Step, Item]]:
    """All one-step reducts of a well-typed item, in traversal order.

    Traversal visits substitution entries left to right, then the type of a
    coherence, then the head itself, recursively; normalisation picks the
    deepest candidate and breaks ties by this order.
    """
    kind = _kind_of(item)
    out = []
    for pos, detail, result in _steps(item, allow_disc_insertion):
        out.append((Step(_with_rule(kind, pos), pos, detail), result))
    return out


def _steps(item: Item, allow: bool) -> list[tuple[Position, tuple, Item]]:
    out = []
    for kind, index, child in _children(item):
        for pos, detail, res in _steps(child, allow):
            out.append((((kind, index),) + pos, detail, _with_child(item, kind, index, res)))
    if isinstance(item, Coh):
        out.extend(_head_insertions(item, allow))
    return out


def _head_insertions(t: Coh, allow: bool) -> list[tuple[Position, tuple, Term]]:
    """Insertion redexes at the head of a coherence, in context order."""
    out = []
    for x, arg in _eligible_heads(t, allow):
        out.append(((), (x, arg.ctx, arg.sub), _insert_at(t, x, arg)))
    return out


# ---------------------------------------------------------------------------
# Graded equality
# ---------------------------------------------------------------------------


def eq_at_level(
    ctx: Context, a: Item, b: Item, n: int, *, allow_disc_insertion: bool = True
) -> bool:
    """Equality that is definitional strictly below dimension n and
    structural (up to alpha) at dimension n and above; the definitional
    part inserts disc-shaped arguments only when allow_disc_insertion."""
    if n < 0:
        raise IllTyped("equality level must be non-negative")
    if isinstance(a, Term) and isinstance(b, Term):
        return _eq_terms(ctx, a, b, n, allow_disc_insertion)
    if isinstance(a, Type) and isinstance(b, Type):
        return _eq_types(ctx, a, b, n, allow_disc_insertion)
    if isinstance(a, Substitution) and isinstance(b, Substitution):
        return _eq_subs(ctx, a, b, n, allow_disc_insertion)
    return False


def _eq_terms(ctx: Context, a: Term, b: Term, n: int, allow: bool) -> bool:
    try:
        da = dim_term(ctx, a)
        db = dim_term(ctx, b)
    except CattError as exc:
        raise IllTyped(str(exc)) from exc
    if da < n and db < n:
        return def_eq(ctx, a, b, allow_disc_insertion=allow)
    if isinstance(a, Var):
        return a == b
    if isinstance(a, Coh):
        if not isinstance(b, Coh):
            return False
        if len(a.ctx) != len(b.ctx) or not alpha_eq(a.ctx, b.ctx):
            return False
        ren = dict(zip(b.ctx.vars, a.ctx.vars))
        if not _eq_types(a.ctx, a.ty, apply_sub_type(b.ty, var_sub(ren, b.ty)), n, allow):
            return False
        return _eq_subs(ctx, a.sub, b.sub, n, allow)
    return False


def _eq_types(ctx: Context, a: Type, b: Type, n: int, allow: bool) -> bool:
    if isinstance(a, Star) or isinstance(b, Star):
        return isinstance(a, Star) and isinstance(b, Star)
    assert isinstance(a, Arr) and isinstance(b, Arr)
    return (
        _eq_terms(ctx, a.src, b.src, n, allow)
        and _eq_terms(ctx, a.tgt, b.tgt, n, allow)
        and _eq_types(ctx, a.base, b.base, n, allow)
    )


def _eq_subs(ctx: Context, a: Substitution, b: Substitution, n: int, allow: bool) -> bool:
    if len(a) != len(b):
        return False
    return all(_eq_terms(ctx, u, v, n, allow) for u, v in zip(a.values, b.values))


# ---------------------------------------------------------------------------
# Regularity
# ---------------------------------------------------------------------------

Height = Union[int, float]  # math.inf for variables


def _regular(ctx: Context, t: Term) -> Optional[Height]:
    if isinstance(t, Var):
        return math.inf
    assert isinstance(t, Coh)
    delta = t.ctx
    try:
        tree = ctx_to_tree(delta)
    except NotPasting:
        return None
    if is_linear(tree):  # a disc
        return None
    if t.ty != _unbiased_type(tree):
        return None
    heights: dict[VarName, Height] = {}
    for v, arg in t.sub.entries:
        h = _regular(ctx, arg)
        if h is None:
            return None
        heights[v] = h
    for x in leaf_labels(tree):
        if branching_height(tree, x) >= heights[x]:
            return None
    return linear_height(tree)


def is_regular(ctx: Context, t: Term) -> bool:
    return _regular(ctx, t) is not None


def regular_height(ctx: Context, t: Term) -> Height:
    h = _regular(ctx, t)
    if h is None:
        raise IllTyped(f"term is not regular: {term_str(t)}")
    return h


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


def _well_formed_sub(
    session: Session, gamma: Context, sigma: Substitution, delta: Context
) -> None:
    if not is_globular_ctx(gamma):
        raise GlobularityViolation("source context contains a coherence")
    _check_domain(sigma, gamma)
    for v, ty in gamma.entries:
        img = sigma.lookup(v)
        session._infer(delta, img)
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
                if not session._equal(delta, got, want):
                    raise GlobularityViolation(
                        f"boundary {sign} of image of '{v}' is "
                        f"{term_str(got)}, expected {term_str(want)}"
                    )


@bounded
def check_well_formed_sub(
    gamma: Context, sigma: Substitution, delta: Context, *, allow_disc_insertion: bool = True
) -> TypingReport:
    """Globularity-based well-formedness of sigma : gamma -> delta.

    Every image must be well typed in delta with the dimension of its
    declared type, and for arrow-typed cells the one-step boundaries of the
    image must be definitionally equal to the images of the declared
    endpoints.
    """
    session = Session(Mode.CATT_SA, allow_disc_insertion=allow_disc_insertion)
    return session._report(
        "well-formed-substitution", sigma, _well_formed_sub, session, gamma, sigma, delta
    )


# ---------------------------------------------------------------------------
# Pushout checking
# ---------------------------------------------------------------------------


@dataclass
class ConeReport:
    commutes: bool
    factors_internal: bool
    factors_external: bool
    unique: bool
    candidates_checked: int
    pool_size: int = 0  # raw dimension-matched candidate space, before pruning
    messages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.commutes and self.factors_internal and self.factors_external and self.unique


@dataclass
class PushoutReport:
    square_commutes: bool
    cones: list[ConeReport]
    messages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.square_commutes and all(c.ok for c in self.cones)


def _subs_def_eq(ctx: Context, a: Substitution, b: Substitution) -> bool:
    if a.domain != b.domain:
        return False
    return all(def_eq(ctx, u, v) for u, v in zip(a.values, b.values))


def check_pushout(
    problem: InsertionProblem,
    result: InsertionResult,
    cones: list[tuple[Context, Substitution, Substitution]],
    max_candidates: int = 2_000_000,
) -> PushoutReport:
    """Verify the universal property of an insertion on concrete cones.

    Checks (a) the insertion square commutes, (b) each cone factors through
    the inserted context via the combined substitution, and (c) that
    factorisation is unique among all substitutions assembled from a pool
    of dimension-matched candidate terms drawn from the cone.
    """
    outer, x, inner, inner_type = (
        problem.outer,
        problem.var,
        problem.inner,
        problem.inner_type,
    )
    n = dim_term(outer, Var(x))
    if dim_type(inner_type) != n:
        raise DimensionError(
            f"pushout needs dim(inner type) = dim('{x}') = {n}, got {dim_type(inner_type)}"
        )
    xbar = to_disc_sub(outer, Var(x))
    inner_coh = Coh(inner, inner_type, identity_sub(inner))
    cohbar = to_disc_sub(inner, inner_coh)

    report = PushoutReport(square_commutes=False, cones=[])
    left = compose_sub(xbar, result.external)
    right = compose_sub(cohbar, result.internal)
    report.square_commutes = _subs_def_eq(result.inserted, left, right)
    if not report.square_commutes:
        report.messages.append("square does not commute over the disc")

    for gamma, sigma, tau in cones:
        cone = ConeReport(
            commutes=False,
            factors_internal=False,
            factors_external=False,
            unique=False,
            candidates_checked=0,
        )
        report.cones.append(cone)
        cone.commutes = _subs_def_eq(
            gamma, compose_sub(xbar, sigma), compose_sub(cohbar, tau)
        )
        if not cone.commutes:
            cone.messages.append("cone does not commute over the disc")
        try:
            mu = insert_sub(sigma, x, tau, result)
        except HeadMismatch as exc:
            cone.messages.append(str(exc))
            continue
        cone.factors_internal = _subs_def_eq(gamma, compose_sub(result.internal, mu), tau)
        cone.factors_external = _subs_def_eq(gamma, compose_sub(result.external, mu), sigma)

        cone.unique, cone.candidates_checked, cone.pool_size, note = _unique_factorisation(
            gamma, sigma, tau, mu, result, max_candidates
        )
        if note:
            cone.messages.append(note)
    return report


def _unique_factorisation(
    gamma: Context,
    sigma: Substitution,
    tau: Substitution,
    mu: Substitution,
    result: InsertionResult,
    max_candidates: int,
) -> tuple[bool, int, int, str]:
    """Exhaustively search candidate substitutions satisfying both
    factorisation equations; every survivor must agree with mu.

    Candidates for each inserted variable are the dimension-matched terms
    among the cone's argument terms and the variables of gamma.  A
    candidate failing its single-variable factorisation equation is pruned
    before the product is formed, which is sound because those equations
    are entries of the full factorisation conditions.
    """
    pool_by_dim: dict[int, list[Term]] = {}
    seen: set = set()
    for t in list(sigma.values) + list(tau.values) + [Var(v) for v in gamma.vars]:
        if t in seen:
            continue
        seen.add(t)
        pool_by_dim.setdefault(dim_term(gamma, t), []).append(t)

    from_inner = {new.name: old for old, new in result.internal}
    pinned: dict[VarName, Term] = {}
    for v in result.inserted.vars:
        if v in from_inner:
            pinned[v] = tau.lookup(from_inner[v])
        else:
            pinned[v] = sigma.lookup(v)

    domains: list[list[Term]] = []
    pool_size = 1
    total = 1
    for v, ty in result.inserted.entries:
        raw = pool_by_dim.get(dim_type(ty), [])
        cands = [c for c in raw if def_eq(gamma, c, pinned[v])]
        pool_size *= max(len(raw), 1)
        domains.append(cands)
        total *= max(len(cands), 1)
        if total > max_candidates:
            return False, 0, pool_size, "candidate space too large; uniqueness not checked"
    if any(not d for d in domains):
        return False, 0, pool_size, "pinned value missing from candidate pool"

    checked = 0
    names = result.inserted.vars
    for combo in product(*domains):
        checked += 1
        nu = Substitution(tuple(zip(names, combo)))
        ok_int = _subs_def_eq(gamma, compose_sub(result.internal, nu), tau)
        ok_ext = _subs_def_eq(gamma, compose_sub(result.external, nu), sigma)
        if ok_int and ok_ext:
            if not all(def_eq(gamma, a, b) for a, b in zip(nu.values, mu.values)):
                return False, checked, pool_size, "a distinct factorisation passed"
    return True, checked, pool_size, ""


# ---------------------------------------------------------------------------
# Insertion without sharing: the reference for insert_ctx and insert_sub
# ---------------------------------------------------------------------------


def fresh_name(base: VarName, taken) -> VarName:
    """base with primes appended until it is not in taken."""
    name = base
    while name in taken:
        name += "'"
    return name


def relabel_whole(t: BataninTree, mapping: dict[VarName, VarName]) -> BataninTree:
    """t with every node rebuilt and its labels renamed by mapping."""
    return BataninTree(
        tuple(mapping.get(label, label) for label in t.labels),
        tuple(relabel_whole(br, mapping) for br in t.branches),
    )


def insert_tree(s: BataninTree, path: TreePath, t: BataninTree) -> BataninTree:
    """The insertion of t into s along the branching path, after checking
    that t's linear height is at least the path's length less one and that
    the two trees share no label."""
    if (height := linear_height(t)) < len(path) - 1:
        raise LinearHeightTooSmall(f"linear height {height} < path length {len(path)} - 1")
    if overlap := set(all_labels(s)) & set(all_labels(t)):
        raise DuplicateVariable(sorted(overlap)[0], "tree insertion")
    return _graft(s, path, t)


def _graft(s: BataninTree, path: TreePath, t: BataninTree) -> BataninTree:
    """The paper's insertion: s is the wedge sum of its suspended branches
    S_0 v ... v S_n.  Along [k] the summand of S_k gives way to t; along
    k :: q, t is the suspension of its one branch T_0, and the summand
    gives way to the suspension of T_0 inserted into S_k along q.  At both
    joints of the new summand its own labels win: those of s there bound
    the cell that is replaced.  A point's one cell, at path [0], is
    replaced by t outright."""
    if not s.branches:
        return t
    k, rest = path[0], path[1:]
    piece = BataninTree(t.labels, (_graft(s.branches[k], rest, t.branches[0]),)) if rest else t
    summands = [BataninTree(s.labels[i : i + 2], (br,)) for i, br in enumerate(s.branches)]
    summands[k] = piece
    labels, branches = [s.labels[0]], []
    for i, summand in enumerate(summands):
        if i == k:
            labels[-1] = summand.labels[0]
        labels += summand.labels[1:]
        branches += summand.branches
    return BataninTree(labels, branches)


def reference_insert_ctx(problem: InsertionProblem) -> InsertionResult:
    """insert_ctx computed from scratch: each inner label in turn freshened
    against the outer labels and the earlier images, the relabelled tree
    spliced by insert_tree and emitted whole, and the external substitution
    read off every outer variable; x's branching path is _leaf_search's, not
    the cell table's."""
    outer, x, inner, inner_type = problem
    s = ctx_to_tree(outer)
    t = ctx_to_tree(inner)
    if (found := _leaf_search(s, x)) is None:
        raise NotLocallyMaximal(x)
    path = found[0]
    if type_linear_height(inner_type) < len(path) - 1:
        raise LinearHeightTooSmall("inner type too shallow")
    taken = set(outer.vars)
    ren: dict[VarName, VarName] = {}
    for label in inner.vars:
        ren[label] = fresh = fresh_name(label, taken)
        taken.add(fresh)
    inserted = tree_to_ctx(insert_tree(s, path, relabel_whole(t, ren)))
    internal = Substitution(tuple((v, Var(ren[v])) for v in inner.vars))
    inner_coh = Coh(inner, inner_type, internal)
    boundary_of_x: dict[VarName, tuple[int, Sign]] = {}
    dx = dim_term(outer, Var(x))
    for m in range(dx):
        for sign in (NEG, POS):
            b = term_boundary(outer, Var(x), m, sign)
            boundary_of_x[b.name] = (m, sign)
    boundary_of_x[x] = (dx, NEG)
    surviving = set(inserted.vars)
    entries: list[tuple[VarName, Term]] = []
    for y in outer.vars:
        if y in surviving:
            entries.append((y, Var(y)))
        else:
            m, sign = boundary_of_x[y]
            entries.append((y, term_boundary(inserted, inner_coh, m, sign)))
    return InsertionResult(problem, inserted, internal, Substitution(tuple(entries)))


def reference_insert_sub(
    sigma: Substitution, x: VarName, tau: Substitution, result: InsertionResult
) -> Substitution:
    """insert_sub built one name at a time: the argument at x compared with
    a freshly built inner coherence, then each inserted variable looked up
    in tau (through internal) or in sigma."""
    problem = result.problem
    if x != problem.var:
        raise HeadMismatch("wrong cell")
    expected = Coh(problem.inner, problem.inner_type, tau)
    try:
        actual = sigma.lookup(x)
    except SubstitutionUndefined as exc:
        raise HeadMismatch("missing cell") from exc
    if actual != expected:
        raise HeadMismatch("not the inner coherence")
    from_inner = {new.name: old for old, new in result.internal}
    return Substitution(tuple(
        (v, tau.lookup(from_inner[v]) if v in from_inner else sigma.lookup(v))
        for v in result.inserted.vars
    ))


# ---------------------------------------------------------------------------
# Ordinals below omega^omega
# ---------------------------------------------------------------------------
#
# An ordinal is a finite sum of terms omega^e * c stored as (exponent,
# coefficient) pairs with strictly decreasing exponents; the natural
# (Hessenberg) sum adds coefficients pointwise, which keeps it commutative
# and strictly monotone in both arguments.


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
