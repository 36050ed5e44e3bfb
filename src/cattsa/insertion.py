"""Insertion: grafting one pasting diagram into another at a locally
maximal cell, together with the canonical substitutions in and out of the
result and an executable pushout checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .errors import (
    DimensionError,
    DuplicateVariable,
    HeadMismatch,
    LinearHeightTooSmall,
    MalformedSyntax,
    PathInvalid,
    SubstitutionUndefined,
)
from .pasting import to_disc_sub
from .syntax import (
    NEG,
    POS,
    Coh,
    Context,
    Substitution,
    Term,
    Type,
    Var,
    VarName,
    compose_sub,
    dim_term,
    dim_type,
    fresh_name,
    identity_sub,
    term_boundary,
    type_boundary,
)
from .trees import (
    BataninTree,
    TreePath,
    all_labels,
    branching_path,
    ctx_to_tree,
    linear_height,
    relabel_tree,
    tree_to_ctx,
)


@dataclass(frozen=True)
class InsertionProblem:
    outer: Context
    var: VarName
    inner: Context
    inner_type: Type


@dataclass(frozen=True)
class InsertionResult:
    problem: InsertionProblem
    inserted: Context
    internal: Substitution  # inner -> inserted, variable to variable
    external: Substitution  # outer -> inserted
    renaming: tuple[tuple[VarName, VarName], ...]  # inner label -> fresh label

    @property
    def renaming_map(self) -> dict[VarName, VarName]:
        return dict(self.renaming)


# ---------------------------------------------------------------------------
# Tree insertion
# ---------------------------------------------------------------------------


def insert_tree(s: BataninTree, path: TreePath, t: BataninTree) -> BataninTree:
    """Splice t into s along path.

    A singleton path [n] replaces labels n and n+1 and branch n of s by the
    labels and branches of t; a longer path recurses into the sole branch
    of t, which exists by the linear-height condition.
    """
    if not path:
        raise PathInvalid("empty path")
    if linear_height(t) < len(path) - 1:
        raise LinearHeightTooSmall(
            f"linear height {linear_height(t)} < path length {len(path)} - 1"
        )
    overlap = set(all_labels(s)) & set(all_labels(t))
    if overlap:
        raise DuplicateVariable(sorted(overlap)[0], "tree insertion")
    return _splice(s, path, t)


def _splice(s: BataninTree, path: TreePath, t: BataninTree) -> BataninTree:
    n = path[0]
    if len(path) == 1:
        if len(s.labels) == 1:
            if n != 0:
                raise PathInvalid(f"path head {n} in a branchless tree")
            return t
        if n > len(s.labels) - 2:
            raise PathInvalid(f"path head {n} out of range")
        return BataninTree(
            s.labels[:n] + t.labels + s.labels[n + 2 :],
            s.branches[:n] + t.branches + s.branches[n + 1 :],
        )
    if n >= len(s.branches):
        raise PathInvalid(f"path head {n} out of range")
    assert len(t.branches) == 1  # by the linear-height condition
    inner = _splice(s.branches[n], path[1:], t.branches[0])
    return BataninTree(
        s.labels[:n] + t.labels + s.labels[n + 2 :],
        s.branches[:n] + (inner,) + s.branches[n + 1 :],
    )


# ---------------------------------------------------------------------------
# Linear height of a type
# ---------------------------------------------------------------------------


def type_linear_height(ty: Type) -> int:
    """Largest n such that every boundary endpoint of dimension below n is
    a variable; a type with only variable endpoints has its own dimension."""
    n = dim_type(ty)
    for m in range(n):
        if not isinstance(type_boundary(ty, m, NEG), Var):
            return m
        if not isinstance(type_boundary(ty, m, POS), Var):
            return m
    return n


# ---------------------------------------------------------------------------
# Context insertion
# ---------------------------------------------------------------------------


def insert_ctx(problem: InsertionProblem) -> InsertionResult:
    """Insert the inner pasting context in place of a locally maximal cell.

    The inner labels are freshened against every outer label (primes are
    appended) before splicing.  The internal substitution maps each inner
    variable to its fresh image; the external substitution keeps surviving
    outer variables and sends each erased boundary of the cell to the
    matching boundary of the inner coherence.
    """
    outer, x, inner, inner_type = (
        problem.outer,
        problem.var,
        problem.inner,
        problem.inner_type,
    )
    s = ctx_to_tree(outer)
    t = ctx_to_tree(inner)
    path = branching_path(s, x)  # raises NotLocallyMaximal
    if type_linear_height(inner_type) < len(path) - 1:
        raise LinearHeightTooSmall(
            f"inner type has linear height {type_linear_height(inner_type)}, "
            f"need at least {len(path) - 1}"
        )
    taken = set(outer.vars)
    renaming: list[tuple[VarName, VarName]] = []
    for label in inner.vars:
        fresh = fresh_name(label, taken)
        taken.add(fresh)
        renaming.append((label, fresh))
    ren = dict(renaming)
    inserted = tree_to_ctx(insert_tree(s, path, relabel_tree(t, ren)))

    internal = Substitution(tuple((v, Var(ren[v])) for v in inner.vars))
    inner_coh: Term = Coh(inner, inner_type, internal)

    boundary_of_x: dict[VarName, tuple[int, str]] = {}
    dx = dim_term(outer, Var(x))
    for m in range(dx):
        for sign in (NEG, POS):
            b = term_boundary(outer, Var(x), m, sign)
            assert isinstance(b, Var), "pasting context boundaries are variables"
            boundary_of_x[b.name] = (m, sign)
    boundary_of_x[x] = (dx, NEG)

    surviving = set(inserted.vars)
    entries: list[tuple[VarName, Term]] = []
    for y in outer.vars:
        if y in surviving:
            entries.append((y, Var(y)))
        else:
            if y not in boundary_of_x:
                raise MalformedSyntax(
                    f"erased variable '{y}' is not a boundary of '{x}'"
                )
            m, sign = boundary_of_x[y]
            entries.append((y, term_boundary(inserted, inner_coh, m, sign)))
    external = Substitution(tuple(entries))
    return InsertionResult(problem, inserted, internal, external, tuple(renaming))


def insert_sub(
    sigma: Substitution, x: VarName, tau: Substitution, result: InsertionResult
) -> Substitution:
    """Combine argument substitutions through an insertion.

    Variables surviving from the outer context map via sigma, variables
    originating from the inner context map via tau.  The argument at x must
    be the inner coherence applied to tau.
    """
    problem = result.problem
    if x != problem.var:
        raise HeadMismatch(f"insertion was performed at '{problem.var}', not '{x}'")
    expected = Coh(problem.inner, problem.inner_type, tau)
    try:
        actual = sigma.lookup(x)
    except SubstitutionUndefined as exc:
        raise HeadMismatch(f"'{x}' missing from the outer substitution") from exc
    if actual != expected:
        raise HeadMismatch(
            f"argument at '{x}' is not the inner coherence applied to tau"
        )
    from_inner = {new: old for old, new in result.renaming}
    entries: list[tuple[VarName, Term]] = []
    for v in result.inserted.vars:
        if v in from_inner:
            entries.append((v, tau.lookup(from_inner[v])))
        else:
            entries.append((v, sigma.lookup(v)))
    return Substitution(tuple(entries))


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


def _subs_def_eq(ctx: Context, a: Substitution, b: Substitution, def_eq) -> bool:
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
    from .reduction import def_eq  # deferred import; reduction builds on insertion

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
    report.square_commutes = _subs_def_eq(result.inserted, left, right, def_eq)
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
            gamma, compose_sub(xbar, sigma), compose_sub(cohbar, tau), def_eq
        )
        if not cone.commutes:
            cone.messages.append("cone does not commute over the disc")
        try:
            mu = insert_sub(sigma, x, tau, result)
        except HeadMismatch as exc:
            cone.messages.append(str(exc))
            continue
        cone.factors_internal = _subs_def_eq(
            gamma, compose_sub(result.internal, mu), tau, def_eq
        )
        cone.factors_external = _subs_def_eq(
            gamma, compose_sub(result.external, mu), sigma, def_eq
        )

        cone.unique, cone.candidates_checked, cone.pool_size, note = _unique_factorisation(
            gamma, sigma, tau, mu, result, def_eq, max_candidates
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
    def_eq,
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

    from_inner = {new: old for old, new in result.renaming}
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
        ok_int = _subs_def_eq(gamma, compose_sub(result.internal, nu), tau, def_eq)
        ok_ext = _subs_def_eq(gamma, compose_sub(result.external, nu), sigma, def_eq)
        if ok_int and ok_ext:
            if not all(def_eq(gamma, a, b) for a, b in zip(nu.values, mu.values)):
                return False, checked, pool_size, "a distinct factorisation passed"
    return True, checked, pool_size, ""
