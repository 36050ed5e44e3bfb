"""Insertion that shares what it does not change, against the reference
that builds everything afresh (oracles.reference_insert_ctx and
reference_insert_sub), and the error contract of the oracle's insert_sub,
which the normaliser no longer calls."""

from __future__ import annotations

import pickle
from copy import deepcopy

import pytest

from cattsa.errors import MalformedSyntax, SubstitutionUndefined
from cattsa.insertion import (
    InsertionProblem,
    insert_ctx,
    type_linear_height,
)
from cattsa.pasting import unbiased_type
from cattsa.reduction import _eligible_heads, _insert_at, normalize
from cattsa.syntax import (
    STAR,
    Arr,
    Coh,
    Substitution,
    Var,
    apply_sub_type,
    dim_term,
    free_vars,
    identity_sub,
    term_str,
)
from cattsa.trees import (
    all_labels,
    ctx_to_tree,
    linear_height,
    relabel_tree,
    tree_depth,
    tree_to_ctx,
)
from helpers import CHAIN2, chain, ctx_of_telescope, enumerate_trees
from oracles import (
    HeadMismatch,
    branching_height,
    insert_sub,
    leaf_labels,
    reference_insert_ctx,
    reference_insert_sub,
    relabel_whole,
)

TREES = enumerate_trees(9)


def _named(t, scheme: str):
    """t with the label at emission position i renamed by scheme: inner
    labels that collide with the canonical outer names v0, v1, ... in part,
    and chains of primes such as z, z', z'' in either order, and the first
    half canonical with the second half the same names primed."""
    names = all_labels(t)
    k = len(names)
    pick = {
        "canonical": lambda i: names[i],
        "chain": lambda i: "z" + "'" * i,
        "chain-reversed": lambda i: "z" + "'" * (k - 1 - i),
        "shifted": lambda i: f"v{i + 1}" if i % 2 == 0 else f"w{i}",
        "primed": lambda i: f"v{i}" + "'" * (i % 3),
        "mixed": lambda i: ("z'" if i == 0 else "z" if i == k - 1 else f"v{i}'"),
        "half-primed": lambda i: f"v{i}" if i < (k + 1) // 2 else f"v{i - (k + 1) // 2}'",
    }[scheme]
    return relabel_whole(t, {v: pick(i) for i, v in enumerate(names)})


def _outer_named(t, scheme: str):
    """The outer tree with canonical names, or with z and z'' among them."""
    names = all_labels(t)
    if scheme == "canonical" or len(names) < 3:
        return t
    return relabel_whole(t, {names[-1]: "z", names[1]: "z''"})


SCHEMES = ("canonical", "chain", "chain-reversed", "shifted", "primed", "mixed", "half-primed")


def _problems():
    """Every insertion problem over TREES: each outer, each locally maximal
    cell, each inner of that cell's dimension and enough linear height."""
    by_depth: dict[int, list] = {}
    for t in TREES:
        by_depth.setdefault(tree_depth(t), []).append(t)
    for s in TREES:
        for outer_scheme in ("canonical", "z"):
            outer = tree_to_ctx(_outer_named(s, outer_scheme))
            for x in leaf_labels(ctx_to_tree(outer)):
                dx = dim_term(outer, Var(x))
                if dx == 0:
                    continue
                bh = branching_height(ctx_to_tree(outer), x)
                for t in by_depth.get(dx, []):
                    if linear_height(t) < bh:
                        continue
                    for scheme in SCHEMES:
                        inner = tree_to_ctx(_named(t, scheme))
                        a = unbiased_type(inner)
                        if type_linear_height(a) >= bh:
                            yield InsertionProblem(outer, x, inner, a), bh + 1


def _half_primed_chain(k: int) -> InsertionProblem:
    """The half-primed insertion of tests/scaling_probe.py: a chain of k
    arrows named v0, ... then v0', ..., inserted at the first arrow of a
    chain of k arrows named v0, v1, ..."""
    s = ctx_to_tree(chain(k))
    s = relabel_whole(s, {v: f"v{i}" for i, v in enumerate(all_labels(s))})
    outer, inner = tree_to_ctx(s), tree_to_ctx(_named(s, "half-primed"))
    return InsertionProblem(outer, outer.vars[2], inner, unbiased_type(inner))


def _sigma(problem: InsertionProblem, tau: Substitution) -> Substitution:
    """An outer argument substitution whose argument at the cell is the
    inner coherence applied to tau, and a distinct variable elsewhere."""
    coh = Coh(problem.inner, problem.inner_type, tau)
    return Substitution(tuple(
        (v, coh if v == problem.var else Var(v + "_o")) for v in problem.outer.vars
    ))


def test_sharing_insertion_agrees_with_the_reference():
    lengths: dict[int, int] = {}
    for problem, length in [*_problems(), (_half_primed_chain(64), 1)]:
        got, want = insert_ctx(problem), reference_insert_ctx(problem)
        assert got.inserted.entries == want.inserted.entries
        assert ctx_to_tree(got.inserted) == ctx_to_tree(want.inserted)
        assert got.internal.entries == want.internal.entries
        assert got.external.entries == want.external.entries
        tau = Substitution(tuple((v, Var(v + "_i")) for v in problem.inner.vars))
        sigma = _sigma(problem, tau)
        assert insert_sub(sigma, problem.var, tau, got) == reference_insert_sub(
            sigma, problem.var, tau, want
        )
        # the same argument built again, so the identity test fails and == decides
        rebuilt = Substitution(tuple(
            (v, Coh(problem.inner, problem.inner_type, Substitution(tau.entries)))
            if v == problem.var else (v, t) for v, t in sigma.entries
        ))
        assert insert_sub(rebuilt, problem.var, tau, got) == insert_sub(
            sigma, problem.var, tau, got
        )
        assert insert_sub(got.external, problem.var, got.internal, got) == identity_sub(
            got.inserted
        )
        lengths[length] = lengths.get(length, 0) + 1
    assert set(lengths) == {1, 2, 3}
    assert min(lengths.values()) >= 20


def _redexes():
    """Each outer tree over TREES with its unbiased composite, a locally
    maximal cell x and an unbiased inner composite at x, over the
    canonical names that every tree shares, and each disc setting under
    which the normaliser inserts there."""
    for s in TREES:
        outer = tree_to_ctx(s)
        for x in leaf_labels(s):
            for t in (t for t in TREES if tree_depth(t) == dim_term(outer, Var(x))):
                inner = tree_to_ctx(t)
                tau = Substitution(tuple((v, Var(v + "_i")) for v in inner.vars))
                arg = Coh(inner, unbiased_type(inner), tau)
                sigma = Substitution(tuple(
                    (v, arg if v == x else Var(v + "_o")) for v in outer.vars
                ))
                head = Coh(outer, unbiased_type(outer), sigma)
                for allow in (True, False):
                    if (x, arg) in _eligible_heads(head, allow):
                        yield head, x, allow


def test_the_lazily_built_reduct_is_the_eager_one():
    settings, count = set(), 0
    for head, x, allow in _redexes():
        arg = head.sub.lookup(x)
        problem = InsertionProblem(head.ctx, x, arg.ctx, arg.ty)
        want = reference_insert_ctx(problem)
        eager = Coh(
            want.inserted,
            apply_sub_type(head.ty, want.external),
            reference_insert_sub(head.sub, x, arg.sub, want),
        )
        got = _insert_at(head, x, arg)
        assert got == eager and term_str(got) == term_str(eager)
        lazy = insert_ctx(problem)
        assert all("entries" not in c.__dict__ for c in lazy[1:])  # built on first read
        for v in free_vars(head.ty):
            assert lazy.external.lookup(v) == want.external.lookup(v)
        assert "entries" not in lazy.external.__dict__  # lookup builds no table
        assert "_table" not in lazy.external.__dict__
        assert lazy.internal == want.internal and lazy.external == want.external
        assert lazy == want and repr(lazy) == repr(want)
        assert pickle.loads(pickle.dumps(lazy)) == want
        settings.add(allow)
        count += 1
    assert settings == {True, False} and count == 432


def test_a_copied_result_restricts_and_combines_as_the_original():
    # a pickled or deep-copied result holds built substitutions, with no
    # lookup of insert_ctx's: its external map's lookup reads the table
    count = 0
    for head, x, _ in _redexes():
        arg = head.sub.lookup(x)
        result = insert_ctx(InsertionProblem(head.ctx, x, arg.ctx, arg.ty))
        combined = insert_sub(head.sub, x, arg.sub, result)
        copies = (pickle.loads(pickle.dumps(result)), deepcopy(result))
        for external in (result.external, *(copy.external for copy in copies)):
            with pytest.raises(SubstitutionUndefined) as err:
                external.lookup("nope")  # a name outside the outer context
            assert err.value.name == "nope"
        for copy in copies:
            assert copy == result and "lookup" not in copy.external.__dict__
            for names in (free_vars(head.ty), head.ctx.vars):
                for v in names:
                    assert copy.external.lookup(v) == result.external.lookup(v)
            assert insert_sub(head.sub, x, arg.sub, copy) == combined
        count += 1
    assert count == 432


def test_a_head_type_outside_its_context_does_not_reduce():
    # the head type names nope, which is not in chain(2): the external map
    # is undefined there, so normalize raises rather than carry nope into
    # the reduct's type
    comp = Coh(CHAIN2, unbiased_type(CHAIN2), identity_sub(CHAIN2))
    args = (Var("x0"), Var("x1"), comp, Var("x2"), Var("a2"))
    head = Coh(CHAIN2, Arr(Var("x0"), STAR, Var("nope")),
               Substitution(tuple(zip(CHAIN2.vars, args))))
    assert term_str(head) == f"coh {{ {CHAIN2} : x0 -> nope }} [x0, x1, {comp}, x2, a2]"
    with pytest.raises(SubstitutionUndefined) as err:
        normalize(CHAIN2, head)
    assert err.value.name == "nope"


def test_a_reducts_names_need_no_check():
    # the splice is emitted without a distinctness check: its labels are
    # distinct, are those of the spliced tree, and are the reference's
    for head, x, _ in _redexes():
        arg = head.sub.lookup(x)
        want = reference_insert_ctx(InsertionProblem(head.ctx, x, arg.ctx, arg.ty))
        got = _insert_at(head, x, arg).ctx
        names = got.vars
        assert len(set(names)) == len(names)
        assert names == all_labels(ctx_to_tree(got))
        assert names == all_labels(ctx_to_tree(want.inserted)) == want.inserted.vars


def _loaded_heads():
    """Each outer tree over TREES with its unbiased composite, and at every
    locally maximal cell of dimension above 0 an unbiased composite over
    the first or the last tree of that dimension, with variables as its
    arguments, so normal; a variable at every other cell."""
    by_depth: dict[int, list] = {}
    for t in TREES:
        by_depth.setdefault(tree_depth(t), []).append(t)
    for s in TREES:
        outer = tree_to_ctx(s)
        for pick in (0, -1):
            args = {}
            for x in leaf_labels(s):
                if (d := dim_term(outer, Var(x))) > 0:
                    inner = tree_to_ctx(by_depth[d][pick])
                    tau = Substitution(tuple((v, Var(v + "_" + x)) for v in inner.vars))
                    args[x] = Coh(inner, unbiased_type(inner), tau)
            sigma = Substitution(tuple((v, args.get(v, Var(v + "_o"))) for v in outer.vars))
            yield Coh(outer, unbiased_type(outer), sigma)


def test_a_reducts_redexes_are_its_heads_later_ones():
    # what lets the normaliser fire its head's redexes in turn without
    # looking for more: a scan of every cell of each reduct finds the rest
    steps, later = 0, 0
    for head in _loaded_heads():
        for allow in (True, False):
            t, cells = head, list(_eligible_heads(head, allow))
            while cells:
                (x, arg), *cells = cells
                t = _insert_at(t, x, arg)
                assert list(_eligible_heads(t, allow)) == cells
                steps, later = steps + 1, later + bool(cells)
    assert steps == 116 and later == 61


def test_only_colliding_labels_are_renamed():
    names_renamed = 0
    for problem, _ in _problems():
        res = insert_ctx(problem)
        outer = set(problem.outer.vars)
        for v, image in res.internal.entries:
            if image.name != v:
                names_renamed += 1
                # renamed because an outer label or an earlier image has the name
                earlier = {w.name for u, w in res.internal.entries[: problem.inner.vars.index(v)]}
                assert v in outer or v in earlier
    assert names_renamed > 0


def test_relabelling_shares_the_subtrees_without_a_renamed_label():
    t = ctx_to_tree(tree_to_ctx(_named(TREES[-1], "canonical")))
    inner = tree_to_ctx(t)
    last = inner.vars[-1]
    new = relabel_tree(t, {last: last + "'"})
    assert new == relabel_whole(t, {last: last + "'"})
    # only the branches on the way to the renamed label are new objects
    unchanged = [br for br in t.branches if last not in all_labels(br)]
    assert all(any(br is nb for nb in new.branches) for br in unchanged)
    assert relabel_tree(t, {}) is t


# ---------------------------------------------------------------------------
# The error contract of the oracle's insert_sub
# ---------------------------------------------------------------------------


def _chain_setup():
    outer, inner = chain(2, "x", "a"), chain(2, "y", "b")
    problem = InsertionProblem(outer, "a2", inner, unbiased_type(inner))
    tau = Substitution(tuple((v, Var(v + "_i")) for v in inner.vars))
    return problem, insert_ctx(problem), reference_insert_ctx(problem), tau


def test_a_sigma_missing_a_surviving_variable_raises():
    problem, got, want, tau = _chain_setup()
    sigma = _sigma(problem, tau)
    short = Substitution(tuple((v, t) for v, t in sigma.entries if v != "a1"))
    with pytest.raises(SubstitutionUndefined) as exc:
        insert_sub(short, "a2", tau, got)
    assert exc.value.name == "a1"
    with pytest.raises(SubstitutionUndefined):
        reference_insert_sub(short, "a2", tau, want)


def test_a_tau_in_another_order_fails_as_before():
    problem, got, want, tau = _chain_setup()
    sigma = _sigma(problem, tau)
    permuted = Substitution(tuple(reversed(tau.entries)))
    with pytest.raises(MalformedSyntax):
        reference_insert_sub(sigma, "a2", permuted, want)
    with pytest.raises(MalformedSyntax):
        insert_sub(sigma, "a2", permuted, got)
    # and without the argument at the cell, the order is still checked first
    no_cell = Substitution(tuple((v, t) for v, t in sigma.entries if v != "a2"))
    with pytest.raises(MalformedSyntax):
        reference_insert_sub(no_cell, "a2", permuted, want)
    with pytest.raises(MalformedSyntax):
        insert_sub(no_cell, "a2", permuted, got)


def test_an_argument_other_than_the_inner_coherence_raises():
    problem, got, want, tau = _chain_setup()
    sigma = _sigma(problem, tau)
    other_tau = Substitution(tuple((v, Var(v + "_j")) for v in problem.inner.vars))
    for bad in (Var("u"), Coh(problem.inner, problem.inner_type, other_tau)):
        wrong = Substitution(tuple((v, bad if v == "a2" else t) for v, t in sigma.entries))
        for insert, result in ((insert_sub, got), (reference_insert_sub, want)):
            with pytest.raises(HeadMismatch):
                insert(wrong, "a2", tau, result)
    missing = Substitution(tuple((v, t) for v, t in sigma.entries if v != "a2"))
    with pytest.raises(HeadMismatch):
        insert_sub(missing, "a2", tau, got)
    with pytest.raises(HeadMismatch):
        insert_sub(sigma, "a1", tau, got)


def test_an_inner_tree_too_shallow_for_the_path_raises():
    # the inner type has variable boundaries up to dimension 2, so only the
    # inner tree, which branches at once, is too shallow for gamma's path
    from cattsa.errors import LinearHeightTooSmall
    from cattsa.syntax import STAR, Arr

    outer = ctx_of_telescope(  # [x [f [m [gamma] n [delta] o] g] y]
        "(x : *) (y : *) (f : x -> y) (g : x -> y) (m : f -> g) (n : f -> g) (gamma : m -> n)"
        " (o : f -> g) (delta : n -> o)"
    )
    inner = chain(2, "u", "b")
    deep = Arr(Var("p"), Arr(Var("q"), Arr(Var("u0"), STAR, Var("u2")), Var("r")), Var("s"))
    problem = InsertionProblem(outer, "gamma", inner, deep)
    assert type_linear_height(deep) == 3
    for insert in (insert_ctx, reference_insert_ctx):
        with pytest.raises(LinearHeightTooSmall):
            insert(problem)
