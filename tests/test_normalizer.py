"""The direct normaliser against the enumerate-then-pick reference, and
under concurrent use."""

from __future__ import annotations

import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from cattsa.pasting import unbiased_type
from cattsa.reduction import normalize
from cattsa.syntax import STAR, Arr, Coh, Substitution, Var
from cattsa.typecheck import Mode, Session
from helpers import (
    DELTA,
    VERT2,
    WHISKER_L,
    WHISKER_R,
    all_bracketings,
    chain,
    comp2,
    ctx_of_telescope,
    curated_corpus,
    random_corpus,
    reference_normalize,
    unbiased_apply,
    unbiased_term,
)


def _bracketings():
    amb = chain(6, "u", "m")
    leaves = [Var(f"m{i}") for i in range(1, 7)]
    return [(amb, t) for k in range(3, 7) for t in all_bracketings(amb, leaves[:k])]


def _whiskered():
    """Terms over the Delta and whisker trees with composites at the
    two-cell and at the whisker positions."""
    right = ctx_of_telescope(  # [x [f [alpha] g [beta] h] y [c] w [d] z]
        "(x : *) (y : *) (f : x -> y) (g : x -> y) (alpha : f -> g) (h : x -> y)"
        " (beta : g -> h) (w : *) (c : y -> w) (z : *) (d : w -> z)"
    )
    left = ctx_of_telescope(  # [x [c] w [d] y [f [alpha] g [beta] h] z]
        "(x : *) (w : *) (c : x -> w) (y : *) (d : w -> y) (z : *) (f : y -> z) (g : y -> z)"
        " (alpha : f -> g) (h : y -> z) (beta : g -> h)"
    )
    vert_r = unbiased_apply(VERT2, right, [Var("alpha"), Var("beta")])
    vert_l = unbiased_apply(VERT2, left, [Var("alpha"), Var("beta")])
    whisker_r = comp2(right, Var("c"), Var("d"))
    whisker_l = comp2(left, Var("c"), Var("d"))
    sigma = Substitution(
        tuple((v, whisker_r if v == "k" else Var(v)) for v in DELTA.vars)
    )
    return [
        (DELTA, unbiased_term(DELTA)),
        (right, unbiased_apply(WHISKER_R, right, [vert_r, whisker_r])),
        (left, unbiased_apply(WHISKER_L, left, [whisker_l, vert_l])),
        (right, Coh(DELTA, unbiased_type(DELTA), sigma)),
    ]


def _types_and_substitutions():
    amb = chain(4, "u", "m")
    m = [Var(f"m{i}") for i in range(1, 5)]
    nested = comp2(amb, m[0], comp2(amb, m[1], comp2(amb, m[2], m[3])))
    left = comp2(amb, comp2(amb, comp2(amb, m[0], m[1]), m[2]), m[3])
    out = [
        (amb, Arr(nested, Arr(Var("u0"), STAR, Var("u4")), left)),
        (amb, Substitution((("p", nested), ("q", Var("u0")), ("r", left)))),
    ]
    for context, t in curated_corpus():
        out.append((context, Session(Mode.CATT_SA).infer_term(context, t)))
    return out


CASES = {
    "curated": curated_corpus,
    "random": lambda: random_corpus(400, seed=77),
    "bracketings": _bracketings,
    "whiskered": _whiskered,
    "types-and-subs": _types_and_substitutions,
}


@pytest.mark.parametrize("allow", [True, False])
@pytest.mark.parametrize("source", sorted(CASES))
def test_normalize_matches_reference(source, allow):
    cases = CASES[source]()
    assert cases
    steps = 0
    for context, item in cases:
        want_trace: list[str] = []
        got_trace: list[str] = []
        want = reference_normalize(
            context, item, allow_disc_insertion=allow, trace=want_trace
        )
        got = normalize(context, item, allow_disc_insertion=allow, trace=got_trace)
        assert got == want
        assert got_trace == want_trace
        steps += len(got_trace)
    assert steps > 0


def test_concurrent_normalize_matches_sequential():
    cases = curated_corpus() + _bracketings()[:20] + _whiskered()

    def run() -> list:
        out = []
        for context, t in cases:
            trace: list[str] = []
            out.append((normalize(context, t, trace=trace), trace))
        return out

    expected = run()
    results: dict[int, list] = {}
    errors: list[Exception] = []

    def worker(k: int) -> None:
        try:
            results[k] = run()
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert not errors
    assert sorted(results) == list(range(8))
    for got in results.values():
        assert got == expected


IDEMPOTENCE_CORPUS = curated_corpus() + random_corpus(200, seed=41)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(case=st.sampled_from(IDEMPOTENCE_CORPUS), allow=st.booleans())
def test_normalize_is_idempotent(case, allow):
    context, t = case
    nf = normalize(context, t, allow_disc_insertion=allow)
    trace: list[str] = []
    assert normalize(context, nf, allow_disc_insertion=allow, trace=trace) == nf
    assert trace == []


def _contexts(item, out: dict) -> dict:
    """Every context object reachable from item, keyed by id."""
    if isinstance(item, Coh):
        out[id(item.ctx)] = item.ctx
        _contexts(item.ty, out)
        _contexts(item.sub, out)
    elif isinstance(item, Arr):
        for part in (item.src, item.base, item.tgt):
            _contexts(part, out)
    elif isinstance(item, Substitution):
        for _, t in item.entries:
            _contexts(t, out)
    return out


def test_concurrent_normalize_on_cold_memos():
    cases = curated_corpus() + _bracketings()[:20] + _whiskered()

    def run(corpus) -> list:
        out = []
        for context, t in corpus:
            trace: list[str] = []
            out.append((normalize(context, t, trace=trace), trace))
        return out

    # a pickle round trip rebuilds every context with an empty memo and
    # keeps the sharing between terms; the reference copy is built apart
    expected = run(pickle.loads(pickle.dumps(cases)))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            shared = pickle.loads(pickle.dumps(cases))
            contexts: dict = {}
            for context, t in shared:
                contexts[id(context)] = context
                _contexts(t, contexts)
            assert all(
                "_tree" not in c.__dict__ and "_unbiased" not in c.__dict__
                for c in contexts.values()
            )
            start = threading.Barrier(8)
            results: dict[int, list] = {}
            errors: list[Exception] = []

            def worker(k: int) -> None:
                try:
                    start.wait(timeout=60)
                    results[k] = run(shared)
                except Exception as exc:  # reported by the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
                assert not th.is_alive()
            assert not errors
            assert sorted(results) == list(range(8))
            for got in results.values():
                assert got == expected
    finally:
        sys.setswitchinterval(old)
