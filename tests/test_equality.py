"""== and hash on coherences ignore the names their contexts bind.

The oracle is helpers.canonical_term, a positional key that builds no
kernel objects.  Each hypothesis example renames every bound context of
the corpus apart with its own seeded injective renaming.
"""

from __future__ import annotations

import functools
import pickle
import random
import sys
import threading

from hypothesis import given, settings, strategies as st

from cattsa.syntax import Arr, Coh, Context, Star, Substitution, Var, term_str
from helpers import all_bracketings, canonical_term, chain, curated_corpus, random_corpus
from oracles import step_candidates

SEEDS = settings(derandomize=True, deadline=None, max_examples=12)


@functools.lru_cache(maxsize=None)
def corpus() -> tuple[Coh, ...]:
    """The curated and random corpora plus every one-step reduct."""
    base = curated_corpus() + random_corpus(200, seed=41)
    terms = [t for _, t in base]
    for context, t in base:
        terms += [r for _, r in step_candidates(context, t)]
    assert all(isinstance(t, Coh) for t in terms)
    return tuple(terms)


def rename_apart(t, rng: random.Random, env: dict | None = None):
    """A copy of t in which every coherence binds fresh names, chosen by a
    random injective renaming per context; free variables are kept."""
    env = env or {}
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
    nonce = rng.randrange(10**6)
    slots = list(range(len(t.ctx)))
    rng.shuffle(slots)
    ren = {v: f"b{nonce}_{j}" for v, j in zip(t.ctx.vars, slots)}
    return Coh(
        Context(tuple((ren[v], _rename_type(ty, rng, ren)) for v, ty in t.ctx.entries)),
        _rename_type(t.ty, rng, ren),
        Substitution(tuple((ren[v], rename_apart(u, rng, env)) for v, u in t.sub.entries)),
    )


def _rename_type(ty, rng: random.Random, env: dict):
    if isinstance(ty, Star):
        return ty
    return Arr(
        rename_apart(ty.src, rng, env),
        _rename_type(ty.base, rng, env),
        rename_apart(ty.tgt, rng, env),
    )


@SEEDS
@given(seed=st.integers(0, 2**32 - 1))
def test_renamed_apart_copy_is_equal_with_the_same_hash(seed):
    rng = random.Random(seed)
    for t in corpus():
        copy = rename_apart(t, rng)
        assert copy.ctx.vars != t.ctx.vars
        assert term_str(copy) != term_str(t)
        assert copy == t and t == copy
        assert hash(copy) == hash(t)


@settings(SEEDS, max_examples=3)
@given(seed=st.integers(0, 2**32 - 1))
def test_equality_agrees_with_the_positional_key_pairwise(seed):
    rng = random.Random(seed)
    terms = corpus()
    copies = [rename_apart(t, rng) for t in terms]
    keys = [canonical_term(t) for t in terms]
    for a, ka in zip(terms, keys):
        for b, b_apart, kb in zip(terms, copies, keys):
            same = ka == kb
            assert (a == b) == same
            assert (a == b_apart) == same
            if same:
                assert hash(a) == hash(b_apart)


@SEEDS
@given(seed=st.integers(0, 2**32 - 1))
def test_distinct_bracketings_stay_unequal(seed):
    rng = random.Random(seed)
    amb = chain(5, "u", "m")
    terms = all_bracketings(amb, [Var(f"m{i}") for i in range(1, 6)])
    assert len(terms) == 14
    copies = [rename_apart(t, rng) for t in terms]
    for i, a in enumerate(terms):
        for j, b in enumerate(copies):
            assert (a == b) == (i == j)
    assert Var("x") != Var("x'")


@SEEDS
@given(seed=st.integers(0, 2**32 - 1))
def test_pickled_coherence_round_trips_equal_with_a_cold_memo(seed):
    rng = random.Random(seed)
    for t in rng.sample(corpus(), 40):
        hash(t)  # fills t's memo
        back = pickle.loads(pickle.dumps(t))
        assert set(vars(back)) == {"ctx", "ty", "sub"}
        assert back == rename_apart(t, rng)
        assert back == t and hash(back) == hash(t)
        assert repr(back) == repr(t)


def test_concurrent_equality_on_cold_memos():
    # eight threads fill the same cold shape memos at once; every racing
    # thread computes an equal shape, so every comparison must still hold
    terms = pickle.loads(pickle.dumps(corpus()))
    rng = random.Random(7)
    copies = [rename_apart(t, rng) for t in terms]
    barrier = threading.Barrier(8)
    results: list = [None] * 8

    def work(i: int) -> None:
        barrier.wait(timeout=30)
        results[i] = all(a == b and hash(a) == hash(b) for a, b in zip(terms, copies))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 8
