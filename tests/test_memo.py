"""The name index of contexts and substitutions, and the write-once memo
of derived data on a context: it gives the same answers as a fresh
computation and stays invisible to ==, hash, repr and pickling."""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from cattsa import pasting
from cattsa.errors import (
    DuplicateVariable,
    NotPasting,
    SubstitutionUndefined,
    UnknownVariable,
)
from cattsa.insertion import InsertionProblem, insert_ctx
from cattsa.syntax import STAR, Coh, Context, Substitution, Var, identity_sub
from cattsa.trees import cell_table, ctx_to_tree, tree_to_ctx
from helpers import arr, enumerate_trees, tree
from oracles import reference_insert_ctx

MEMO_KEYS = ("_tree", "_cells", "_unbiased")


def _cold(c: Context) -> bool:
    return not any(key in c.__dict__ for key in MEMO_KEYS)


def test_memo_agrees_with_a_fresh_parse_and_is_invisible():
    trees = enumerate_trees(11)
    assert len(trees) == 65
    for t in trees:
        emitted = tree_to_ctx(t)
        assert ctx_to_tree(emitted) == t
        fresh = Context(emitted.entries)
        assert _cold(fresh)
        before = (repr(fresh), hash(fresh))
        assert fresh == emitted and hash(fresh) == hash(emitted)
        assert ctx_to_tree(fresh) == t
        unbiased = pasting.unbiased_type(fresh)
        assert not _cold(fresh) and "_unbiased" in fresh.__dict__
        assert unbiased == pasting._unbiased_type(t)
        # a second call returns the recorded values themselves
        assert ctx_to_tree(fresh) is ctx_to_tree(fresh)
        assert pasting.unbiased_type(fresh) is unbiased
        assert (repr(fresh), hash(fresh)) == before
        assert fresh == emitted and repr(fresh) == repr(emitted)
        loaded = pickle.loads(pickle.dumps(fresh))
        assert loaded == fresh and hash(loaded) == hash(fresh)
        assert _cold(loaded)
        assert ctx_to_tree(loaded) == t


# each read of a context c, given an equal context built from entries
READS = {
    "entries": lambda c, built: c.entries,
    "==": lambda c, built: (c == built, built == c, c != built),
    "hash": lambda c, built: hash(c),
    "str": lambda c, built: str(c),
    "repr": lambda c, built: repr(c),
    "pickle": lambda c, built: (pickle.loads(pickle.dumps(c)) == built, pickle.dumps(c)),
    "ctx_to_tree": lambda c, built: ctx_to_tree(c),
    "lookup": lambda c, built: ([c.lookup(v) for v in c.vars], [c.has(v) for v in c.vars], len(c)),
    "values": lambda c, built: c.values,
}


@pytest.mark.parametrize("read", READS)
def test_an_emitted_context_reads_as_one_built_from_entries(read):
    for t in enumerate_trees(11):
        built = Context(tree_to_ctx(t).entries)
        emitted = tree_to_ctx(t)
        assert "entries" not in emitted.__dict__ and emitted.vars == built.vars
        want = READS[read](built, Context(built.entries))
        assert READS[read](emitted, built) == want  # the first read
        # the tree is kept, and the values and the index are made without the entries
        assert ("entries" in emitted.__dict__) == (read not in ("ctx_to_tree", "values", "lookup"))
        assert READS[read](emitted, built) == want  # and a later one


def test_threads_reading_a_fresh_context_share_one_emission():
    # more threads than cores, switching often: every reader gets the
    # values and the entries the first writer stored, an index built from
    # them, and the cell table the first writer stored
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in enumerate_trees(11):
            emitted, seen = tree_to_ctx(t), []
            gate = threading.Barrier(4, timeout=10)

            def read() -> None:
                gate.wait()
                seen.append((emitted.entries, [emitted.lookup(v) for v in emitted.vars],
                             cell_table(emitted), emitted.values))

            threads = [threading.Thread(target=read) for _ in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
            assert not any(th.is_alive() for th in threads) and len(seen) == 4
            assert all(entries is emitted.entries for entries, _, _, _ in seen)
            assert all(types == [ty for _, ty in emitted.entries] for _, types, _, _ in seen)
            assert all(values is emitted.values for _, _, _, values in seen)
            assert emitted.entries == Context(emitted.entries).entries
            assert emitted.values == Context(emitted.entries).values
            assert all(cells is cell_table(emitted) for _, _, cells, _ in seen)
            assert cell_table(emitted) == cell_table(Context(emitted.entries))
    finally:
        sys.setswitchinterval(interval)


def _arguments(t) -> tuple:
    """Arguments over the emission of t: each variable primed, and the last
    one the unbiased composite of the context."""
    c = tree_to_ctx(t)
    composite = Coh(c, pasting.unbiased_type(c), identity_sub(c))
    return tuple((v, Var(v + "'")) for v in c.vars[:-1]) + ((c.vars[-1], composite),)


def _valued(entries: tuple) -> Substitution:
    """The substitution of entries, given its names and its values in order,
    as insertion, composition and the normaliser build one."""
    return Substitution.deferred(tuple(v for v, _ in entries), values=tuple(t for _, t in entries))


# each read of a substitution s, given an equal one built from entries
SUB_READS = {
    "entries": lambda s, built: s.entries,
    "==": lambda s, built: (s == built, built == s, s != built),
    "hash": lambda s, built: hash(s),
    "str": lambda s, built: str(s),
    "repr": lambda s, built: repr(s),
    "pickle": lambda s, built: (pickle.loads(pickle.dumps(s)) == built, pickle.dumps(s)),
    "lookup": lambda s, built: [s.lookup(v) for v in s.domain],
    "has": lambda s, built: ([s.has(v) for v in s.domain], s.has("%0")),
    "values": lambda s, built: (s.values, len(s)),
}


@pytest.mark.parametrize("read", SUB_READS)
def test_a_substitution_given_its_values_reads_as_one_built_from_entries(read):
    # at the first read and at a later one
    for t in enumerate_trees(11):
        entries = _arguments(t)
        built, valued = Substitution(entries), _valued(entries)
        assert "entries" not in valued.__dict__ and valued.domain == built.domain
        want = SUB_READS[read](built, Substitution(entries))
        assert SUB_READS[read](valued, built) == want
        assert SUB_READS[read](valued, built) == want


def test_values_are_read_once_and_then_shared():
    for t in enumerate_trees(11):
        entries = _arguments(t)
        for s in (Substitution(entries), _valued(entries)):
            first = s.values
            assert s.values is first and first == tuple(term for _, term in entries)
        given = _valued(entries)
        assert "_table" not in given.__dict__  # built on the first lookup, not before
        assert given.lookup(given.domain[-1]) is entries[-1][1] and given.has(given.domain[0])


def test_threads_reading_a_fresh_valued_substitution_share_one_entries():
    # four threads behind a barrier, switching often: all get the entries
    # and the values the first writer stored
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in enumerate_trees(11):
            entries = _arguments(t)
            valued, seen = _valued(entries), []
            gate = threading.Barrier(4, timeout=10)

            def read() -> None:
                gate.wait()
                seen.append((valued.entries, [valued.lookup(v) for v in valued.domain],
                             valued.values))

            threads = [threading.Thread(target=read) for _ in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
            assert not any(th.is_alive() for th in threads) and len(seen) == 4
            assert all(got is valued.entries for got, _, _ in seen)
            assert all(values == [term for _, term in entries] for _, values, _ in seen)
            assert all(values is valued.values for _, _, values in seen)
            assert valued.entries == entries
    finally:
        sys.setswitchinterval(interval)


def test_threads_reading_insertion_maps_and_fresh_contexts_take_no_lock():
    # the external map of a whiskered insertion sends al's 1-boundary to
    # composites, so building it reads the internal map's index; a lookup on
    # a fresh context reads its index, then its entries.  The two build their
    # fields in opposite orders, which deadlocks when a field holds a lock
    # (with one lock per field, about once in a hundred rounds); the chain
    # before al widens the window
    chain = [tree([f"h{i}"]) for i in range(20)]
    outer = tree_to_ctx(tree([f"x{i}" for i in range(21)] + ["y"], chain + [
        tree(["f", "g"], [tree(["al"])]),
    ]))
    inner = tree_to_ctx(tree(["a", "b", "c"], [tree(["p", "q"], [tree(["s"])]), tree(["r"])]))
    problem = InsertionProblem(outer, "al", inner, pasting.unbiased_type(inner))
    want = reference_insert_ctx(problem).external
    trees = [t for t in enumerate_trees(9) if len(t.labels) > 1]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in trees * 50:
            result, fresh, seen = insert_ctx(problem), tree_to_ctx(t), []
            gate = threading.Barrier(5, timeout=10)

            def read_external() -> None:
                gate.wait()
                seen.append(result.external.entries == want.entries)

            def look_up_external() -> None:  # reads the internal map's index, not external's
                gate.wait()
                images = [result.external.lookup(v) for v in outer.vars]
                seen.append(images == [term for _, term in want.entries])

            def look_up() -> None:
                gate.wait()
                types = [fresh.lookup(v) for v in fresh.vars]
                seen.append(types == [ty for _, ty in fresh.entries])

            readers = (read_external, look_up) * 2 + (look_up_external,)
            threads = [threading.Thread(target=f, daemon=True) for f in readers]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
            assert not any(th.is_alive() for th in threads) and seen == [True] * 5
    finally:
        sys.setswitchinterval(interval)


def test_non_pasting_context_raises_on_every_call():
    points = Context((("x", STAR), ("y", STAR), ("z", STAR), ("w", STAR)))
    bad = Context((("x", STAR), ("y", STAR), ("f", arr("y", STAR, "x"))))
    for c in (points, bad, Context()):
        for _ in range(2):
            for judge in (ctx_to_tree, cell_table, pasting.unbiased_type):
                with pytest.raises(NotPasting):
                    judge(c)
        assert _cold(c)


def test_index_lookup_and_membership():
    c = Context((("x", STAR), ("y", STAR), ("f", arr("x", STAR, "y"))))
    assert c.vars == ("x", "y", "f")
    assert c.lookup("f") == arr("x", STAR, "y")
    assert c.has("y") and not c.has("g")
    with pytest.raises(UnknownVariable) as exc:
        c.lookup("g")
    assert str(exc.value) == "unknown variable 'g' in context"
    s = Substitution((("x", Var("a")), ("y", Var("b"))))
    assert s.domain == ("x", "y")
    assert s.values == (Var("a"), Var("b"))
    assert s.lookup("y") == Var("b")
    assert s.has("x") and not s.has("a")
    with pytest.raises(SubstitutionUndefined) as exc2:
        s.lookup("z")
    assert str(exc2.value) == "substitution has no entry for 'z'"
    assert s.replace(0, Var("c")).lookup("x") == Var("c")
    assert c.extend("g", arr("x", STAR, "y")).lookup("g") == arr("x", STAR, "y")


def test_a_table_built_from_any_iterable_is_the_one_built_from_a_tuple():
    entries = (("x", STAR), ("y", STAR), ("f", arr("x", STAR, "y")))
    args = (("x", Var("a")), ("y", Var("b")), ("f", Var("p")))
    for cls, pairs in ((Context, entries), (Substitution, args)):
        want = cls(pairs)
        for got in (cls(list(pairs)), cls(iter(pairs)), cls(p for p in pairs)):
            assert got == want and hash(got) == hash(want) and len(got) == len(want)
            assert got.entries == pairs and type(got.entries) is tuple
    ctx = Context(entries)
    ty = arr("x", STAR, "y")
    want = Coh(ctx, ty, Substitution(args))
    for got in (Coh(Context(list(entries)), ty, Substitution(list(args))),
                Coh(ctx, ty, Substitution(iter(args)))):
        assert got == want and hash(got) == hash(want)


def test_duplicates_name_the_first_repeated_entry():
    with pytest.raises(DuplicateVariable) as exc:
        Context((("a", STAR), ("b", STAR), ("b", STAR), ("a", STAR)))
    assert str(exc.value) == "duplicate variable 'b' in context"
    with pytest.raises(DuplicateVariable) as exc2:
        Substitution((("p", Var("u")), ("q", Var("v")), ("p", Var("w"))))
    assert str(exc2.value) == "duplicate variable 'p' in substitution"


def test_pickle_round_trip_of_substitutions_and_index():
    s = Substitution((("x", Var("a")), ("y", Var("b"))))
    loaded = pickle.loads(pickle.dumps(s))
    assert loaded == s and hash(loaded) == hash(s) and repr(loaded) == repr(s)
    assert loaded.lookup("y") == Var("b") and loaded.domain == s.domain
