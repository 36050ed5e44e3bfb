"""The name index of contexts and substitutions, and the write-once memo
of derived data on a context: it gives the same answers as a fresh
computation and stays invisible to ==, hash, repr and pickling."""

from __future__ import annotations

import pickle

import pytest

from cattsa import pasting
from cattsa.errors import (
    DuplicateVariable,
    NotPasting,
    SubstitutionUndefined,
    UnknownVariable,
)
from cattsa.syntax import STAR, Context, Substitution, Var
from cattsa.trees import ctx_to_tree, tree_to_ctx
from helpers import arr, enumerate_trees

MEMO_KEYS = ("_tree", "_pasting_shape")


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
        shape = pasting.shape(fresh)
        assert not _cold(fresh)
        assert shape is not None and shape.tree == t
        # a second call returns the recorded values themselves
        assert ctx_to_tree(fresh) is ctx_to_tree(fresh)
        assert pasting.shape(fresh) is shape
        assert (repr(fresh), hash(fresh)) == before
        assert fresh == emitted and repr(fresh) == repr(emitted)
        loaded = pickle.loads(pickle.dumps(fresh))
        assert loaded == fresh and hash(loaded) == hash(fresh)
        assert _cold(loaded)
        assert ctx_to_tree(loaded) == t


def test_non_pasting_context_raises_on_every_call():
    points = Context((("x", STAR), ("y", STAR), ("z", STAR), ("w", STAR)))
    bad = Context((("x", STAR), ("y", STAR), ("f", arr("y", STAR, "x"))))
    for c in (points, bad, Context()):
        for _ in range(2):
            with pytest.raises(NotPasting):
                ctx_to_tree(c)
        assert pasting.shape(c) is None
        assert pasting.shape(c) is None
        assert "_tree" not in c.__dict__


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
