"""Typing sessions: sharing one changes no verdict or message, and on a
term that elaboration shares the coherence rule runs once per distinct
coherence, not once per occurrence."""

from __future__ import annotations

import sys
import threading

import pytest

from cattsa import cli, typecheck
from cattsa.parser import parse
from cattsa.reduction import normalize
from cattsa.syntax import STAR, Coh
from cattsa.typecheck import Mode, Session
from helpers import count_insertions, curated_corpus, random_corpus, reference_normalize
from test_acceptance import _INVALID_DECLS, _VALID_DEFS, _VALID_HEADER
from test_cli import ASSOC, BAD_TELESCOPES, BOXED, _run_cli

SETTINGS = [(mode, allow) for mode in Mode for allow in (True, False)]


def _corpus():
    return curated_corpus() + random_corpus(120, seed=17)


class _Fresh:
    """Each call judges on a session of its own."""

    def __init__(self, mode: Mode, allow: bool) -> None:
        self.mode, self.allow = mode, allow

    def __getattr__(self, name):
        return getattr(Session(self.mode, allow_disc_insertion=self.allow), name)


def _corpus_verdicts(judge, corpus) -> list:
    """Verdict and message of every judgement on every corpus term: the
    context, inference, a check against the inferred type and against *,
    and equality with the previous term of the same context."""
    out = []
    previous = None
    for c, t in corpus:
        reports = [judge.check_ctx(c), judge.infer_report(c, t)]
        inferred = reports[-1].inferred
        if inferred is not None:
            reports.append(judge.check_type(c, inferred))
            reports.append(judge.check_term(c, t, inferred))
        reports.append(judge.check_term(c, t, STAR))
        if isinstance(t, Coh):
            reports.append(judge.check_sub(c, t.sub, t.ctx))
        out.append([(r.ok, r.message) for r in reports])
        if previous is not None and previous[0] is c:
            out.append(judge.equal(c, previous[1], t))
        previous = (c, t)
    return out


def _file_texts() -> list[str]:
    invalid = [_VALID_HEADER + text for text, _ in _INVALID_DECLS]
    return [ASSOC, BOXED, BAD_TELESCOPES, _VALID_HEADER + _VALID_DEFS, *invalid]


def _declaration_verdicts(session_for, texts) -> list:
    """cli._check_decl on every declaration that elaborates, with the
    session session_for() gives for each."""
    out = []
    for text in texts:
        try:
            env = cli.elaborate_file(parse(text))
        except Exception as exc:  # elaboration errors are not judgements
            out.append(repr(exc))
            continue
        out.extend(cli._check_decl(decl, session_for()) for decl in env.values())
    return out


@pytest.mark.parametrize("mode, allow", SETTINGS)
def test_a_shared_session_changes_no_result(mode, allow):
    corpus, texts = _corpus(), _file_texts()
    fresh = _corpus_verdicts(_Fresh(mode, allow), corpus)
    shared = Session(mode, allow_disc_insertion=allow)
    # twice on one session: the second pass is answered from the memo
    assert _corpus_verdicts(shared, corpus) == fresh
    assert _corpus_verdicts(shared, corpus) == fresh
    assert shared._inferred and shared._heads

    fresh_decls = _declaration_verdicts(lambda: Session(mode, allow_disc_insertion=allow), texts)
    assert any(not ok for ok, _ in fresh_decls if isinstance(ok, bool))
    one = Session(mode, allow_disc_insertion=allow)
    for _ in range(2):
        assert _declaration_verdicts(lambda: one, texts) == fresh_decls


def _in_threads(run, n: int) -> None:
    """run(i) for i < n, each in its own thread, started together and
    switching often."""
    barrier = threading.Barrier(n)

    def start(i: int) -> None:
        barrier.wait(timeout=30)
        run(i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=start, args=(i,)) for i in range(n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)


def test_two_threads_on_one_session_agree_with_fresh_calls():
    # the threads walk the corpus in opposite orders, so each meets memo
    # entries the other is filling
    orders = [_corpus(), _corpus()[::-1]]
    fresh = [_corpus_verdicts(_Fresh(Mode.CATT_SA, True), order) for order in orders]
    shared = Session(Mode.CATT_SA)
    results: list = [None, None]

    def run(i: int) -> None:
        results[i] = _corpus_verdicts(shared, orders[i])

    _in_threads(run, 2)
    assert results == fresh


@pytest.mark.parametrize("mode", list(Mode))
def test_eight_threads_on_one_session_agree_with_fresh_sessions(mode):
    # a unit is two consecutive corpus terms, so that equal is judged too;
    # thread i starts at its own offset and odd threads walk backwards, so
    # every unit is met first by some thread and from the memo by others
    corpus = random_corpus(16, seed=29)
    units = [corpus[k : k + 2] for k in range(len(corpus) - 1)]
    fresh = [_corpus_verdicts(_Fresh(mode, True), unit) for unit in units]
    shared = Session(mode)
    threads = 8
    results: list = [None] * threads

    def run(i: int) -> None:
        order = list(range(len(units)))
        start = i * len(units) // threads
        order = order[start:] + order[:start]
        if i % 2:
            order.reverse()
        seen = {k: _corpus_verdicts(shared, units[k]) for k in order}
        results[i] = [seen[k] for k in range(len(units))]

    _in_threads(run, threads)
    assert results == [fresh] * threads


# ---------------------------------------------------------------------------
# The DAG bound
# ---------------------------------------------------------------------------


def _nested_defs(d: int) -> str:
    """b is a d-fold left-nested endo-composite and c := b [b [b [f]]]:
    elaboration shares each argument of b by object identity, so c is a
    DAG of O(d) coherences that unfolds to a tree of O(d^3)."""
    body = "f"
    for _ in range(d):
        body = f"comp [{body}, f]"
    return (
        "coh comp (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) : x -> z\n"
        f"def b (x : *) (f : x -> x) : x -> x := {body}\n"
        "def c (x : *) (f : x -> x) : x -> x := b [b [b [f]]]\n"
    )


def _coherences(t) -> tuple[int, int]:
    """(distinct, occurrences): the coherence objects reachable through
    arguments, and how many a walk of the term as a tree meets."""
    occurrences: dict[int, int] = {}

    def walk(u) -> int:
        if not isinstance(u, Coh):
            return 0
        if id(u) not in occurrences:
            occurrences[id(u)] = 1 + sum(walk(v) for v in u.sub.values)
        return occurrences[id(u)]

    total = walk(t)
    return len(occurrences), total


@pytest.mark.parametrize("allow", [True, False])
@pytest.mark.parametrize("d", [2, 3])
def test_a_shared_subterm_steps_once_per_occurrence(monkeypatch, d, allow):
    insertions = count_insertions(monkeypatch)
    c = cli.elaborate_file(parse(_nested_defs(d)))["c"]
    want: list[str] = []
    got: list[str] = []
    nf = reference_normalize(c.ctx, c.body, allow_disc_insertion=allow, trace=want)
    insertions.clear()
    assert normalize(c.ctx, c.body, allow_disc_insertion=allow, trace=got) == nf
    assert got == want
    # a shared subterm that reduces is normalised at each occurrence: one
    # insertion per step, as the trace shows
    assert len(insertions) == len(got)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("d", [20, 40, 80])
def test_the_coherence_rule_runs_once_per_distinct_coherence(monkeypatch, mode, d):
    heads = []

    def counting(*args, **kw):
        heads.append(args)
        return normalize(*args, **kw)

    monkeypatch.setattr(typecheck, "normalize", counting)
    c = cli.elaborate_file(parse(_nested_defs(d)))["c"]
    distinct, occurrences = _coherences(c.body)
    assert distinct <= 3 * d + 3 and occurrences > d**3
    session = Session(mode)
    assert session.check_term(c.ctx, c.body, c.ty).ok
    # a coherence-rule evaluation is an infer memo miss, which stores one entry
    evaluations = len(session._inferred)
    assert 0 < evaluations <= distinct
    # every coherence of c has the head of comp: its verdict is reached once
    assert len(heads) == (1 if mode is Mode.CATT_SA else 0)


def test_the_shared_nested_defs_check_at_depth_80(tmp_path):
    path = tmp_path / "nested80.catt"
    path.write_text(_nested_defs(80))
    for mode in ("sa", "catt"):
        proc = _run_cli("check", str(path), "--mode", mode)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == ["coh comp: ok", "def b: ok", "def c: ok"]
