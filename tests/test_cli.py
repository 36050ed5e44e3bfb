"""The command-line front end: elaboration, commands, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import types

import pytest

import cattsa
from cattsa import cli, reduction
from cattsa.parser import MAX_NESTING, parse
from cattsa.syntax import Var, alpha_eq
from cattsa.typecheck import Mode, Session
from helpers import comp2

HEADER = """
coh comp (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) : x -> z
coh comp3 (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) (w : *) (h : z -> w) : x -> w
"""

ASSOC = HEADER + """
def left  (x : *) (y : *) (a : x -> y) (z : *) (b : y -> z) (w : *) (c : z -> w) : x -> w := comp [comp [a, b], c]
def right (x : *) (y : *) (a : x -> y) (z : *) (b : y -> z) (w : *) (c : z -> w) : x -> w := comp [a, comp [b, c]]
def flat  (x : *) (y : *) (a : x -> y) (z : *) (b : y -> z) (w : *) (c : z -> w) : x -> w := comp3 [a, b, c]
"""


@pytest.fixture()
def assoc_file(tmp_path):
    p = tmp_path / "assoc.catt"
    p.write_text(ASSOC)
    return str(p)


def test_elaborated_application_matches_hand_built_term():
    env = cli.elaborate_file(parse(ASSOC))
    amb = env["right"].ctx
    got = env["right"].body
    a, b, c = Var("a"), Var("b"), Var("c")
    expected = comp2(amb, a, comp2(amb, b, c))
    assert got is not None and alpha_eq(got, expected)


def test_elaboration_rejects_unknown_application_head():
    with pytest.raises(Exception):
        cli.elaborate_file(parse("def t (x : *) : x -> x := nothere [x]"))


def test_elaboration_arity_errors():
    with pytest.raises(Exception):
        cli.elaborate_file(parse(HEADER + "def t (x : *) : x -> x := comp [x]"))


def test_check_command(assoc_file, capsys):
    assert cli.main(["check", assoc_file]) == 0
    out = capsys.readouterr().out
    assert "coh comp: ok" in out and "def flat: ok" in out


def test_eq_command_modes(assoc_file, capsys):
    assert cli.main(["eq", assoc_file, "left", "right"]) == 0
    assert capsys.readouterr().out.strip() == "equal"
    assert cli.main(["eq", assoc_file, "left", "right", "--mode", "catt"]) == 1
    assert capsys.readouterr().out.strip() == "not equal"
    assert cli.main(["eq", assoc_file, "left", "flat"]) == 0


def test_normalize_command_agrees_with_kernel(assoc_file, capsys):
    assert cli.main(["normalize", assoc_file, "left"]) == 0
    printed = capsys.readouterr().out.strip()
    env = cli.elaborate_file(parse(ASSOC))
    decl = env["left"]
    assert decl.body is not None
    from cattsa.syntax import term_str

    assert printed == term_str(reduction.normalize(decl.ctx, decl.body))


def test_normalize_catt_mode_checks_in_catt_and_prints_the_sa_normal_form(tmp_path, capsys):
    # mixed is well typed only up to associativity: its second identity
    # cell starts at the right bracketing where vert expects the left one
    p = tmp_path / "modes.catt"
    p.write_text(ASSOC + """
coh id (x : *) (y : *) (f : x -> y) : f -> f
coh vert (x : *) (y : *) (f : x -> y) (g : x -> y) (m : f -> g) (h : x -> y) (n : g -> h) : f -> h
def mixed (x : *) (y : *) (a : x -> y) (z : *) (b : y -> z) (w : *) (c : z -> w)
  : comp [comp [a, b], c] -> comp [a, comp [b, c]]
  := vert [id [comp [comp [a, b], c]], id [comp [a, comp [b, c]]]]
""")
    for name in ("left", "mixed"):
        assert cli.main(["normalize", str(p), name, "--trace"]) == 0
        sa_out = capsys.readouterr().out
        if name == "left":
            assert cli.main(["normalize", str(p), name, "--trace", "--mode", "catt"]) == 0
            assert capsys.readouterr().out == sa_out
        else:
            assert cli.main(["normalize", str(p), name, "--mode", "catt"]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "has type" in captured.err


def test_normalize_trace(assoc_file, capsys):
    assert cli.main(["normalize", assoc_file, "right", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "insertion at head:" in out


def test_normalize_collects_a_trace_only_when_it_is_shown(assoc_file, capsys, monkeypatch):
    calls = []

    def spy(*args, **kw):
        calls.append(kw["trace"])
        return reduction.normalize(*args, **kw)

    # only the CLI's own calls are seen: def_eq reaches the real normalize
    monkeypatch.setattr(cli, "reduction", types.SimpleNamespace(normalize=spy))
    outputs = []
    for flags in ([], ["--trace"], ["--json"]):
        assert cli.main(["normalize", assoc_file, "right", *flags]) == 0
        outputs.append(capsys.readouterr().out)
    assert calls[0] is None and calls[1] and calls[2] == calls[1]
    plain, traced, report = outputs[0], outputs[1].splitlines(), json.loads(outputs[2])
    assert plain == traced[-1] + "\n"
    assert traced[-2].endswith(" ⇝ " + traced[-1])
    assert report["trace"] == traced[:-1] and report["normal_form"] == traced[-1]


def test_infer_command(assoc_file, capsys):
    assert cli.main(["infer", assoc_file, "left"]) == 0
    assert capsys.readouterr().out.strip() == "x -> w"


def test_tree_command(assoc_file, capsys):
    assert cli.main(["tree", assoc_file, "comp3"]) == 0
    assert capsys.readouterr().out.strip() == "[x [f] y [g] z [h] w]"


def test_tree_literal(capsys):
    code = cli.main(
        ["tree", "--context", "(x : *) (y : *) (f : x -> y) (g : x -> y) (m : f -> g)"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "[x [f [m] g] y]"


def test_a_telescope_repeats_no_name_in_a_file_or_a_literal(tmp_path, capsys):
    # one elaboration of telescopes: the literal gets the file's check, with no position
    p = tmp_path / "dup.catt"
    p.write_text("coh dup (x : *) (x : *) : x -> x\n")
    assert cli.main(["tree", str(p), "dup"]) == 1
    assert capsys.readouterr().err == "error: 1:1: duplicate telescope variable 'x'\n"
    assert cli.main(["tree", "--context", "(x : *) (x : *)"]) == 1
    assert capsys.readouterr().err == "error: duplicate telescope variable 'x'\n"


def test_tree_insert(assoc_file, capsys):
    code = cli.main(["tree", assoc_file, "comp", "--insert", "g", "--inner", "comp"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "[x [f] x' [f'] y' [g'] z']"


def test_json_output(assoc_file, capsys):
    def run(*argv: str) -> dict:
        assert cli.main([*argv, "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    doc = run("eq", assoc_file, "left", "right")
    assert list(doc) == ["command", "mode", "names", "equal"]
    assert doc["equal"] is True and doc["mode"] == "sa"
    doc = run("check", assoc_file)
    assert list(doc) == ["command", "mode", "ok", "results"]
    assert doc["ok"] is True and len(doc["results"]) == 5
    assert all(list(r) == ["name", "ok", "line", "col", "message"] for r in doc["results"])
    doc = run("normalize", assoc_file, "right")
    assert list(doc) == ["command", "mode", "name", "normal_form", "trace"]
    assert doc["normal_form"].startswith("coh {")
    assert len(doc["trace"]) == 1 and "insertion at head" in doc["trace"][0]
    doc = run("infer", assoc_file, "left")
    assert doc == {"command": "infer", "mode": "sa", "name": "left", "type": "x -> w"}
    assert list(doc) == ["command", "mode", "name", "type"]
    doc = run("tree", assoc_file, "comp3")
    assert doc == {"command": "tree", "tree": "[x [f] y [g] z [h] w]"}
    assert list(doc) == ["command", "tree"]
    doc = run("tree", assoc_file, "comp", "--insert", "g", "--inner", "comp")
    assert doc == {
        "command": "tree",
        "outer": "[x [f] y [g] z]",
        "inner": "[x [f] y [g] z]",
        "at": "g",
        "inserted": "[x [f] x' [f'] y' [g'] z']",
    }
    assert list(doc) == ["command", "outer", "inner", "at", "inserted"]


DIMENSIONS = HEADER + """
coh vid (x : *) (y : *) (f : x -> y) (g : x -> y) (a : f -> g) : a -> a
"""


@pytest.mark.parametrize(
    "outer, var, inner, dims",
    [("comp", "f", "vid", (2, 1)), ("vid", "a", "comp", (1, 2))],
    ids=["2-cell-at-a-1-cell", "1-cell-at-a-2-cell"],
)
def test_tree_insert_needs_an_inner_coherence_of_the_variables_dimension(
    tmp_path, capsys, outer, var, inner, dims
):
    p = tmp_path / "dims.catt"
    p.write_text(DIMENSIONS)
    message = f"error: inner coherence has dimension {dims[0]}, '{var}' has dimension {dims[1]}\n"
    for extra in ([], ["--json"]):
        assert cli.main(["tree", str(p), outer, "--insert", var, "--inner", inner, *extra]) == 1
        assert capsys.readouterr() == ("", message)


SHALLOW_TREE = """
coh g3 (x : *) (y : *) (f : x -> y) (g : x -> y) (al : f -> g) (be : f -> g) (gamma : al -> be) (ep : f -> g) (de : be -> ep) : al -> ep
coh vc (a : *) (b : *) (p : a -> b) (q : a -> b) (s : p -> q) (r : a -> b) (v : q -> r) : p -> r
coh u3 (a : *) (b : *) (p : a -> b) (q : a -> b) (s : p -> q) (t : p -> q) (u : s -> t) (r : a -> b) (v : q -> r) (w : q -> r) (z : v -> w) : vc [s, v] -> vc [t, w]
"""


def test_tree_insert_needs_an_inner_tree_as_linearly_high_as_the_path(tmp_path, capsys):
    # gamma has branching height 2; the inner type of u3 has linear height 2
    # and its dimension, but its tree [a [p [s [u] t] q [v [z] w] r] b] has 1
    p = tmp_path / "shallow.catt"
    p.write_text(SHALLOW_TREE)
    message = "error: linear height 1 < path length 3 - 1\n"
    for extra in ([], ["--json"]):
        assert cli.main(["tree", str(p), "g3", "--insert", "gamma", "--inner", "u3", *extra]) == 1
        assert capsys.readouterr() == ("", message)


def test_eq_compares_coherences_with_defs(assoc_file, capsys):
    # a coh declaration and a def expanding it are interchangeable
    assert cli.main(["eq", assoc_file, "comp3", "flat"]) == 0
    assert capsys.readouterr().out.strip() == "equal"


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.catt"
    p.write_text("coh broken (x : *) : x ->")
    assert cli.main(["check", str(p)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_type_error_exit_code_and_span(tmp_path, capsys):
    p = tmp_path / "bad.catt"
    p.write_text("coh fine (x : *) : x -> x\ncoh bad (x : *) (y : *) : x -> y")
    assert cli.main(["check", str(p)]) == 1
    out = capsys.readouterr().out
    assert "2:1:" in out  # failing declaration reported with its span


BAD_HEAD = "def bad (x : *) (y : *) (f : x -> y) : x -> y := "
INFER_HEAD = "(x : *) (y : *) (f : x -> y) (g : y -> x) (a : comp [f, g] -> comp [f, g])"


@pytest.mark.parametrize("text, message", [
    (BAD_HEAD + "comp [x, f]", "2:50: argument 'x' for 'f' of 'comp' has dimension 0, "
                               "needs at least 1"),
    (BAD_HEAD + "comp", "2:50: 'comp' takes 2 arguments (or all 5), got 0"),
    # y appears in a's type only inside coherences, so no boundary of the
    # one argument, a, recovers it
    (f"def e {INFER_HEAD} : comp [f, g] -> comp [f, g] := a\n"
     f"def use {INFER_HEAD} : comp [f, g] -> comp [f, g] := e [a]",
     "3:116: cannot infer argument for 'y' of 'e'"),
], ids=["argument-dimension", "no-arguments", "cannot-infer"])
def test_an_application_error_is_reported_at_its_span(tmp_path, capsys, text, message):
    p = tmp_path / "apply.catt"
    p.write_text(HEADER.splitlines()[1] + "\n" + text + "\n")
    assert cli.main(["check", str(p)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("mode", ["sa", "catt"])
def test_a_head_type_that_is_no_arrow_fails_the_coh_support_condition(tmp_path, capsys, mode):
    p = tmp_path / "point.catt"
    p.write_text("coh c (x : *) : *")
    assert cli.main(["check", str(p), "--mode", mode]) == 1
    assert capsys.readouterr().out == (
        "1:1: term coh { (x : *) : * } [x]: (coh') support [] is not the whole context ['x']\n"
    )


def test_missing_file_exit_code(tmp_path, capsys):
    assert cli.main(["check", str(tmp_path / "absent.catt")]) == 2


def test_a_directory_is_an_unreadable_file(tmp_path, capsys):
    for argv in (["check", str(tmp_path)], ["tree", str(tmp_path), "comp"]):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("cannot read file: ")
        assert str(tmp_path) in err


def test_a_file_that_is_not_utf8_is_an_unreadable_file(tmp_path, capsys):
    p = tmp_path / "latin1.catt"
    p.write_bytes(b"\xff\xfe" + ASSOC.encode())
    assert cli.main(["normalize", str(p), "left"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"cannot read file: '{p}' is not UTF-8 text: ")


def test_usage_error_exit_code(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_tree_without_target_is_a_usage_error(capsys):
    assert cli.main(["tree"]) == 2
    assert "need FILE NAME or --context" in capsys.readouterr().err


def test_tree_insert_options_are_never_ignored(assoc_file, capsys):
    # an --inner with nothing to insert it at, or an empty --insert, is a
    # usage error and not a plain tree
    for extra in (["--inner", "comp"], ["--insert", ""], ["--insert", "", "--inner", "comp"]):
        assert cli.main(["tree", assoc_file, "comp", *extra]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "tree --insert needs FILE, NAME and --inner\n")


def test_tree_of_the_empty_telescope_reaches_the_pasting_judgement(capsys):
    # an empty literal is a literal given: it is judged, and is no pasting context
    assert cli.main(["tree", "--context", ""]) == 1
    assert capsys.readouterr().err == (
        "error: not a pasting context (entry 0): missing an entry of type *\n"
    )


def test_no_disc_insertion_flag(tmp_path, capsys):
    text = HEADER + """
coh boxed (x : *) (y : *) (f : x -> y) : x -> y
def wrapped (x : *) (y : *) (a : x -> y) (z : *) (b : y -> z) : x -> z := comp [boxed [a], b]
def plain (x : *) (y : *) (a : x -> y) (z : *) (b : y -> z) : x -> z := comp [a, b]
"""
    p = tmp_path / "boxed.catt"
    p.write_text(text)
    assert cli.main(["eq", str(p), "wrapped", "plain"]) == 0
    capsys.readouterr()
    assert cli.main(["eq", str(p), "wrapped", "plain", "--no-disc-insertion"]) == 1
    capsys.readouterr()
    # the flag does not outlive the call
    assert cli.main(["eq", str(p), "wrapped", "plain"]) == 0
    assert capsys.readouterr().out == "equal\n"


BOXED = HEADER + """
coh boxed (x : *) (y : *) (f : x -> y) : x -> y
coh idc (x : *) (y : *) (f : x -> y) : f -> f
coh vert (x : *) (y : *) (f : x -> y) (g : x -> y) (m : f -> g) (h : x -> y) (n : g -> h) : f -> h
def wrapped (x : *) (y : *) (a : x -> y) (z : *) (b : y -> z) : x -> z := comp [boxed [a], b]
def plain (x : *) (y : *) (a : x -> y) (z : *) (b : y -> z) : x -> z := comp [a, b]
def unbox (x : *) (y : *) (a : x -> y) (z : *) (b : y -> z) : comp [boxed [a], b] -> comp [a, b] := idc [comp [a, b]]
def stack (x : *) (y : *) (a : x -> y) (z : *) (b : y -> z) (p : comp [a, b] -> comp [boxed [a], b]) (q : comp [a, b] -> comp [a, b]) : comp [a, b] -> comp [a, b] := vert [p, q]
"""


@pytest.fixture()
def boxed_file(tmp_path):
    p = tmp_path / "boxed.catt"
    p.write_text(BOXED)
    return str(p)


@pytest.mark.parametrize("allow", [True, False])
@pytest.mark.parametrize("mode", list(Mode))
def test_library_disc_insertion_keyword_agrees_with_cli(boxed_file, capsys, mode, allow):
    # unbox needs the disc insertion to check, stack needs it to infer
    env = cli.elaborate_file(parse(BOXED))
    wrapped, plain, unbox, stack = (env[n] for n in ("wrapped", "plain", "unbox", "stack"))
    flag = [] if allow else ["--no-disc-insertion"]
    common = ["--mode", mode.value, *flag]
    kw = {} if allow else {"allow_disc_insertion": False}

    same = Session(mode, **kw).equal(wrapped.ctx, wrapped.body, plain.body)
    assert same == (mode is Mode.CATT_SA and allow)
    assert cli.main(["eq", boxed_file, "wrapped", "plain", *common]) == (0 if same else 1)

    checked = Session(mode, **kw).check_term(unbox.ctx, unbox.body, unbox.ty)
    assert checked.ok == same
    capsys.readouterr()
    code = cli.main(["check", boxed_file, "--json", *common])
    verdicts = {r["name"]: r["ok"] for r in json.loads(capsys.readouterr().out)["results"]}
    assert code == (0 if all(verdicts.values()) else 1)
    assert verdicts["unbox"] == checked.ok

    inferred = Session(mode, **kw).infer_report(stack.ctx, stack.body)
    assert inferred.ok == same
    assert verdicts["stack"] == inferred.ok
    assert cli.main(["infer", boxed_file, "stack", *common]) == (0 if inferred.ok else 1)


def test_disc_insertion_flag_does_not_reach_concurrent_calls(boxed_file, capsys):
    # one thread checks with --no-disc-insertion while another normalises
    # with the default setting: the default call must still unbox
    env = cli.elaborate_file(parse(BOXED))
    wrapped, plain = env["wrapped"], env["plain"]
    barrier = threading.Barrier(2)
    codes: list[int] = []
    seen: list = []
    done = threading.Event()

    def check() -> None:
        barrier.wait(timeout=30)
        try:
            for _ in range(20):
                codes.append(cli.main(["check", boxed_file, "--no-disc-insertion"]))
        finally:
            done.set()

    def normalise() -> None:
        barrier.wait(timeout=30)
        while not done.is_set() or not seen:
            seen.append(reduction.normalize(wrapped.ctx, wrapped.body))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=check), threading.Thread(target=normalise)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert codes == [1] * 20
    assert seen and all(nf == plain.body for nf in seen)


def test_eq_requires_matching_telescopes(tmp_path, capsys):
    text = HEADER + """
def one (x : *) (y : *) (a : x -> y) : x -> y := a
def two (x : *) (y : *) (a : x -> y) (z : *) (b : y -> z) : x -> z := comp [a, b]
"""
    p = tmp_path / "tele.catt"
    p.write_text(text)
    assert cli.main(["eq", str(p), "one", "two"]) == 1


CAPTURE = """coh id (x : *) : x -> x
def p (a : *) : a -> a := id [a]
def q (b : *) : b -> b := id [a]
"""


@pytest.mark.parametrize("mode", ["sa", "catt"])
@pytest.mark.parametrize("names", [["p", "q"], ["q", "p"]])
def test_eq_types_each_value_over_its_own_telescope(tmp_path, capsys, mode, names):
    # renamed into p's names, q's free a would be p's bound a
    p = tmp_path / "capture.catt"
    p.write_text(CAPTURE)
    message = "term coh { (x : *) : x -> x } [a]: unknown variable 'a' in context"
    assert cli.main(["check", str(p), "--mode", mode]) == 1
    assert f"3:1: {message}" in capsys.readouterr().out.splitlines()
    assert cli.main(["eq", str(p), *names, "--mode", mode]) == 1
    assert capsys.readouterr() == ("", f"q: {message}\n")


BAD_TELESCOPES = HEADER + """
def bad (x : *) (f : x -> q) : x -> q := f
def bad2 (y : *) (g : y -> q) : y -> q := g
"""


@pytest.mark.parametrize("mode", ["sa", "catt"])
def test_commands_check_the_telescope_first(tmp_path, capsys, mode):
    # the terms f and g type in their telescopes; the telescopes do not check
    p = tmp_path / "telescopes.catt"
    p.write_text(BAD_TELESCOPES)
    path = str(p)
    assert cli.main(["check", path, "--mode", mode]) == 1
    out, _ = capsys.readouterr()
    message = "context (x : *) (f : x -> q): unknown variable 'q' in context"
    assert f"5:1: {message}" in out.splitlines()
    for argv, err in (
        (["infer", path, "bad"], message),
        (["normalize", path, "bad", "--trace"], message),
        (["eq", path, "bad", "bad2", "--json"], f"bad: {message}"),
        (["eq", path, "bad2", "bad"],
         "bad2: context (y : *) (g : y -> q): unknown variable 'q' in context"),
    ):
        assert cli.main([*argv, "--mode", mode]) == 1
        assert capsys.readouterr() == ("", err + "\n")


def test_check_decl_makes_each_judgement_only_once_the_one_before_passed():
    env = cli.elaborate_file(parse(ASSOC + BAD_TELESCOPES.removeprefix(HEADER)))
    session = Session(Mode.CATT_SA)
    calls: list[str] = []

    def spy(name, judge):
        return lambda *args: calls.append(name) or judge(*args)

    for name in ("check_ctx", "check_type", "check_term", "infer_report"):
        setattr(session, name, spy(name, getattr(session, name)))
    for decl, ok, judged in (
        ("bad", False, ["check_ctx"]),  # its telescope fails: type and term are not judged
        ("left", True, ["check_ctx", "check_type", "check_term"]),
        ("comp", True, ["check_ctx", "infer_report"]),
    ):
        calls.clear()
        assert cli._check_decl(env[decl], session)[0] is ok
        assert calls == judged


def test_cli_verdicts_agree_with_kernel(assoc_file):
    env = cli.elaborate_file(parse(ASSOC))
    left, right = env["left"], env["right"]
    assert left.body is not None and right.body is not None
    kernel = reduction.def_eq(left.ctx, left.body, right.body)
    assert (cli.main(["eq", assoc_file, "left", "right"]) == 0) == kernel


def _nested_file(tmp_path, depth: int, left: bool = False) -> str:
    body = "f"
    for _ in range(depth):
        body = f"comp [{body}, f]" if left else f"comp [f, {body}]"
    p = tmp_path / f"deep{depth}{'-left' if left else ''}.catt"
    p.write_text(HEADER + f"def deep (x : *) (f : x -> x) : x -> x := {body}\n")
    return str(p)


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    # a fresh interpreter, so the stack depth is that of the installed command
    src = os.path.dirname(os.path.dirname(os.path.abspath(cattsa.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "cattsa.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_nesting_at_the_limit_checks(tmp_path):
    proc = _run_cli("check", _nested_file(tmp_path, 300))
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0
    assert "def deep: ok" in proc.stdout


@pytest.mark.parametrize("left", [False, True], ids=["right-nested", "left-nested"])
def test_normalize_at_the_nesting_limit(tmp_path, left):
    path = _nested_file(tmp_path, MAX_NESTING, left)
    plain = _run_cli("normalize", path, "deep")
    traced = _run_cli("normalize", path, "deep", "--trace")
    for proc in (plain, traced):
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stderr) == (0, "")
    # MAX_NESTING binary composites flatten in MAX_NESTING - 1 insertions,
    # one line each before the normal form
    assert len(traced.stdout.splitlines()) == MAX_NESTING
    assert plain.stdout.splitlines()[-1] == traced.stdout.splitlines()[-1]


def _deep_def_file(tmp_path, depth: int, uses: str) -> str:
    body = "f"
    for _ in range(depth):
        body = f"comp [{body}, f]"
    p = tmp_path / f"deepdef{depth}.catt"
    p.write_text(HEADER.strip() + f"\ndef b (x : *) (f : x -> x) : x -> x := {body}\n" + uses)
    return str(p)


def test_deep_def_expansion_is_an_error(tmp_path):
    # within the source nesting bound, but each expansion of b nests its
    # argument 250 levels deeper
    too_deep_to_elaborate = _deep_def_file(tmp_path, 250, """\
def c (x : *) (f : x -> x) : x -> x := b [b [b [b [f]]]]
def d (x : *) (f : x -> x) : x -> x := c [c [c [f]]]
""")
    # elaborates, but the typechecker cannot traverse 400 levels
    too_deep_to_check = _deep_def_file(tmp_path, 200, """\
def c (x : *) (f : x -> x) : x -> x := b [b [f]]
""")
    for mode in ("sa", "catt"):
        for path, message in (
            (too_deep_to_elaborate, "error: 4:1: 'c' expands to a term nested too deeply"),
            (too_deep_to_check, "error: a term is nested too deeply for the kernel"),
        ):
            proc = _run_cli("check", path, "--mode", mode)
            assert "Traceback" not in proc.stderr
            assert proc.returncode == 1
            assert proc.stderr.strip() == message


def test_commands_on_a_term_too_deep_for_the_kernel(tmp_path, capsys):
    # c elaborates but nests 600 levels deep, past what the checks traverse
    path = _deep_def_file(tmp_path, 150, "def c (x : *) (f : x -> x) : x -> x := b [b [b [b [f]]]]\n")
    for argv in (["check", path], ["eq", path, "c", "c"], ["normalize", path, "c"],
                 ["infer", path, "c"]):
        for mode in ("sa", "catt"):
            assert cli.main([*argv, "--mode", mode]) == 1
            out, err = capsys.readouterr()
            assert (out, err) == ("", "error: a term is nested too deeply for the kernel\n")


def test_tree_of_a_telescope_too_deep_for_the_kernel(tmp_path, capsys):
    # a 400-dimensional disc: its tree and its types nest 400 levels deep
    n = 400
    cells = ["(x0 : *) (y0 : *)"] + [
        f"(x{i} : x{i - 1} -> y{i - 1}) (y{i} : x{i - 1} -> y{i - 1})" for i in range(1, n)
    ]
    path = tmp_path / "disc.catt"
    path.write_text(f"coh id {' '.join(cells)} (d : x{n - 1} -> y{n - 1}) : d -> d\n")
    for extra in ([], ["--json"], ["--insert", "d", "--inner", "id"]):
        assert cli.main(["tree", str(path), "id", *extra]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: a term is nested too deeply for the kernel\n")


def test_eq_renames_only_when_the_telescopes_bind_other_names(tmp_path, capsys):
    # c shares b's deep argument by object identity, so renaming it would
    # copy that argument once per occurrence; both sides bind the same names
    path = _deep_def_file(tmp_path, 200, "def c (x : *) (f : x -> x) : x -> x := b [b [f]]\n")
    env = cli._load(path)[1]
    assert cli._comparable_values(env["c"], env["c"])[2] is env["c"].value()
    assert cli.main(["eq", path, "c", "c"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: a term is nested too deeply for the kernel\n")


PRODUCT_MODULES = {
    "cattsa", "cattsa.cli", "cattsa.errors", "cattsa.insertion", "cattsa.parser",
    "cattsa.pasting", "cattsa.reduction", "cattsa.syntax", "cattsa.trees", "cattsa.typecheck",
}

# The verification machinery of tests/oracles.py, which the package must
# not define again.
ORACLE_NAMES = (
    "check_pushout", "ConeReport", "PushoutReport", "_unique_factorisation", "_subs_def_eq",
    "Ordinal", "syntactic_depth", "nat_sum", "omega_pow", "ord_lt",
    "eq_at_level", "_eq_terms", "_eq_types", "_eq_subs",
    "is_regular", "regular_height", "_regular",
    "step_candidates", "_steps", "_head_insertions", "_children", "_with_child", "_with_rule",
    "DiscContext", "disc_var", "disc_context", "to_disc_sub",
    "check_well_formed_sub", "is_globular_ctx",
)


def test_the_cli_loads_only_product_code():
    probe = (
        "import json, sys, cattsa.cli\n"
        "mods = sorted(m for m in sys.modules if m.split('.')[0] == 'cattsa')\n"
        "names = sys.argv[1:]\n"
        "print(json.dumps([mods, [f'{m}.{n}' for m in mods for n in names"
        " if hasattr(sys.modules[m], n)]]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cattsa.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *ORACLE_NAMES],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    modules, defined = json.loads(proc.stdout)
    assert set(modules) == PRODUCT_MODULES
    assert defined == []


def test_deep_nesting_is_a_parse_error(tmp_path):
    for depth in (MAX_NESTING + 1, 3000):
        proc = _run_cli("check", _nested_file(tmp_path, depth))
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 2
        assert "parse error" in proc.stderr
