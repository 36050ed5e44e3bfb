"""The command-line front end: elaboration, commands, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

import cattsa
from cattsa import cli, reduction, typecheck
from cattsa.parser import MAX_NESTING, parse
from cattsa.syntax import Var, alpha_eq
from cattsa.typecheck import Mode
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
    from cattsa.reduction import normalize_term
    from cattsa.syntax import term_str

    assert printed == term_str(normalize_term(decl.ctx, decl.body))


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


def test_tree_insert(assoc_file, capsys):
    code = cli.main(["tree", assoc_file, "comp", "--insert", "g", "--inner", "comp"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "[x [f] x' [f'] y' [g'] z']"


def test_json_output(assoc_file, capsys):
    assert cli.main(["eq", assoc_file, "left", "right", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["equal"] is True and doc["mode"] == "sa"
    assert cli.main(["check", assoc_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and len(doc["results"]) == 5
    assert cli.main(["normalize", assoc_file, "right", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["normal_form"].startswith("coh {")
    assert len(doc["trace"]) == 1 and "insertion at head" in doc["trace"][0]


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


def test_missing_file_exit_code(tmp_path, capsys):
    assert cli.main(["check", str(tmp_path / "absent.catt")]) == 2


def test_usage_error_exit_code(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_tree_without_target_is_a_usage_error(capsys):
    assert cli.main(["tree"]) == 2
    assert "need FILE NAME or --context" in capsys.readouterr().err


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

    same = typecheck.equal(mode, wrapped.ctx, wrapped.body, plain.body, **kw)
    assert same == (mode is Mode.CATT_SA and allow)
    assert cli.main(["eq", boxed_file, "wrapped", "plain", *common]) == (0 if same else 1)

    checked = typecheck.check_term(unbox.ctx, unbox.body, unbox.ty, mode, **kw)
    assert checked.ok == same
    capsys.readouterr()
    code = cli.main(["check", boxed_file, "--json", *common])
    verdicts = {r["name"]: r["ok"] for r in json.loads(capsys.readouterr().out)["results"]}
    assert code == (0 if all(verdicts.values()) else 1)
    assert verdicts["unbox"] == checked.ok

    inferred = typecheck.infer_report(stack.ctx, stack.body, mode, **kw)
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


def test_cli_verdicts_agree_with_kernel(assoc_file):
    env = cli.elaborate_file(parse(ASSOC))
    left, right = env["left"], env["right"]
    assert left.body is not None and right.body is not None
    kernel = reduction.def_eq(left.ctx, left.body, right.body)
    assert (cli.main(["eq", assoc_file, "left", "right"]) == 0) == kernel


def _nested_file(tmp_path, depth: int) -> str:
    body = "f"
    for _ in range(depth):
        body = f"comp [f, {body}]"
    p = tmp_path / f"deep{depth}.catt"
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


def test_eq_renames_only_when_the_telescopes_bind_other_names(tmp_path, capsys):
    # c shares b's deep argument by object identity, so renaming it would
    # copy that argument once per occurrence; both sides bind the same names
    path = _deep_def_file(tmp_path, 200, "def c (x : *) (f : x -> x) : x -> x := b [b [f]]\n")
    env = cli._load(path)[1]
    assert cli._comparable_values(env, "c", "c")[2] is env["c"].value()
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
    "step_candidates", "_steps", "_head_insertions",
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
