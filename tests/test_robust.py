"""Robust by generated input: token-level mutations of the source texts
of the tests and the benchmark, run through every command of the CLI in
both modes and both disc-insertion settings, end in a CattError or
SystemExit at most and in exit code 0, 1 or 2, never in a traceback."""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from cattsa.cli import main
from cattsa.errors import CattError
from cattsa.parser import KEYWORDS, tokenize
from helpers import bench_catt_texts, catt_texts

TEXTS = [[t.text for t in tokenize(text)[:-1]] for text in catt_texts() + bench_catt_texts(101)]
VOCABULARY = ["coh", "def", "->", ":=", "(", ")", "[", "]", ":", ",", "*", "x", "q", "²"]


@st.composite
def mutated_runs(draw) -> tuple[list[str], list[str]]:
    """The tokens of a mutated text, and the command line with FILE in
    place of the file name."""
    tokens = list(draw(st.sampled_from(TEXTS)))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            # a name for a name, which mostly still parses: swap or replace
            where = [i for i, t in enumerate(tokens) if t[0].isalpha() and t not in KEYWORDS]
            if where:
                i, j = draw(st.sampled_from(where)), draw(st.sampled_from(where))
                if draw(st.booleans()):
                    tokens[i], tokens[j] = tokens[j], tokens[i]
                else:
                    tokens[i] = tokens[j]
                continue
        i = draw(st.integers(0, len(tokens) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "replace"]))
        if op == "delete":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        elif op == "swap":
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = draw(st.sampled_from(VOCABULARY + tokens))
        tokens = tokens or ["x"]
    names = st.sampled_from([t for t in tokens if t[0].isalpha()] or ["x"])
    command = draw(st.sampled_from(["check", "infer", "normalize", "eq", "tree"]))
    argv = [command, "FILE"]
    argv += [draw(names) for _ in range({"check": 0, "eq": 2}.get(command, 1))]
    if command == "normalize" and draw(st.booleans()):
        argv.append("--trace")
    if command == "tree" and draw(st.booleans()):
        argv += ["--insert", draw(names), "--inner", draw(names)]
    argv += ["--mode", draw(st.sampled_from(["catt", "sa"]))]
    argv += draw(st.sampled_from([[], ["--no-disc-insertion"]]))
    argv += draw(st.sampled_from([[], ["--json"]]))
    return tokens, argv


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "m.catt"


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(run=mutated_runs())
def test_mutated_sources_end_in_a_documented_exit_code(source, run):
    tokens, argv = run
    source.write_text(" ".join(tokens), encoding="utf-8")
    argv = [str(source) if a == "FILE" else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except CattError:
            return
    assert code in (0, 1, 2), (argv, err.getvalue())
