"""Print the function-body lines of src/ that no tier-1 test runs.

    python3 tests/line_probe.py [PYTEST_ARGS...] > unrun.txt

runs the tier-1 suite in-process (tests/, or PYTEST_ARGS) under a line
tracer, sys.settrace and threading.settrace, re-armed before each test:
a test that overflows the stack switches tracing off for the rest of the
run.  It then prints, for each statement inside a function body of
src/cattsa/*.py that never ran, FILE:LINE and the statement's first line.
A statement counts as run when any of its lines ran; a compound
statement's body is judged statement by statement and a docstring is no
statement.  Statements that no in-process line trace can see are listed
in ARTEFACTS, each with its reason, and printed apart; an entry that
matches no unrun statement is printed as stale and should go.  The suite
takes a few minutes under the tracer, so this is a tool to run by hand,
not a test.  It needs only the standard library and pytest, and pytest
does not collect this file.
"""

from __future__ import annotations

import ast
import sys
import threading
import time
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "cattsa"

# (file, function qualname, text in the statement): why no trace sees it run
ARTEFACTS = {
    ("errors.py", "TooDeep.__init__", ""):
        "made after a RecursionError, when the overflow has switched tracing off",
    ("errors.py", "bounded.guarded", "raise TooDeep()"):
        "runs after a RecursionError, when the overflow has switched tracing off",
    ("typecheck.py", "Session._report", "raise"):
        "re-raises a TooDeep, which follows a RecursionError that switched tracing off",
    ("cli.py", "elaborate_file", "expands to a term nested too deeply"):
        "reached only by the subprocess tests, which need a fresh interpreter's stack",
    ("parser.py", "_Parser.term", "terms may nest at most"):
        "reached only by the subprocess tests, which need a fresh interpreter's stack",
    ("syntax.py", "_OnFirstRead.__init__", ""):
        "runs while the package is imported, before the first test arms the tracer",
    ("cli.py", "main_entry", ""):
        "runs only as the installed cattsa command",
}


def body_statements(path: Path) -> list[tuple[str, int, int, str]]:
    """(function qualname, first line, last line, source) of each simple
    statement inside a function body of the module at path."""
    text = path.read_text(encoding="utf-8")
    out: list[tuple[str, int, int, str]] = []

    def visit(node: ast.AST, scope: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                body = child.body
                if ast.get_docstring(child) is not None:
                    body = body[1:]
                visit(ast.Module(body=body, type_ignores=[]), name,
                      in_function or not isinstance(child, ast.ClassDef))
            elif isinstance(child, ast.stmt) and not _is_compound(child):
                if in_function:
                    segment = ast.get_source_segment(text, child) or ""
                    out.append((scope, child.lineno, child.end_lineno or child.lineno, segment))
            else:
                visit(child, scope, in_function)

    visit(ast.parse(text), "", False)
    return out


def _is_compound(node: ast.stmt) -> bool:
    """Whether node holds statements: if, for, while, with, try, match."""
    blocks = (ast.stmt, ast.excepthandler, ast.match_case)
    return any(isinstance(f, list) and f and isinstance(f[0], blocks)
               for f in (getattr(node, name) for name in node._fields))


class Probe:
    """A pytest plugin that re-arms the tracer before each test."""

    def __init__(self) -> None:
        self.files = {str(p): p.name for p in PACKAGE.glob("*.py")}
        self.hits: set[tuple[str, int]] = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        return self._local if frame.f_code.co_filename in self.files else None

    def _arm(self) -> None:
        sys.settrace(self._global)
        threading.settrace(self._global)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item) -> None:
        self._arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item) -> None:
        self._arm()

    @pytest.hookimpl(trylast=True)
    def pytest_sessionfinish(self, session) -> None:
        sys.settrace(None)
        threading.settrace(None)


def main(argv: list[str]) -> int:
    probe = Probe()
    start = time.perf_counter()
    code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(TESTS)])], plugins=[probe])
    elapsed = time.perf_counter() - start
    unrun, artefacts, used = [], [], set()
    for path, name in sorted(probe.files.items(), key=lambda kv: kv[1]):
        for scope, first, last, segment in body_statements(Path(path)):
            if any((path, line) in probe.hits for line in range(first, last + 1)):
                continue
            line = f"{name}:{first}: {segment.splitlines()[0].strip()}"
            key = next((k for k in ARTEFACTS
                        if k[0] == name and k[1] == scope and k[2] in segment), None)
            if key is None:
                unrun.append(line)
            else:
                used.add(key)
                artefacts.append(f"{line}  -- {ARTEFACTS[key]}")
    print(f"\n{len(unrun)} function-body statements of src/ ran in no test"
          f" (pytest exit {code}, {elapsed:.0f} s):")
    print("\n".join(unrun))
    print(f"\n{len(artefacts)} more are artefacts of the probe:")
    print("\n".join(artefacts))
    for key in ARTEFACTS.keys() - used:
        print(f"stale artefact entry, now run or gone: {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
