"""Print one digest line per command-line run over the test corpus.

    python3 tests/cli_digest.py [SRC] > digest.txt

runs cattsa.cli.main in-process on every source text of the test modules
(helpers.catt_texts) and of the benchmark at seed 101
(helpers.bench_catt_texts): check, and for each declaration infer,
normalize and tree, and eq on each declaration with the next one, and
tree --insert VAR --inner NEXT for each declaration, each locally maximal
variable VAR of its telescope (one that no arrow type there names as an
endpoint) and the next declaration NEXT; then tree --context LITERAL for
each distinct telescope of a declaration that elaborates, printed by
item_str; each of these plain and with --json, normalize also with
--trace, all in both modes, with and without --no-disc-insertion.  Each
line is the run's key and a hash of its stdout, stderr and exit code (or
of the exception that escaped).  Each file is named by a short hash of
its text, so no key changes when a test module gains or loses a string,
and a text met twice is run once.  SRC is the directory the cattsa
package is imported from, by default the src/ of this checkout; the
texts always come from this checkout, so two kernels give the same keys
(but for a --context literal, which SRC's kernel elaborates and prints)
and `diff` of their digests lists the runs whose output differs.  pytest
does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SETTINGS = [
    [*mode, *disc]
    for mode in (["--mode", "sa"], ["--mode", "catt"])
    for disc in ([], ["--no-disc-insertion"])
]


def _short_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()[:12]


def _digest(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = repr(main(argv))
        except Exception as exc:  # a crash is output too
            code = f"raised {type(exc).__name__}: {exc}"
    return _short_hash("\0".join((out.getvalue(), err.getvalue(), code)))


def _locally_maximal(decl) -> list[str]:
    """The variables of decl's telescope that no arrow type in it names as
    an endpoint."""
    arrows = [ty for _, ty in decl.telescope if hasattr(ty, "src")]
    ends = {end.name for ty in arrows for end in (ty.src, ty.tgt)}
    return [v for v, _ in decl.telescope if v not in ends]


def _runs(decls):
    names = [d.name for d in decls]
    yield ["check"]
    yield ["check", "--json"]
    for name in names:
        yield ["infer", name]
        yield ["infer", name, "--json"]
        yield ["normalize", name]
        yield ["normalize", name, "--trace"]
        yield ["normalize", name, "--json"]
        yield ["tree", name]
        yield ["tree", name, "--json"]
    for first, second in zip(names, names[1:]):
        yield ["eq", first, second]
        yield ["eq", first, second, "--json"]
    for decl, inner in zip(decls, names[1:]):
        for var in _locally_maximal(decl):
            yield ["tree", decl.name, "--insert", var, "--inner", inner]
            yield ["tree", decl.name, "--insert", var, "--inner", inner, "--json"]


def _telescopes(cli, decls) -> list[str]:
    """The telescope of each declaration that elaborates, printed by
    item_str, the others skipped."""
    from cattsa.errors import CattError
    from cattsa.syntax import item_str

    env, out = {}, []
    for d in decls:
        try:
            env[d.name] = cli.elaborate_decl(d, env)
            out.append(item_str(env[d.name].ctx))
        except (CattError, RecursionError):
            pass
    return out


def _print_runs(main, runs) -> None:
    for run in runs:
        for setting in SETTINGS:
            argv = [*run, *setting]
            print(" ".join(argv), _digest(main, argv), flush=True)


def main(src: str) -> None:
    sys.path[:0] = [src, str(TESTS)]
    from cattsa import cli
    from cattsa.parser import parse
    from helpers import bench_catt_texts, catt_texts

    texts = dict.fromkeys([("test", t) for t in catt_texts()]
                          + [("bench", t) for t in bench_catt_texts()])
    telescopes: dict[str, None] = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # relative file names, so no output names the directory
        for where, text in texts:
            path = f"{where}-{_short_hash(text)}.catt"
            Path(path).write_text(text, encoding="utf-8")
            decls = parse(text).decls
            _print_runs(cli.main, ([run[0], path, *run[1:]] for run in _runs(decls)))
            telescopes.update(dict.fromkeys(_telescopes(cli, decls)))
        _print_runs(cli.main, (["tree", "--context", t, *json]
                               for t in telescopes for json in ([], ["--json"])))
        os.chdir(home)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else str(TESTS.parent / "src"))
