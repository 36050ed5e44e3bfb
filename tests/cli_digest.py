"""Print one digest line per command-line run over the test corpus.

    python3 tests/cli_digest.py [SRC] > digest.txt

runs cattsa.cli.main in-process on every source text of the test modules
(helpers.catt_texts) and of the benchmark at seed 101
(helpers.bench_catt_texts): check (plain and --json), and for each
declaration infer, normalize (plain, --trace, --json) and tree, and eq on
each declaration with the next one, all in both modes, with and without
--no-disc-insertion.  Each line is the run's key and a hash of its stdout,
stderr and exit code (or of the exception that escaped).  SRC is the
directory the cattsa package is imported from, by default the src/ of
this checkout; the texts always come from this checkout, so two kernels
give the same keys and `diff` of their digests lists the runs whose
output differs.  pytest does not collect this file.
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


def _digest(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = repr(main(argv))
        except Exception as exc:  # a crash is output too
            code = f"raised {type(exc).__name__}: {exc}"
    blob = "\0".join((out.getvalue(), err.getvalue(), code))
    return hashlib.sha256(blob.encode("utf-8", "surrogatepass")).hexdigest()[:16]


def _runs(names: list[str]):
    yield ["check"]
    yield ["check", "--json"]
    for name in names:
        yield ["infer", name]
        yield ["normalize", name]
        yield ["normalize", name, "--trace"]
        yield ["normalize", name, "--json"]
        yield ["tree", name]
    for first, second in zip(names, names[1:]):
        yield ["eq", first, second]


def main(src: str) -> None:
    sys.path[:0] = [src, str(TESTS)]
    from cattsa import cli
    from cattsa.parser import parse
    from helpers import bench_catt_texts, catt_texts

    texts = [("test", t) for t in catt_texts()] + [("bench", t) for t in bench_catt_texts()]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # relative file names, so no output names the directory
        for i, (where, text) in enumerate(texts):
            path = f"{where}{i:03d}.catt"
            Path(path).write_text(text, encoding="utf-8")
            names = [d.name for d in parse(text).decls]
            for run in _runs(names):
                for setting in SETTINGS:
                    argv = [run[0], path, *run[1:], *setting]
                    print(" ".join(argv), _digest(cli.main, argv), flush=True)
        os.chdir(home)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else str(TESTS.parent / "src"))
