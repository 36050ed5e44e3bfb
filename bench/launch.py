"""Run the cattsa command line with the benchmark's wrappers installed.

Usage: python bench/launch.py {trace|count} OUT.json CLI-ARGS...

``trace`` records per-layer spans, ``count`` records reduction steps and
normal-form sizes; either way the summary is written to OUT.json and the
process exits with the command's own exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer  # noqa: E402
from inputs import node_count  # noqa: E402


def main(argv: list[str]) -> int:
    mode, out, cli_args = argv[0], argv[1], argv[2:]
    probe = tracer.Tracer() if mode == "trace" else tracer.StepCounter(node_count)
    probe.install()
    from cattsa import cli

    try:
        code = cli.main(cli_args)
    finally:
        probe.uninstall()
        Path(out).write_text(json.dumps(probe.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
