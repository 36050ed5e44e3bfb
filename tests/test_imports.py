"""Every kernel module uses each name it imports.

No lint tool is a dependency, so this reads the modules with the
standard library's ast: an import that nothing in its module reads is a
stale one, left behind when the code that used it moved or was deleted.
"""

from __future__ import annotations

import ast
import os

import cattsa

# bench/test_bench.py traces typecheck.alpha_eq, so typecheck keeps that
# import although it no longer calls it.
PINNED = {("typecheck", "alpha_eq")}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_kernel_modules_use_every_name_they_import():
    home = os.path.dirname(os.path.abspath(cattsa.__file__))
    stale = []
    for fname in sorted(os.listdir(home)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        module = fname[:-3]
        with open(os.path.join(home, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        stale += [
            f"{module}.{name}" for name in _unused_imports(tree)
            if (module, name) not in PINNED
        ]
    assert stale == []


def test_the_guard_sees_a_stale_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "from .syntax import Var, Coh as C\n"
        "def f(x: C) -> None:\n"
        "    return os.sep\n"
    )
    assert _unused_imports(tree) == ["Var"]
