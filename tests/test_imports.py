"""Every kernel module uses each name it imports, every public name it
defines is read in the package or is a documented entry point, and no
module binds a list, dict or set at module level.

No lint tool is a dependency, so this reads the modules with the
standard library's ast: an import that nothing in its module reads is a
stale one, left behind when the code that used it moved or was deleted,
and a public function or class that nothing in src/ reads serves only
the tests, which keep such code in tests/helpers.py and tests/oracles.py.
The checks go by name, so a name read anywhere counts as read.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

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


def _kernel_modules() -> dict[str, ast.Module]:
    """Every module of the package but __init__, parsed, by name."""
    home = os.path.dirname(os.path.abspath(cattsa.__file__))
    out = {}
    for fname in sorted(os.listdir(home)):
        if fname.endswith(".py") and fname != "__init__.py":
            with open(os.path.join(home, fname), encoding="utf-8") as fh:
                out[fname[:-3]] = ast.parse(fh.read())
    return out


def _package_exports() -> set[str]:
    with open(cattsa.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {
        a.asname or a.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for a in node.names
    }


def test_kernel_modules_use_every_name_they_import():
    stale = []
    for module, tree in _kernel_modules().items():
        stale += [
            f"{module}.{name}" for name in _unused_imports(tree)
            if (module, name) not in PINNED
        ]
    assert stale == []


def test_the_command_line_loads_no_code_generation_machinery():
    # every cattsa call starts a process that imports cattsa.cli; these
    # modules come with dataclasses and cost it time, but no kernel code
    # needs them
    probe = (
        "import sys, cattsa.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cattsa.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_the_guard_sees_a_stale_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "from .syntax import Var, Coh as C\n"
        "def f(x: C) -> None:\n"
        "    return os.sep\n"
    )
    assert _unused_imports(tree) == ["Var"]


def _unread_definitions(modules: dict[str, ast.Module]) -> list[str]:
    """module.name of each public top-level def or class that no top-level
    statement of any module reads, its own definition aside."""
    defined: list[tuple[str, str, ast.stmt]] = []
    reads: list[tuple[ast.stmt, set[str]]] = []
    for module, tree in modules.items():
        for node in tree.body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            reads.append((node, names))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((module, node.name, node))
    return [
        f"{module}.{name}" for module, name, node in defined
        if not any(name in names for other, names in reads if other is not node)
    ]


def test_every_public_kernel_name_is_read_or_exported():
    unread = _unread_definitions(_kernel_modules())
    exported = _package_exports()
    assert [n for n in unread if n.split(".")[1] not in exported] == []
    # exported but read nowhere in the package: the documented entry points
    # (insert_ctx splices without insert_tree's check that the labels are
    # disjoint, since it renames them apart itself, and the kernel reads a
    # cell's branching height off its context's cell table; branching_height,
    # which the benchmark's tracer names, reads the table's walk for a tree)
    assert [n for n in unread if n.split(".")[1] in exported] == [
        "insertion.insert_tree", "trees.branching_height", "trees.bracket_to_tree",
    ]


def test_the_guard_sees_an_unread_definition():
    kernel = ast.parse(
        "def used(x):\n"
        "    return helper(x)\n"
        "def helper(x):\n"
        "    return helper(x - 1) if x else 0\n"  # its own call does not count
        "def dead():\n"
        "    return used(1)\n"
        "class Dead(Exception):\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
    )
    other = ast.parse("import kernel\nkernel.used(2)\n")
    assert _unread_definitions({"kernel": kernel, "other": other}) == ["kernel.dead", "kernel.Dead"]


_MUTABLE_VALUES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _module_level_mutables(tree: ast.Module) -> list[str]:
    """Each name that a top-level assignment binds to a list, dict or set
    (a display, a comprehension or a call of list, dict or set, alone or in
    a tuple): process-global state that calls running at once would share."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
        if any(isinstance(v, _MUTABLE_VALUES) or isinstance(v, ast.Call)
               and isinstance(v.func, ast.Name) and v.func.id in ("list", "dict", "set")
               for v in values):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return found


def test_no_kernel_module_holds_mutable_state():
    held = [
        f"{module}.{name}" for module, tree in _kernel_modules().items()
        for name in _module_level_mutables(tree)
    ]
    assert held == []


def test_the_guard_sees_mutable_module_state():
    tree = ast.parse(
        "KEYWORDS = {'coh', 'def'}\n"
        "FROZEN = frozenset({'coh'})\n"
        "TABLE: dict = dict(a=1)\n"
        "SEEN = [c for c in 'ab']\n"
        "A, B = (), {}\n"
        "Env = dict[str, int]\n"
        "def f():\n"
        "    local = []\n"
        "    return local\n"
    )
    assert _module_level_mutables(tree) == ["KEYWORDS", "TABLE", "SEEN", "A", "B"]
