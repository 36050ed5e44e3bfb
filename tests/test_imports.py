"""Every kernel module uses each name it imports, every public name it
defines is read in the package, every error it defines is raised, and no
module binds a list, dict or set at module level; only the normaliser
builds a coherence without its domain check.

No lint tool is a dependency, so this reads the modules with the
standard library's ast: an import that nothing in its module reads is a
stale one, left behind when the code that used it moved or was deleted,
and a public function or class that nothing in src/ reads serves only
the tests, which keep such code in tests/helpers.py and tests/oracles.py.
The import check goes by name, so a name read anywhere in the module
counts as read.  A public def counts as read only where another module
imports it by name or its own module reads it under a name that no
enclosing function binds.  An exception class of errors.py counts as
raised where a module of the package constructs it, by a call or a bare
raise, or constructs a class that derives from it.
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound_in(scope: ast.AST) -> set[str]:
    """The names a function, lambda or comprehension binds for its own
    body: its parameters or targets and every name stored in it, nested
    scopes aside."""
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = scope.args
        names = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p}
        todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    else:
        names, todo = set(), [g.target for g in scope.generators]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            todo += ast.iter_child_nodes(node)
    return names


def _free_reads(node: ast.AST, bound: frozenset = frozenset()) -> set[str]:
    """Each name node reads where no enclosing function, lambda or
    comprehension binds it: the module-level names it reads."""
    if isinstance(node, _SCOPES):
        bound = bound | _bound_in(node)
    out = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        out.add(node.id)
    for child in ast.iter_child_nodes(node):
        out |= _free_reads(child, bound)
    return out


def _unread_definitions(modules: dict[str, ast.Module]) -> list[str]:
    """module.name of each public top-level def or class that no other
    module imports by name and no other top-level statement of its own
    module reads as a module-level name: an attribute of the same name,
    or a local that shadows it, reads something else."""
    imported = {
        (node.module, a.name) for tree in modules.values() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 for a in node.names
    }
    out = []
    for module, tree in modules.items():
        reads = [(node, _free_reads(node)) for node in tree.body]
        out += [
            f"{module}.{node.name}" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            and (module, node.name) not in imported
            and not any(node.name in names for other, names in reads if other is not node)
        ]
    return out


def test_every_public_kernel_name_is_read_or_exported():
    assert _unread_definitions(_kernel_modules()) == []


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
        "def shadowed():\n"
        "    pass\n"
        "def imported():\n"
        "    pass\n"
        "def reads(shadowed, inner):\n"  # a parameter, an attribute, a local,
        "    return shadowed, inner.shadowed, [shadowed for shadowed in inner]\n"
        "def assigns():\n"
        "    shadowed = 1\n"  # and an assignment shadow or miss the def
        "    return lambda: shadowed\n"
    )
    other = ast.parse("from .kernel import imported\nimport kernel\nkernel.used(2)\n")
    assert _unread_definitions({"kernel": kernel, "other": other}) == [
        "kernel.dead", "kernel.Dead", "kernel.shadowed", "kernel.reads", "kernel.assigns",
    ]


def _unraised_errors(errors: ast.Module, modules: list[ast.Module]) -> list[str]:
    """Each class that errors defines which no module constructs, by a call
    or a bare raise, and which is no base, directly or through others, of a
    class that one does: an error that nothing can raise."""
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for node in errors.body if isinstance(node, ast.ClassDef)
    }
    todo = [
        node.func.id if isinstance(node, ast.Call) else node.exc.id
        for tree in modules for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        or isinstance(node, ast.Raise) and isinstance(node.exc, ast.Name)
    ]
    raised: set[str] = set()
    while todo:
        name = todo.pop()
        if name in bases and name not in raised:
            raised.add(name)
            todo += bases[name]
    return [name for name in bases if name not in raised]


def test_every_kernel_error_is_raised():
    modules = _kernel_modules()
    assert _unraised_errors(modules["errors"], list(modules.values())) == []


def test_the_guard_sees_an_error_nothing_raises():
    errors = ast.parse(
        "class Base(Exception):\n"
        "    pass\n"
        "class Mid(Base):\n"
        "    pass\n"
        "class Leaf(Mid):\n"
        "    pass\n"
        "class Bare(Base):\n"
        "    pass\n"
        "class Caught(Base):\n"
        "    pass\n"
        "class Dead(Mid):\n"
        "    pass\n"
        "def guard():\n"
        "    raise Bare\n"
    )
    other = ast.parse(
        "from .errors import Caught, Leaf\n"
        "def f(x):\n"
        "    try:\n"
        "        return x()\n"
        "    except Caught:\n"  # catching one does not raise it
        "        raise Leaf('x')\n"
    )
    assert _unraised_errors(errors, [errors, other]) == ["Caught", "Dead"]


def _trusted_builders(modules: dict[str, ast.Module]) -> list[str]:
    """module:line of each read of an attribute named trusted, such as a
    call of Coh.trusted, outside reduction: the constructor that skips the
    domain check serves only the normaliser, whose nodes keep their domain
    by construction, so no other entry point builds an unchecked coherence."""
    return [
        f"{module}:{node.lineno}" for module, tree in modules.items() if module != "reduction"
        for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "trusted"
    ]


def test_only_the_normaliser_builds_unchecked_coherences():
    home = os.path.dirname(os.path.abspath(cattsa.__file__))
    with open(os.path.join(home, "__init__.py"), encoding="utf-8") as fh:
        package = {**_kernel_modules(), "__init__": ast.parse(fh.read())}
    assert _trusted_builders(package) == []
    assert _trusted_builders({"moved": package["reduction"]}) != []  # reduction's own calls


def test_the_guard_sees_an_unchecked_coherence_outside_the_normaliser():
    reduction = ast.parse("def step(c):\n    return Coh.trusted(c.ctx, c.ty, c.sub)\n")
    cli = ast.parse(
        "from .syntax import Coh\n"
        "def apply(decl, sigma):\n"
        "    return Coh.trusted(decl.ctx, decl.ty, sigma)\n"
    )
    parser = ast.parse(
        "make = syntax.Coh.trusted\n"  # an alias is a way round the guard too
        "def f(trusted):\n"  # a parameter or a function of that name is no attribute
        "    return trusted(Coh(a, b, c))\n"
    )
    found = _trusted_builders({"reduction": reduction, "cli": cli, "parser": parser})
    assert found == ["cli:3", "parser:1"]


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
