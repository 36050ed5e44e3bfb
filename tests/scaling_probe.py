"""Print how normalisation scales, for the scaling targets of ROADMAP.md.

    python3 tests/scaling_probe.py [SRC]

prints, for a left-nested n-fold composite of arrows at n = 8, 16, 32,
64, 96, 128, 192 and 256 (the parser nests at most 300 applications, so
n = 512 cannot be written), the best of five times of one normalize call
on a freshly elaborated copy (so no memo on a context is warm), then the
log-log slope of those times against n (a least-squares fit), then the
untraced normalize time of c in the nested-def file (c := b [b [b [f]]],
b a d-fold left-nested endo-composite, so c unfolds to (d + 1)^3 arrows)
at d = 6 and 10, then the time of one insert_ctx call that inserts a
chain of k arrows into a chain of k arrows at k = 64, 256 and 1024 when
the first half of the inner labels are the outer names v0, v1, ... and
the second half the same names primed, so that every rename pushes a
later inner label into a collision.  Elaboration is not timed.  SRC is
the directory the cattsa package is imported from, by default the src/
of this checkout, so the same probe times two kernels.  pytest does not
collect this file.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

SIZES = (8, 16, 32, 64, 96, 128, 192, 256)
DEPTHS = (6, 10)
CHAINS = (64, 256, 1024)
REPEATS = 5
COMP = "coh comp (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) : x -> z\n"


def left_nested(n: int) -> str:
    tele = " ".join(["(x0 : *)"] + [f"(x{i} : *) (a{i} : x{i - 1} -> x{i})" for i in range(1, n + 1)])
    body = "a1"
    for i in range(2, n + 1):
        body = f"comp [{body}, a{i}]"
    return f"{COMP}def t {tele} : x0 -> x{n} := {body}\n"


def nested_defs(d: int) -> str:
    body = "f"
    for _ in range(d):
        body = f"comp [{body}, f]"
    return (
        f"{COMP}def b (x : *) (f : x -> x) : x -> x := {body}\n"
        "def c (x : *) (f : x -> x) : x -> x := b [b [b [f]]]\n"
    )


def best_time(text: str, name: str, repeats: int) -> float:
    """The least time of one normalize call on the body of name, each run on
    a freshly elaborated copy of text."""
    from cattsa.cli import elaborate_file
    from cattsa.parser import parse
    from cattsa.reduction import normalize

    best = math.inf
    for _ in range(repeats):
        decl = elaborate_file(parse(text))[name]
        start = time.perf_counter()
        normalize(decl.ctx, decl.body)
        best = min(best, time.perf_counter() - start)
    return best


def half_primed_insertion(k: int, repeats: int) -> float:
    """The least time of one insert_ctx call of a chain of k arrows, named
    v0, ... then v0', ..., into a chain of k arrows named v0, v1, ..."""
    from cattsa.insertion import InsertionProblem, insert_ctx
    from cattsa.pasting import unbiased_type
    from cattsa.trees import BataninTree, tree_to_ctx

    def chain(names: list[str]) -> BataninTree:
        labels = [names[0]] + names[1::2]
        return BataninTree(tuple(labels), tuple(BataninTree((v,), ()) for v in names[2::2]))

    size = 2 * k + 1
    outer = tree_to_ctx(chain([f"v{i}" for i in range(size)]))
    half = (size + 1) // 2
    inner = tree_to_ctx(chain([f"v{i}" if i < half else f"v{i - half}'" for i in range(size)]))
    problem = InsertionProblem(outer, outer.vars[2], inner, unbiased_type(inner))
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        insert_ctx(problem)
        best = min(best, time.perf_counter() - start)
    return best


def slope(xs: list[float], ys: list[float]) -> float:
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main(src: str) -> None:
    sys.path.insert(0, src)
    times = []
    for n in SIZES:
        times.append(best_time(left_nested(n), "t", REPEATS))
        print(f"left-nested n = {n:3d}: {times[-1] * 1e3:8.2f} ms", flush=True)
    print(f"log-log slope: {slope(list(SIZES), times):.2f}")
    for d in DEPTHS:
        took = best_time(nested_defs(d), "c", 1)
        print(f"nested-def c, d = {d:2d} ({(d + 1) ** 3} arrows): {took:.3f} s", flush=True)
    for k in CHAINS:
        took = half_primed_insertion(k, REPEATS)
        print(f"half-primed insertion, k = {k:4d}: {took * 1e3:8.2f} ms", flush=True)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).resolve().parent.parent / "src"))
