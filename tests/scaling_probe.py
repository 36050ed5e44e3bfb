"""Print how normalisation scales, for the scaling targets of ROADMAP.md.

    python3 tests/scaling_probe.py [SRC]

prints, for a left-nested n-fold composite of arrows at n = 8, 16, 32,
64, 96, 128, 192 and 256 (the parser nests at most 300 applications, so
n = 512 cannot be written), the best of five times of one normalize call
on a freshly elaborated copy (so no memo on a context is warm) and that
time per insertion step (the n - 2 steps of its n - 1 composites, the
innermost of which is normal), then the log-log slope of those times
against n (a least-squares fit); the same
series and slope for a seeded random bracketing of the n arrows (the
shape of the benchmark's def_eq operand) at n = 32, 48, 64, 96 and 128,
and for the left-nested vertical composite of n 2-cells whiskered on the
right by an arrow at n = 4, 8, 16, 24 and 32; then, at n = 32, 64 and
128, the best of five def_eq calls of the left-nested composite against
the random bracketing (the benchmark's def_eq case), each on a freshly
elaborated copy, beside the best of five times of def_eq's final == on
the two normal forms alone; then the best of five
traced normalize calls (trace=[], so every step renders its whole term
through the printer) of the left-nested composite at n = 16, 32 and 48,
with the trace's total characters; then the untraced normalize
time of c in the nested-def file (c := b [b [b [f]]], b a d-fold
left-nested endo-composite, so c unfolds to (d + 1)^3 arrows) at d = 6
and 10, then the time of one insert_ctx call that inserts a chain of k
arrows into a chain of k arrows at k = 64, 256 and 1024 when the first
half of the inner labels are the outer names v0, v1, ... and the second
half the same names primed, so that every rename pushes a later inner
label into a collision.  Elaboration is not timed.  SRC is the directory
the cattsa package is imported from, by default the src/ of this
checkout, so the same probe times two kernels.  pytest does not collect
this file.
"""

from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

SIZES = (8, 16, 32, 64, 96, 128, 192, 256)
RANDOM_SIZES = (32, 48, 64, 96, 128)
COLUMN_SIZES = (4, 8, 16, 24, 32)
TRACED_SIZES = (16, 32, 48)
SEED = 101
DEF_EQ_SIZES = (32, 64, 128)
DEPTHS = (6, 10)
CHAINS = (64, 256, 1024)
REPEATS = 5
COMP = "coh comp (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) : x -> z\n"
VERT = "coh vert (x : *) (y : *) (f : x -> y) (g : x -> y) (a : f -> g) (h : x -> y) (b : g -> h) : f -> h\n"
WHISK = (
    "coh whisk (x : *) (y : *) (f : x -> y) (g : x -> y) (a : f -> g) (z : *) (h : y -> z)"
    " : comp [f, h] -> comp [g, h]\n"
)


def chain_def(n: int, body: str, name: str = "t") -> str:
    tele = " ".join(["(x0 : *)"] + [f"(x{i} : *) (a{i} : x{i - 1} -> x{i})" for i in range(1, n + 1)])
    return f"def {name} {tele} : x0 -> x{n} := {body}\n"


def left_nested_body(n: int) -> str:
    body = "a1"
    for i in range(2, n + 1):
        body = f"comp [{body}, a{i}]"
    return body


def random_body(n: int, seed: int = SEED) -> str:
    """The arrows a1 ... an composed in a bracketing whose split points are
    drawn uniformly from a generator seeded with seed."""
    rng = random.Random(seed)

    def composite(lo: int, hi: int) -> str:
        if lo == hi:
            return f"a{lo}"
        k = rng.randint(lo, hi - 1)
        return f"comp [{composite(lo, k)}, {composite(k + 1, hi)}]"

    return composite(1, n)


def left_nested(n: int) -> str:
    return COMP + chain_def(n, left_nested_body(n))


def random_bracketing(n: int) -> str:
    return COMP + chain_def(n, random_body(n))


def both_bracketings(n: int) -> str:
    """t, the left-nested composite of n arrows, and u, their random bracketing."""
    return COMP + chain_def(n, left_nested_body(n)) + chain_def(n, random_body(n), "u")


def whiskered_column(n: int) -> str:
    """The left-nested vertical composite of the 2-cells a1 ... an between
    parallel arrows f0 ... fn from x to y, whiskered by h : y -> z."""
    cells = " ".join(f"(f{i} : x -> y) (a{i} : f{i - 1} -> f{i})" for i in range(1, n + 1))
    body = "a1"
    for i in range(2, n + 1):
        body = f"vert [{body}, a{i}]"
    return (
        f"{COMP}{VERT}{WHISK}def t (x : *) (y : *) (f0 : x -> y) {cells} (z : *) (h : y -> z)"
        f" : comp [f0, h] -> comp [f{n}, h] := whisk [{body}, h]\n"
    )


def nested_defs(d: int) -> str:
    body = "f"
    for _ in range(d):
        body = f"comp [{body}, f]"
    return (
        f"{COMP}def b (x : *) (f : x -> x) : x -> x := {body}\n"
        "def c (x : *) (f : x -> x) : x -> x := b [b [b [f]]]\n"
    )


def best_time(text: str, name: str, repeats: int, trace: list | None = None) -> float:
    """The least time of one normalize call on the body of name, each run on
    a freshly elaborated copy of text; a list given as trace is cleared and
    handed to each call, so it ends with the last call's trace."""
    from cattsa.cli import elaborate_file
    from cattsa.parser import parse
    from cattsa.reduction import normalize

    best = math.inf
    for _ in range(repeats):
        decl = elaborate_file(parse(text))[name]
        if trace is not None:
            trace.clear()
        start = time.perf_counter()
        normalize(decl.ctx, decl.body, trace=trace)
        best = min(best, time.perf_counter() - start)
    return best


def def_eq_times(n: int, repeats: int) -> tuple[float, float]:
    """The least time of one def_eq call of t against u in both_bracketings(n),
    each on a freshly elaborated copy, and the least time of the == that ends
    def_eq, on the normal forms of one more normalize call of each."""
    from cattsa.cli import elaborate_file
    from cattsa.parser import parse
    from cattsa.reduction import def_eq, normalize

    best = best_eq = math.inf
    for _ in range(repeats):
        env = elaborate_file(parse(both_bracketings(n)))
        t, u = env["t"], env["u"]
        start = time.perf_counter()
        same = def_eq(t.ctx, t.body, u.body)
        best = min(best, time.perf_counter() - start)
        nt, nu = normalize(t.ctx, t.body), normalize(t.ctx, u.body)
        start = time.perf_counter()
        same = (nt == nu) and same
        best_eq = min(best_eq, time.perf_counter() - start)
        if not same:
            raise SystemExit(f"def_eq n = {n}: the two bracketings are not equal")
    return best, best_eq


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


def series(label: str, sizes: tuple[int, ...], text, steps=None) -> None:
    """Print the best-of-five normalize time of t in text(n) for each n in
    sizes, and per step when steps(n) counts them, then the log-log slope
    of the series."""
    times = []
    for n in sizes:
        times.append(best_time(text(n), "t", REPEATS))
        per_step = f" ({times[-1] / steps(n) * 1e6:6.1f} us per step)" if steps else ""
        print(f"{label} n = {n:3d}: {times[-1] * 1e3:8.2f} ms{per_step}", flush=True)
    print(f"{label} log-log slope: {slope(list(sizes), times):.2f}")


def main(src: str) -> None:
    sys.path.insert(0, src)
    series("left-nested", SIZES, left_nested, lambda n: n - 2)
    series(f"random bracketing (seed {SEED})", RANDOM_SIZES, random_bracketing)
    series("whiskered column", COLUMN_SIZES, whiskered_column)
    for n in DEF_EQ_SIZES:
        took, final = def_eq_times(n, REPEATS)
        print(f"def_eq left-nested vs random n = {n:3d}: {took * 1e3:8.2f} ms"
              f" (final ==: {final * 1e3:6.3f} ms, {final / took:5.1%})", flush=True)
    for n in TRACED_SIZES:
        trace: list[str] = []
        took = best_time(left_nested(n), "t", REPEATS, trace)
        chars = sum(map(len, trace))
        print(f"traced left-nested n = {n:3d}: {took * 1e3:8.2f} ms ({chars} trace characters)",
              flush=True)
    for d in DEPTHS:
        took = best_time(nested_defs(d), "c", 1)
        print(f"nested-def c, d = {d:2d} ({(d + 1) ** 3} arrows): {took:.3f} s", flush=True)
    for k in CHAINS:
        took = half_primed_insertion(k, REPEATS)
        print(f"half-primed insertion, k = {k:4d}: {took * 1e3:8.2f} ms", flush=True)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).resolve().parent.parent / "src"))
