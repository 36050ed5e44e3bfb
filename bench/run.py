"""Benchmark of the cattsa kernel: time to verdict, set-up, memory, and a
separate traced run for per-layer numbers.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {nfold,check-sa,check-catt} \
        --seed N --seconds S --trace {0,1}

Each workload's inputs are generated from the seed.  Passes over the
workload repeat until the time budget is spent and timings are reported as
medians.  Every verdict is checked against the answer the input generator
derived from the theory.  With ``--trace 0`` the last line of standard
output is the JSON result with the end-to-end metrics; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are
reported.  See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("nfold", "check-sa", "check-catt")
SETUP_REPEATS = 5
SETUP_BUDGET_S = 1.0
CLI_TIMEOUT_S = 120


class KernelMissing(Exception):
    pass


def load_kernel() -> None:
    """Put the checkout's own sources first on the path and import them."""
    if not (SRC / "cattsa" / "__init__.py").is_file():
        raise KernelMissing(f"no kernel sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import cattsa

    if Path(cattsa.__file__).resolve().parent != (SRC / "cattsa").resolve():
        raise KernelMissing(f"imported cattsa from {cattsa.__file__}, not {SRC}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Tally:
    """Operations attempted, crashed, and verdicts that differ from the
    known answer; a correct "not equal" or "type error" is a success."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)

    def wrong_verdicts(self, count: int, note: str) -> None:
        if count:
            self.wrong += count
            self.notes.append(note)


@dataclass
class Pass:
    wall_ns: int  # as measured
    ref_ns: float  # at reference speed, see speed.py
    sizes: dict[int, float]  # n -> reference-speed time of the op that sets the series
    trace: dict | None = None


# ---------------------------------------------------------------------------
# nfold: library calls on large composites
# ---------------------------------------------------------------------------


class Nfold:
    def __init__(self, seed: int, sizes_1d=None, sizes_2d=None) -> None:
        import inputs

        self.seed = seed
        self.sizes_1d = sizes_1d or inputs.NFOLD_1D
        self.sizes_2d = sizes_2d or inputs.NFOLD_2D
        self.cases: list = []

    def setup(self) -> None:
        import inputs

        self.cases = inputs.nfold_cases(self.seed, self.sizes_1d, self.sizes_2d)

    def run_pass(self, tally: Tally, meter: SpeedMeter | None, probe=None) -> Pass:
        """One pass over the cases; without a meter, times are not rescaled."""
        import inputs
        from cattsa import reduction

        if probe is not None:
            probe.install()
        wall, ref, sizes = 0, 0.0, {}
        try:
            for case in self.cases:
                factor = meter.factor() if meter is not None else 1.0
                tally.attempted += 1
                start = time.perf_counter_ns()
                try:
                    if case.kind == "normalize":
                        out = reduction.normalize(case.ctx, case.term)
                    else:
                        out = reduction.def_eq(case.ctx, case.term, case.other)
                except Exception:  # a crash is a failed operation, not a stop
                    took = time.perf_counter_ns() - start
                    wall, ref = wall + took, ref + took * factor
                    tally.fail(f"{case.kind} {case.series} n={case.n}: "
                               + traceback.format_exc(limit=3))
                    continue
                took = time.perf_counter_ns() - start
                wall, ref = wall + took, ref + took * factor
                if case.kind == "normalize":
                    got = inputs.canonical_key(out)
                    if case.series == "1d":
                        sizes[case.n] = took * factor
                else:
                    got = out
                tally.wrong_verdicts(
                    int(got != case.expected),
                    f"{case.kind} {case.series} n={case.n}: wrong verdict",
                )
        finally:
            if probe is not None:
                probe.uninstall()
        summary = probe.summary() if probe is not None else None
        return Pass(wall, ref, sizes, summary)

    def traced_pass(self, tally: Tally, meter: SpeedMeter) -> Pass:
        import tracer

        return self.run_pass(tally, meter, tracer.Tracer())

    def speed_meter(self) -> SpeedMeter:
        return SpeedMeter()

    def count_pass(self, tally: Tally) -> dict:
        import inputs
        import tracer

        probe = tracer.StepCounter(inputs.node_count)
        return self.run_pass(tally, None, probe).trace

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# check-sa / check-catt: the command line on generated .catt files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    kind: str  # "check" or "eq"
    n: int
    argv: tuple[str, ...]
    expected: object  # {decl: ok} for check, a bool for eq


class Check:
    def __init__(self, seed: int, mode: str, work: Path, sizes=None) -> None:
        import inputs

        self.seed, self.mode, self.work = seed, mode, work
        self.sizes = sizes or inputs.CHECK_SIZES
        self.ops: list[CliOp] = []
        self._calls = 0

    def setup(self) -> None:
        import inputs

        self.work.mkdir(parents=True, exist_ok=True)
        ops = []
        files = inputs.catt_files(self.seed, self.sizes)
        for f in files:
            path = self.work / f"n{f.n}.catt"
            path.write_text(f.text, encoding="utf-8")
            verdicts = {name: v[self.mode] for name, v in f.verdicts.items()}
            ops.append(CliOp("check", f.n, ("check", str(path), "--json", "--mode", self.mode),
                             verdicts))
        last = files[-1]
        for a, b, equal in last.eq_pairs:
            path = self.work / f"n{last.n}.catt"
            ops.append(CliOp("eq", last.n,
                             ("eq", str(path), a, b, "--json", "--mode", self.mode),
                             equal[self.mode]))
        self.ops = ops
        bare = subprocess.run([sys.executable, "-c", "import cattsa.cli"], cwd=ROOT,
                              env=child_env(), capture_output=True, timeout=CLI_TIMEOUT_S)
        if bare.returncode != 0:
            raise RuntimeError("cannot import cattsa.cli: " + bare.stderr.decode()[-500:])

    def _run(self, op: CliOp, tally: Tally, probe: str | None) -> tuple[int, dict | None]:
        if probe is None:
            cmd = [sys.executable, "-m", "cattsa.cli", *op.argv]
        else:
            self._calls += 1
            out_path = self.work / f"probe{self._calls}.json"
            cmd = [sys.executable, str(HERE / "launch.py"), probe, str(out_path), *op.argv]
        tally.attempted += 1
        start = time.perf_counter_ns()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            tally.fail(f"{op.kind} n={op.n}: timed out after {CLI_TIMEOUT_S} s")
            return time.perf_counter_ns() - start, None
        took = time.perf_counter_ns() - start
        self._verify(op, proc, tally)
        summary = None
        if probe is not None and out_path.exists():
            summary = json.loads(out_path.read_text())
            out_path.unlink()
        return took, summary

    def _verify(self, op: CliOp, proc: subprocess.CompletedProcess, tally: Tally) -> None:
        stderr = proc.stderr.decode(errors="replace")
        label = f"{op.kind} n={op.n} ({self.mode})"
        if "Traceback" in stderr or proc.returncode not in (0, 1):
            tally.fail(f"{label}: exit {proc.returncode}: {stderr[-500:]}")
            return
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            tally.fail(f"{label}: output is not JSON: {proc.stdout[:200]!r}")
            return
        if op.kind == "check":
            got = {r["name"]: r["ok"] for r in report["results"]}
            names = set(got) | set(op.expected)
            wrong = [n for n in sorted(names) if got.get(n) != op.expected.get(n)]
            want_code = 0 if all(op.expected.values()) else 1
        else:
            wrong = ["equal"] if report["equal"] != op.expected else []
            want_code = 0 if op.expected else 1
        if proc.returncode != want_code:
            wrong.append(f"exit code {proc.returncode}")
        tally.wrong_verdicts(len(wrong), f"{label}: wrong verdicts for {wrong}")

    def run_pass(self, tally: Tally, meter: SpeedMeter | None,
                 probe: str | None = None) -> Pass:
        """One pass over the calls; without a meter, times are not rescaled."""
        import tracer

        wall, ref, sizes = 0, 0.0, {}
        empty = tracer.Tracer() if probe == "trace" else tracer.StepCounter(None)
        summary = empty.summary()  # stays well formed if a child writes none
        for op in self.ops:
            factor = meter.factor() if meter is not None else 1.0
            took, part = self._run(op, tally, probe)
            wall, ref = wall + took, ref + took * factor
            if op.kind == "check":
                sizes[op.n] = took * factor
            if part is not None:
                tracer.merge(summary, part)
        return Pass(wall, ref, sizes, summary if probe is not None else None)

    def traced_pass(self, tally: Tally, meter: SpeedMeter) -> Pass:
        return self.run_pass(tally, meter, "trace")

    def speed_meter(self) -> SpeedMeter:
        return SpeedMeter((ROOT, child_env()))

    def count_pass(self, tally: Tally) -> dict:
        return self.run_pass(tally, None, "count").trace

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def make_workload(name: str, seed: int, small: bool = False):
    """The named workload; small=True gives the reduced sizes the
    self-tests use."""
    if name == "nfold":
        return Nfold(seed, (4, 6), (2, 3)) if small else Nfold(seed)
    mode = name.split("-", 1)[1]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    return Check(seed, mode, work, (3, 4)) if small else Check(seed, mode, work)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def slope(points: dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n in points]
    ys = [math.log(t) for t in points.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0


def median_sizes(passes: list[Pass]) -> dict[int, float]:
    return {n: statistics.median(p.sizes[n] for p in passes)
            for n in passes[0].sizes if all(n in p.sizes for p in passes)}


def scaled(p: Pass, ns: float) -> float:
    """A time measured during pass p, in reference-speed seconds."""
    return ns * (p.ref_ns / p.wall_ns) / 1e9


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_setup(workload, meter: SpeedMeter) -> tuple[float, float]:
    """Median set-up time over SETUP_REPEATS set-ups, or more while they
    take under SETUP_BUDGET_S in total: (reference-speed s, measured s)."""
    times: list[int] = []
    refs: list[float] = []
    while len(times) < SETUP_REPEATS or (
            sum(times) < SETUP_BUDGET_S * 1e9 and len(times) < 200):
        factor = meter.factor()
        start = time.perf_counter_ns()
        workload.setup()
        times.append(time.perf_counter_ns() - start)
        refs.append(times[-1] * factor)
    return statistics.median(refs) / 1e9, statistics.median(times) / 1e9


def end_to_end(workload, seconds: float, tally: Tally) -> dict:
    meter = workload.speed_meter()
    setup_s, measured_setup_s = measure_setup(workload, meter)
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(workload.run_pass(tally, meter))
    measured_wall_s = statistics.median(p.wall_ns for p in passes) / 1e9
    print(f"passes {len(passes)}; measured wall_s {measured_wall_s} s, "
          f"setup_s {measured_setup_s} s; speed scale {meter.median_factor()} "
          f"from {len(meter.samples)} reference jobs")
    return {
        "wall_s": metric(statistics.median(p.ref_ns for p in passes) / 1e9, "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mib": metric(workload.peak_rss_mib(), "MiB"),
    }


def repeat_mismatch(summaries: list[dict], keys: tuple[str, ...]) -> list[str]:
    """Counts that differ between passes that ran the same inputs."""
    first = summaries[0]
    return [f"{key} differs between passes: {first.get(key)} vs {s.get(key)}"
            for s in summaries[1:] for key in keys if s.get(key) != first.get(key)]


def per_layer(workload, seconds: float, tally: Tally) -> dict:
    import tracer

    workload.setup()
    meter = workload.speed_meter()
    plain: list[Pass] = []
    traced: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        plain.append(workload.run_pass(tally, meter))
        traced.append(workload.traced_pass(tally, meter))
    counted = [workload.count_pass(tally) for _ in range(2)]
    print(f"passes {len(plain)} untraced, {len(traced)} traced, {len(counted)} counted")

    mismatch = repeat_mismatch([p.trace for p in traced], ("calls", "site_calls"))
    mismatch += repeat_mismatch(counted, ("steps", "nf_nodes", "normalize_calls"))
    for note in mismatch:
        tally.wrong_verdicts(1, "exact-repeat check: " + note)
    absent = sorted(set(traced[0].trace["absent"]) | set(counted[0]["absent"]))
    if absent:
        print("absent: " + ", ".join(absent))

    calls = traced[0].trace["calls"]
    site_calls = traced[0].trace["site_calls"]
    out: dict[str, dict] = {}
    for layer, (_, names) in tracer.LAYERS.items():
        self_s = statistics.median(scaled(p, p.trace["self_ns"].get(layer, 0))
                                   for p in traced)
        out[f"{layer}.self_s"] = metric(self_s, "s")
        out[f"{layer}.calls"] = metric(
            sum(calls.get(f"{layer}.{name}", 0) for name in names), "count")

    steps, inserts = counted[0]["steps"], calls.get("insertion.insert_ctx", 0)
    plain_wall = statistics.median(p.ref_ns for p in plain) / 1e9
    traced_wall = statistics.median(p.ref_ns for p in traced) / 1e9
    unattributed = statistics.median(
        scaled(p, p.wall_ns - sum(p.trace["self_ns"].values())) for p in traced)
    out.update({
        "reduction.steps": metric(steps, "count"),
        "reduction.normalize_calls": metric(calls.get("reduction.normalize", 0), "count"),
        "reduction.nf_nodes": metric(counted[0]["nf_nodes"], "count"),
        "typecheck.def_eq_calls": metric(site_calls.get("cattsa.typecheck:def_eq", 0),
                                         "count"),
        "insertion.insert_ctx_calls": metric(inserts, "count"),
        "insertion.used_ratio": metric(steps / inserts if inserts else 0.0, "ratio"),
        "pasting.check_pd_calls": metric(calls.get("pasting.check_pd", 0), "count"),
        "syntax.alpha_eq_calls": metric(calls.get("syntax.alpha_eq", 0), "count"),
        "trace.wall_s": metric(traced_wall, "s"),
        "trace.unattributed_s": metric(unattributed, "s"),
        "trace.overhead_share": metric((traced_wall - plain_wall) / plain_wall, "ratio"),
        "scaling_exponent": metric(slope(median_sizes(plain)), "log/log"),
    })
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        small: bool = False) -> dict:
    """One benchmark run, returned as the result object that is printed."""
    workload = make_workload(workload_name, seed, small)
    tally = Tally()
    try:
        measure = per_layer if trace else end_to_end
        metrics = measure(workload, seconds, tally)
    finally:
        if isinstance(workload, Check):
            shutil.rmtree(workload.work, ignore_errors=True)
    print(f"wrong_verdicts {tally.wrong} count")
    print(f"failed_share {tally.failed / max(tally.attempted, 1)} ratio")
    for note in tally.notes[:20]:
        print("note: " + note.rstrip(), file=sys.stderr)
    return {
        "correct": tally.wrong == 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        load_kernel()
    except (KernelMissing, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        print(f"workload {name} seed {args.seed} trace {args.trace}")
        result = results[name] = run(name, args.seed, args.seconds, bool(args.trace))
        for metric_name, m in result["metrics"].items():
            print(f"{metric_name} {m['value']} {m['unit']}")
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
