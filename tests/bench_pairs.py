"""Run the benchmark on two commits in alternating pairs and record the result.

    python3 tests/bench_pairs.py PARENT CHANGE --workload W --pairs N \
        --seconds S --seeds A-B --out BENCH_<n>.json [--claim METRIC:PCT]

exports each commit with `git archive` into a directory of its own and
runs `python3 bench/run.py --workload W --seed SEED --seconds S --trace 0`
in each, one after the other: the parent goes first in even-numbered
pairs (0, 2, ...) and the change first in odd-numbered ones, and both
runs of pair i use seed A + i.  No copy gets a bytecode cache
(PYTHONDONTWRITEBYTECODE=1), as in the benchmark's environment.

The workload's medians, quartiles (statistics.quantiles(n=4,
method='inclusive') over the runs of one side), per-pair comparison and
every run go into OUT under "workloads"; an OUT that exists for the same
two commits and the same --seconds keeps its other workloads, so one file
gathers a claimed workload and the ones measured to show no regression.
--claim wall_s:5 states the claim for this workload: at least 9 in 10
pairs lower on the change, a median gap larger than the parent's IQR,
and a median at least 5 % below the parent's.  The exit code is 1 when a
run fails or gives a wrong verdict, else 0.  pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "setup_s", "peak_rss_mib")
PAIRS_SHARE = 0.9  # of the pairs, at least, must be lower on the change


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(sha: str, into: Path) -> Path:
    """The tree of commit sha, written under into/sha."""
    out = into / sha
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(out)
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=4 * seconds + 300)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout.name}: no output\n{done.stderr}")
    result = json.loads(lines[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"] and done.returncode == 0,
            **{m: result["metrics"][m]["value"] for m in METRICS}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5),
            "iqr": round(q3 - q1, 5)}


def summary(runs: list[dict], seeds: list[int]) -> dict:
    side = {s: [r for r in runs if r["side"] == s] for s in ("parent", "change")}
    out = {
        "pairs": len(seeds),
        "seeds": seeds,
        "failed": {s: sum(r["failed"] for r in rs) for s, rs in side.items()},
        "attempted": {s: sum(r["attempted"] for r in rs) for s, rs in side.items()},
        "all_correct": all(r["correct"] for r in runs),
    }
    for m in METRICS:
        by_pair = {s: {r["pair"]: r[m] for r in rs} for s, rs in side.items()}
        parent, change = (spread(list(by_pair[s].values())) for s in ("parent", "change"))
        lower = sum(by_pair["change"][i] < by_pair["parent"][i] for i in by_pair["parent"])
        out[m] = {
            "parent": parent,
            "change": change,
            "change_lower_in_pairs": f"{lower}/{len(seeds)}",
            "median_ratio_change_over_parent": round(change["median"] / parent["median"], 4),
            "median_gap": round(change["median"] - parent["median"], 5),
        }
    out["runs_pair_side_seed_wall_setup_rss"] = [
        [r["pair"], r["side"], r["seed"], *(round(r[m], 5 if m != "peak_rss_mib" else 4)
                                            for m in METRICS)]
        for r in runs
    ]
    return out


def claim(workload: str, metric: str, pct: float, stats: dict) -> dict:
    m = stats[metric]
    lower, pairs = map(int, m["change_lower_in_pairs"].split("/"))
    gap, iqr = -m["median_gap"], m["parent"]["iqr"]
    below = 100 * (1 - m["median_ratio_change_over_parent"])
    unit = "MiB" if metric == "peak_rss_mib" else "s"
    out = {
        "workload": workload,
        "metric": metric,
        "rule": (f"at least 10 pairs, change lower in at least 9 of 10 pairs, the median gap "
                 f"larger than the parent's IQR, and the median at least {pct:g} % below the "
                 f"parent's"),
        "pairs_rule_met": pairs >= 10 and lower >= math.ceil(PAIRS_SHARE * pairs),
        "iqr_rule_met": gap > iqr,
        "target_met": below >= pct,
    }
    out["met"] = out["pairs_rule_met"] and out["iqr_rule_met"] and out["target_met"]
    out["verdict"] = (
        f"{'met' if out['met'] else 'not met'}: lower in {lower}/{pairs} pairs, {below:.1f}% "
        f"lower in the median ({m['parent']['median']} -> {m['change']['median']} "
        f"{unit}), a gap of {gap:.5f} {unit} against a parent IQR of {iqr} {unit}"
    )
    return out


def interpreter() -> str:
    probe = "import platform; print(platform.python_implementation(), platform.python_version())"
    return subprocess.run(["python3", "-c", probe], capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seeds", required=True, help="A-B: pair i runs at seed A + i")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--claim", help="METRIC:PCT, the gain this workload is claimed to show")
    args = ap.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    if last - first + 1 < args.pairs:
        ap.error(f"--seeds {args.seeds} holds fewer than {args.pairs} seeds")
    seeds = list(range(first, first + args.pairs))
    parent, change = (git("rev-parse", "--verify", f"{c}^{{commit}}").decode().strip()
                      for c in (args.parent, args.change))

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if doc and (doc["parent_sha"], doc["change_sha"], doc["seconds"]) != (
            parent, change, args.seconds):
        ap.error(f"{args.out} records other commits or another --seconds")
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": export(parent, Path(tmp)), "change": export(change, Path(tmp))}
        for pair, seed in enumerate(seeds):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                r = run_once(trees[side], args.workload, seed, args.seconds)
                runs.append({"pair": pair, "side": side, "seed": seed, **r})
                print(f"pair {pair} {side} seed {seed}: wall_s {r['wall_s']:.5f} "
                      f"setup_s {r['setup_s']:.5f} peak_rss_mib {r['peak_rss_mib']:.2f}"
                      f"{'' if r['correct'] else ' FAILED'}", flush=True)

    stats = summary(runs, seeds)
    doc.update({
        "what": (f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
                 "--trace 0, run alternately on the parent commit and on the change, each in "
                 "its own directory (git archive of the commit), same seed within a pair; "
                 "times are the harness's rescaled medians"),
        "parent_sha": parent,
        "change_sha": change,
        "interpreter": interpreter(),
        "machine": f"{os.cpu_count()} vCPU {platform.system()} {platform.machine()}",
        "seconds": args.seconds,
        "pair_order": ("parent first in even-numbered pairs (0, 2, ...), change first in "
                       "odd-numbered ones; neither copy had a bytecode cache "
                       "(PYTHONDONTWRITEBYTECODE=1)"),
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs of one side",
    })
    doc.setdefault("workloads", {})[args.workload] = stats
    if args.claim:
        metric, pct = args.claim.split(":")
        doc["claim"] = claim(args.workload, metric, float(pct), stats)
    others = {w: s["pairs"] for w, s in doc["workloads"].items()
              if w != doc.get("claim", {}).get("workload")}
    if others:
        doc["not_claimed"] = ", ".join(f"{w} ({n} pairs)" for w, n in others.items()) + (
            " measured to show no regression; the numbers are reported, not claimed")
    order = ("what", "claim", "not_claimed", "parent_sha", "change_sha", "interpreter",
             "machine", "seconds", "pair_order", "quartiles", "workloads")
    args.out.write_text(json.dumps({k: doc[k] for k in order if k in doc}, indent=1) + "\n")
    return 0 if stats["all_correct"] and not any(stats["failed"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
