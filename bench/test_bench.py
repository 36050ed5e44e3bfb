"""Self-tests of the benchmark at a tiny size.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_kernel()

import inputs  # noqa: E402
import tracer  # noqa: E402
from cattsa import syntax, typecheck  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


def test_spec_names_the_workloads():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_small_run_has_no_wrong_verdicts(name, capsys):
    result = run.run(name, SEED, seconds=0, trace=False, small=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "wrong_verdicts 0 count" in capsys.readouterr().out


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_small_traced_run_reports_every_layer(name):
    result = run.run(name, SEED, seconds=0, trace=True, small=True)
    assert result["correct"], "a wrong verdict or a count that did not repeat"
    metrics = result["metrics"]
    assert set(metrics) == _names("per_layer")
    self_s = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracer.LAYERS)
    total = self_s + metrics["trace.unattributed_s"]["value"]
    assert total == pytest.approx(metrics["trace.wall_s"]["value"], rel=0.5)
    if name == "check-catt":
        assert metrics["reduction.calls"]["value"] == 0
    else:
        assert metrics["reduction.steps"]["value"] > 0
        assert 0 < metrics["insertion.used_ratio"]["value"] <= 1


def _corrupt(workload) -> None:
    """Flip one known answer of each kind the workload checks."""
    if isinstance(workload, run.Nfold):
        workload.cases = [
            dataclasses.replace(c, expected=not c.expected) if c.kind == "def_eq"
            else dataclasses.replace(c, expected=("wrong",))
            for c in workload.cases
        ]
        return
    ops = []
    for op in workload.ops:
        if op.kind == "check":
            first = next(iter(op.expected))
            op = dataclasses.replace(op, expected={**op.expected,
                                                   first: not op.expected[first]})
        else:
            op = dataclasses.replace(op, expected=not op.expected)
        ops.append(op)
    workload.ops = ops


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_wrong_expected_verdict_is_caught(name):
    workload = run.make_workload(name, SEED, small=True)
    try:
        workload.setup()
        _corrupt(workload)
        tally = run.Tally()
        workload.run_pass(tally, None)
    finally:
        if isinstance(workload, run.Check):
            shutil.rmtree(workload.work, ignore_errors=True)
    assert tally.failed == 0
    assert tally.wrong >= len(workload.ops if isinstance(workload, run.Check)
                              else workload.cases)


def test_inputs_follow_the_seed():
    assert inputs.catt_files(1, (4, 5)) == inputs.catt_files(1, (4, 5))
    assert inputs.catt_files(1, (4, 5)) != inputs.catt_files(2, (4, 5))
    same = [inputs.canonical_key(c.other) for c in inputs.nfold_cases(3) if c.other]
    assert same == [inputs.canonical_key(c.other) for c in inputs.nfold_cases(3) if c.other]


def _rename_bound(coh: syntax.Coh, suffix: str) -> syntax.Coh:
    ren = syntax.Substitution(tuple((v, syntax.Var(v + suffix)) for v in coh.ctx.vars))
    ctx = syntax.Context(tuple((v + suffix, syntax.apply_sub_type(ty, ren))
                               for v, ty in coh.ctx.entries))
    sub = syntax.Substitution(tuple((v + suffix, t) for v, t in coh.sub.entries))
    return syntax.Coh(ctx, syntax.apply_sub_type(coh.ty, ren), sub)


def test_canonical_key_ignores_bound_names_only():
    a = inputs.unbiased_column(3)
    assert inputs.canonical_key(a) == inputs.canonical_key(_rename_bound(a, "'"))
    other_free = syntax.Coh(a.ctx, a.ty, a.sub.replace(0, syntax.Var("w")))
    assert inputs.canonical_key(a) != inputs.canonical_key(other_free)


def test_tracer_rebinds_every_importer_and_joins_recursion():
    original = typecheck.alpha_eq
    probe = tracer.Tracer()
    probe.install()
    try:
        assert typecheck.alpha_eq is not original
        assert syntax.alpha_eq.__wrapped__ is original
        term = inputs.arrow_composite(inputs.left_nested(4))
        syntax.support(inputs.chain_ctx(4), term)  # recursive
    finally:
        probe.uninstall()
    assert typecheck.alpha_eq is original
    assert probe.calls == {"syntax.support": 1}
    assert probe.self_ns["syntax"] > 0


def test_absent_names_are_reported(monkeypatch):
    monkeypatch.setitem(tracer.LAYERS, "syntax", ("cattsa.syntax", ("alpha_eq", "gone")))
    probe = tracer.Tracer()
    probe.install()
    probe.uninstall()
    assert probe.absent == ["cattsa.syntax.gone"]


def test_without_kernel_sources_it_fails_without_a_result():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "nfold", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
