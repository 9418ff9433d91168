"""Charging of failed solves, span self times, CLI parity and the output contract."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rsbench import harness
from rsbench.tracing import Tracer
from rsbench.verify import Verifier
from rsbench.workloads import WORKLOADS, make_problem

ROOT = Path(__file__).resolve().parents[2]


def test_failed_solve_is_charged_as_running_to_the_cap():
    ok = harness.Solve("pre", 0.5, 101, 1000, relgrad=1e-10, loop_seconds=0.4)
    wrong = harness.Solve("pre", 0.3, 51, 1000, relgrad=0.3, converged=True, loop_seconds=0.2)
    raised = harness.Solve("pre", 0.2, 0, 1000, relgrad=np.inf, error="ZeroDivisionError")
    capped = harness.Solve("pre", 9.0, 1000, 1000, relgrad=0.1, loop_seconds=8.8)
    assert wrong.false_converged and not wrong.verified and not raised.verified
    assert capped.cap_hit and not wrong.cap_hit
    assert [r.charged_iters() for r in (ok, wrong, raised)] == [101, 1000, 1000]
    # 9.4 s of loop time over 100 + 50 + 999 iteration gaps
    rate = 9.4 / 1149
    assert np.allclose(harness.charged_seconds([ok, wrong, raised, capped]),
                       [0.5, 0.3 + 949 * rate, 0.2 + 1000 * rate, 9.0])


def test_only_a_raised_solve_is_a_failed_operation():
    ok = harness.Solve("pre", 0.5, 101, 1000, relgrad=1e-10)
    wrong = harness.Solve("pre", 0.3, 51, 1000, relgrad=0.3, converged=True)
    raised = harness.Solve("pre", 0.2, 0, 1000, relgrad=np.inf, error="ZeroDivisionError")
    assert harness.operation_counts([ok, wrong, raised]) == (3, 1, 1)


def test_failed_solve_without_a_rate_is_not_charged():
    raised = harness.Solve("pre", 0.2, 0, 1000, relgrad=np.inf, error="ZeroDivisionError")
    quick = harness.Solve("pre", 0.1, 1, 1000, relgrad=1e-12)
    # nothing iterated, so a time per iteration cannot be measured
    assert harness.charged_seconds([raised, quick]) is None
    assert harness.charged_or_raw([raised, quick]) == [0.2, 0.1]
    assert harness.charged_seconds([quick]) == [0.1]


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(20000)))
    middle = tracer.wrap("middle", lambda: (leaf(), leaf()))
    tracer.call("outer", lambda: (middle(), leaf()))
    t = tracer.table()
    outer = t.mask("outer")
    # self times of nested spans add up to the outermost duration
    assert np.isclose(t.self_time.sum(), t.dur[outer].sum())
    assert np.all(t.self_time >= 0.0)
    assert np.all(t.parent[t.mask("middle")] == np.flatnonzero(outer)[0])
    assert (t.nearest_ancestor("middle")[t.mask("leaf")] >= 0).sum() == 2


def test_hooks_restore_the_library():
    import rowsplit.precond as precond
    import rowsplit.solver as solver

    before = (solver.matvec, precond.sparse_lower_solve)
    tracer = Tracer()
    with tracer.hooks():
        assert solver.matvec is not before[0]
    assert (solver.matvec, precond.sparse_lower_solve) == before
    assert "rowsplit.solver.matvec" in tracer.hooked


def test_illc1850_pipeline_matches_the_cli():
    wl = dataclasses.replace(WORKLOADS["illc1850-dense"], max_iters=60, pre_max_iters=60)
    seed = 5
    problem = make_problem(wl, seed, ROOT)
    verifier = Verifier(problem.to_scipy())
    built = harness.set_up(wl, problem, None, seed, harness.NullTracer())
    loop = harness.Loop()
    harness.rhs_loop(wl, built, verifier, seed, 0.0, harness.NullTracer(), loop, lsqr=False)
    checks = harness.correctness_checks(wl, problem, built, verifier, seed, loop)
    assert checks["cli_parity"]["ok"], checks["cli_parity"]
    assert checks["ingest_matches_scipy"] and checks["verifier_rejects_zero"]
    assert checks["failed_solves_charged"]


def _run(cwd, *args):
    return subprocess.run([sys.executable, "rsbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_every_declared_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run(ROOT, "--workload", "grid-cg", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["correct"] is True and line["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared


def test_workload_rationale_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()}


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "rsbench", tmp_path / "rsbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(tmp_path, "--workload", "grid-cg", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
