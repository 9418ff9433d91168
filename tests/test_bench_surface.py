"""The library surface that the benchmark in rsbench/ calls and hooks.

rsbench drives rowsplit by name: a renamed or deleted name either breaks
a benchmark run or, for a traced name, silently reads 0.  These checks
make the same calls on small generated problems.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for p in (ROOT, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import numpy as np
import pytest

import rowsplit as rs
from rowsplit.cli import RunConfig
from rsbench.harness import to_csc
from rsbench.tracing import HOOKS
from rsbench.workloads import (
    WORKLOADS,
    appended_rows,
    grid_problem,
    quasi_square_problem,
    rhs_stream,
)

# Hooked names the library no longer has; the tracer skips them and their
# spans read 0.
GONE = {"rowsplit.precond.sparse_solve_sparse_rhs"}


def small_problem(name, seed):
    if name == "grid-cg":
        return grid_problem(seed, side=6)
    return quasi_square_problem(seed, n=40)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_calls(name):
    wl = WORKLOADS[name]
    seed = 5
    problem = small_problem(name, seed)
    scaled, scaling = rs.column_scale(to_csc(problem))
    factors = rs.ilup_factorize(scaled, rs.IlupParams(p=wl.p))
    pre = rs.build_preconditioner(factors, s_mode=rs.SMode(wl.s_mode))

    cfg = rs.CglsConfig(norm_A=rs.power_method_norm2(scaled, iters=20, seed=seed), max_iters=50)
    y, report = rs.pcgls(scaled, next(rhs_stream(seed, problem.nrows)), pre, cfg)
    assert y.shape == (problem.ncols,) and np.all(np.isfinite(y))
    assert 0 <= report.its <= 50

    # every workload folds all its appended rows in; none needs a rebuild
    rows, _ = appended_rows(seed, problem.ncols)
    for cols, vals in rows:
        pre = pre.add_row(cols, vals / scaling.scale[cols])
    assert pre.factors.nrows == problem.nrows + len(rows)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cli_parity_config(name):
    wl = WORKLOADS[name]
    cfg = RunConfig(matrix_path="m.mtx", p=wl.p, s_mode=wl.s_mode,
                    max_iters=wl.pre_max_iters, rhs_seed=7)
    assert (cfg.p, cfg.s_mode, cfg.max_iters, cfg.rhs_seed) == (
        wl.p, wl.s_mode, wl.pre_max_iters, 7)


def test_tracing_hooks_resolve():
    missing = set()
    for modname, attr, _, _ in HOOKS:
        fn = getattr(importlib.import_module(modname), attr, None)
        if fn is None:
            missing.add(f"{modname}.{attr}")
        else:
            assert callable(fn), f"{modname}.{attr}"
    assert missing <= GONE
