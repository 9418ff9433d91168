"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
happen.  The two HB matrices live in data/; beaflw is skipped when the
file is absent (scripts/fetch_matrices.py downloads it).
"""

import json
import time

import numpy as np
from numpy.testing import assert_array_equal

from rowsplit import (
    CglsConfig,
    IlupParams,
    SMode,
    build_preconditioner,
    column_scale,
    ilup_factorize,
    pcgls,
    power_method_norm2,
    read_matrix_market_ex,
)
from rowsplit.cli import RunConfig, run_single
from oracle import dense_lls_solve, dense_woodbury_correction
from rowsplit import precond
from rowsplit.precond import _gram_plus_identity

from conftest import csc, rel_err, require_matrix, well_conditioned_split


def verdict(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def load_scaled(path):
    A, info = read_matrix_market_ex(path)
    scaled, _ = column_scale(A)
    return A, info, scaled


def solve_pipeline(scaled, s_mode, seed=42, delta=1e-10,
                   max_iters=2000, tau=0.0, p=10):
    factors = ilup_factorize(scaled, IlupParams(p=p, tau=tau, mu=0.1, small=1e-10))
    pre = build_preconditioner(factors, s_mode=s_mode)
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1.0, 1.0, scaled.nrows)
    norm_a = power_method_norm2(scaled, iters=100, seed=seed)
    cfg = CglsConfig(norm_A=norm_a, delta=delta, max_iters=max_iters, estimator_delay=5)
    return pcgls(scaled, b, pre, cfg)


def test_criterion_01_woodbury_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 26))
        m = int(rng.integers(n, 41))
        k = int(rng.integers(n, m + 1))
        # leading block with singular values in [0.5, 2]: the 1e-11
        # agreement bound needs bounded conditioning in float64
        q1 = np.linalg.qr(rng.standard_normal((k, n)))[0]
        q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a_top = (q1 * rng.uniform(0.5, 2.0, n)) @ q2.T
        a = np.vstack([a_top, 0.7 * rng.standard_normal((m - k, n))])
        b = rng.uniform(-1, 1, m)
        x0 = rng.standard_normal(n)
        r = b - a @ x0
        # the oracle itself asserts the two closed forms agree to 1e-11
        delta = dense_woodbury_correction(a[:k], a[k:], r[:k], r[k:])
        x_true = dense_lls_solve(a, b).x_true
        err = np.linalg.norm(a @ (x0 + delta - x_true))
        scale = np.linalg.norm(a @ x_true)
        worst = max(worst, err / (scale if scale else 1.0))
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        worst <= 1e-9 and elapsed < 5.0,
        f"200 instances, worst energy-norm rel err {worst:.2e} (tol 1e-9), {elapsed:.1f}s",
    )


def test_criterion_02_factorization_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 31))
        m = int(rng.integers(n, 51))
        a = rng.standard_normal((m, n))
        if rng.random() < 0.5:
            a *= rng.random((m, n)) < 0.6  # sparse variants too
            a[np.arange(n), np.arange(n)] += 2.0
        f = ilup_factorize(csc(a), IlupParams(p=m, tau=0.0, mu=0.1))
        L = np.vstack([f.L1.to_dense() + np.eye(n), f.L2.to_dense()])
        recon = L @ f.U.to_dense()
        worst = max(worst, np.linalg.norm(recon - a[f.row_perm.perm]) / np.linalg.norm(a))
    elapsed = time.perf_counter() - t0
    verdict(
        2,
        worst <= 1e-12 and elapsed < 5.0,
        f"100 instances, worst reconstruction {worst:.2e} (tol 1e-12), {elapsed:.1f}s",
    )


def test_criterion_03_exact_preconditioner_one_step():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_its, worst_ratio = 0, 0.0
    for _ in range(30):
        n = int(rng.integers(3, 31))
        m = n + int(rng.integers(0, 6))
        a = rng.standard_normal((m, n))
        scaled, _ = column_scale(csc(a))
        f = ilup_factorize(scaled, IlupParams(p=m, tau=0.0, mu=0.1))
        pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
        b = rng.uniform(-1, 1, m)
        norm_a = power_method_norm2(scaled, iters=100, seed=3)
        x, report = pcgls(scaled, b, pre, CglsConfig(norm_A=norm_a))
        assert report.converged
        worst_its = max(worst_its, report.its)
        worst_ratio = max(worst_ratio, report.ratio_pt_final)
    elapsed = time.perf_counter() - t0
    verdict(
        3,
        worst_its <= 2 and worst_ratio <= 1e-10 and elapsed < 5.0,
        f"30 instances, worst its {worst_its} (<=2), worst ratio {worst_ratio:.2e} (<=1e-10), {elapsed:.1f}s",
    )


def test_criterion_04a_table1_ingestion_illc1850():
    A, info, _ = load_scaled(require_matrix("illc1850.mtx"))
    ok = (
        (A.nrows, A.ncols) == (1850, 712)
        and info.entries_read == 8758
        and A.nnz == info.entries_read - info.explicit_zeros
    )
    verdict(
        4,
        ok,
        f"illc1850: {A.nrows}x{A.ncols}, {info.entries_read} entries read "
        f"({info.explicit_zeros} explicit zeros, {A.nnz} stored)",
    )


def test_criterion_04b_table1_ingestion_beaflw():
    B, binfo = read_matrix_market_ex(require_matrix("beaflw.mtx"))
    ok = (B.nrows, B.ncols) == (500, 492) and binfo.entries_read == 53403
    verdict(4, ok, f"beaflw: {B.nrows}x{B.ncols}, {binfo.entries_read} entries read")


def test_criterion_05_illc1850_band():
    t0 = time.perf_counter()
    _, _, scaled = load_scaled(require_matrix("illc1850.mtx"))
    _, rep_cg = solve_pipeline(scaled, SMode.INNER_CG)
    elapsed = time.perf_counter() - t0
    ok = rep_cg.converged and rep_cg.its <= 25 and elapsed < 30.0
    verdict(
        5,
        ok,
        f"illc1850 inner-cg(2) its={rep_cg.its} (<=25), "
        f"{elapsed:.1f}s; convergence is per the estimate-based stopping rule, as in the "
        f"reference tables (final gradient norm {rep_cg.gradient_norm_final:.1f} shows "
        f"how much the rule certifies here)",
    )


def test_criterion_06_illc1850_dense_failure_mode():
    _, _, scaled = load_scaled(require_matrix("illc1850.mtx"))
    _, rep = solve_pipeline(scaled, SMode.DENSE_FACTOR)
    not_reached = (not rep.converged) and rep.ratio_pt_final > 1e-10
    marginal = rep.its > 500
    verdict(
        6,
        not_reached or marginal,
        f"illc1850 dense-S tau=0: its={rep.its}, converged={rep.converged}, "
        f"ratio={rep.ratio_pt_final:.2e}; expected stagnation above 1e-10 or its>500. "
        "Known: this outcome sits on a conditioning boundary of the coupling matrix "
        "that depends on pivot tie-breaking and the right-hand side; other rhs seeds "
        "(e.g. 3, 6) do stagnate at the cap with ratios near 1e-9, matching the "
        "reference behaviour, while the default seed converges",
    )


def test_criterion_07_beaflw_band():
    path = require_matrix("beaflw.mtx")
    t0 = time.perf_counter()
    _, _, scaled = load_scaled(path)
    _, rep = solve_pipeline(scaled, SMode.DENSE_FACTOR)
    elapsed = time.perf_counter() - t0
    verdict(
        7,
        rep.converged and rep.its <= 15 and elapsed < 10.0,
        f"beaflw dense-S tau=0: its={rep.its} (<=15), {elapsed:.1f}s",
    )


def test_criterion_08_estimator_validity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    tested_total = 0
    for _ in range(50):
        n = int(rng.integers(6, 13))
        m = n + int(rng.integers(4, 10))
        a = rng.standard_normal((m, n))
        A = csc(a)
        b = rng.uniform(-1, 1, m)
        norm_a = power_method_norm2(A, iters=100, seed=8)
        x_true = dense_lls_solve(a, b).x_true
        gram = a.T @ a
        cfg = CglsConfig(norm_A=norm_a, delta=1e-10, max_iters=8 * n, estimator_delay=5)
        iterates = {}
        _, report = pcgls(A, b, None, cfg,
                          iterate_hook=lambda k, x: iterates.setdefault(k, x))
        assert report.converged
        b_norm = np.linalg.norm(b)
        estims, trues = [], []
        for i, ratio in enumerate(report.ratio_pt_history):
            x_i = iterates[i] if i else np.zeros(n)
            trues.append(float((x_true - x_i) @ gram @ (x_true - x_i)))
            estims.append((ratio * (norm_a * np.linalg.norm(x_i) + b_norm)) ** 2)
        floor = min(estims)
        for true_sq, estim in zip(trues, estims):
            if true_sq > 1e6 * floor:  # norms compared with a 1e3 margin
                assert estim <= (1 + 1e-6) * true_sq
                tested_total += 1
        # the sqrt stopping rule never fires while the oracle backward
        # error is still above 10 delta
        fired = report.its
        x_fire = iterates[fired] if fired else np.zeros(n)
        true_ratio = np.linalg.norm(a @ (x_true - x_fire)) / (
            norm_a * np.linalg.norm(x_fire) + b_norm
        )
        assert true_ratio <= 10 * cfg.delta
    elapsed = time.perf_counter() - t0
    verdict(
        8,
        tested_total >= 200 and elapsed < 10.0,
        f"50 instances, {tested_total} lower-bound checks, no premature stop, {elapsed:.1f}s",
    )


def test_criterion_09_mode_cross_equivalence(monkeypatch):
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    worst_y = worst_s = worst_cg = 0.0
    for trial in range(100):
        n = int(rng.integers(4, 20))
        s = int(rng.integers(1, 16))
        # dropped factors exercise the y/s agreements; a well-conditioned
        # split keeps inner CG in its finite-termination regime
        a = well_conditioned_split(rng, n, s)
        f_full = ilup_factorize(csc(a), IlupParams(p=n + s, tau=0.0, mu=0.1))
        f_drop = ilup_factorize(csc(a), IlupParams(p=4, tau=0.0, mu=0.1))

        # stored Y (dense S) against solves through the factors (inner-CG S)
        pe = build_preconditioner(f_drop, s_mode=SMode.DENSE_FACTOR)
        pi = build_preconditioner(f_drop, s_mode=SMode.INNER_CG)
        r1, w = rng.standard_normal(n), rng.standard_normal(s)
        ya = pe.y_apply(r1)
        worst_y = max(worst_y, rel_err(pi.y_apply(r1), ya))
        ta = pe.y_apply_transpose(w)
        worst_y = max(worst_y, rel_err(pi.y_apply_transpose(w), ta))

        low = _gram_plus_identity(pe.Yt.to_dense())
        sv = (low + np.tril(low, -1).T) @ w
        worst_s = max(worst_s, rel_err(w + pi.y_apply(pi.y_apply_transpose(w)), sv))

        pde = build_preconditioner(f_full, s_mode=SMode.DENSE_FACTOR)
        pcg = build_preconditioner(f_full, s_mode=SMode.INNER_CG)
        monkeypatch.setattr(precond, "INNER_CG_STEPS", s)
        ha = pde.apply(r1, w)
        worst_cg = max(worst_cg, rel_err(pcg.apply(r1, w), ha))
    elapsed = time.perf_counter() - t0
    verdict(
        9,
        worst_y <= 1e-13 and worst_s <= 1e-13 and worst_cg <= 1e-8 and elapsed < 5.0,
        f"100 instances: stored vs implicit Y {worst_y:.2e} (<=1e-13), S-matvec {worst_s:.2e} (<=1e-13), "
        f"inner-cg limit {worst_cg:.2e} (<=1e-8), {elapsed:.1f}s",
    )


def test_criterion_10_pivot_modification_robustness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    a = rng.standard_normal((30, 20))
    a[:, 7] = a[:, 3]
    a[:, 15] = a[:, 11]
    scaled, _ = column_scale(csc(a))
    params = IlupParams(p=30, tau=0.0, mu=0.1, small=1e-10)
    f = ilup_factorize(scaled, params)
    diag_min = np.abs(f.U.values[f.U.col_ptr[1:] - 1]).min()
    pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
    b = rng.uniform(-1, 1, 30)
    norm_a = power_method_norm2(scaled, iters=100, seed=10)
    _, rep = pcgls(scaled, b, pre, CglsConfig(norm_A=norm_a, delta=1e-6))
    elapsed = time.perf_counter() - t0
    verdict(
        10,
        f.nmod >= 1 and diag_min >= 1e-10 and rep.converged
        and rep.ratio_pt_final <= 1e-6 and elapsed < 5.0,
        f"nmod={f.nmod} (>=1), min |U_jj|={diag_min:.2e} (>=1e-10), "
        f"ratio {rep.ratio_pt_final:.2e} (<=1e-6) at its={rep.its}, {elapsed:.1f}s",
    )


def test_criterion_11_add_row_update():
    t0 = time.perf_counter()
    rng = np.random.default_rng(111)
    worst_s = worst_apply = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 10))
        m = n + int(rng.integers(1, 6))
        a = rng.standard_normal((m, n))
        f = ilup_factorize(csc(a), IlupParams(p=m, tau=0.0, mu=0.1))
        pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
        row = rng.standard_normal(n) * (rng.random(n) < 0.7)
        pat = np.flatnonzero(row)
        updated = pre.add_row(pat, row[pat])
        rebuilt = build_preconditioner(updated.factors, s_mode=SMode.DENSE_FACTOR)
        S_inc = _gram_plus_identity(updated.Yt.to_dense())
        S_reb = _gram_plus_identity(rebuilt.Yt.to_dense())
        worst_s = max(worst_s, rel_err(S_inc, S_reb))
        r1 = rng.standard_normal(n)
        r2 = rng.standard_normal(m - n + 1)
        ha = rebuilt.apply(r1, r2)
        worst_apply = max(worst_apply, rel_err(updated.apply(r1, r2), ha))
    elapsed = time.perf_counter() - t0
    verdict(
        11,
        worst_s <= 1e-12 and worst_apply <= 1e-11 and elapsed < 5.0,
        f"50 instances: S agreement {worst_s:.2e} (<=1e-12), apply {worst_apply:.2e} (<=1e-11), {elapsed:.1f}s",
    )


def test_criterion_12_determinism(tmp_path):
    path = require_matrix("illc1850.mtx")
    _, _, scaled = load_scaled(path)

    f1 = ilup_factorize(scaled, IlupParams(p=10, tau=0.0))
    f2 = ilup_factorize(scaled, IlupParams(p=10, tau=0.0))
    assert_array_equal(f1.row_perm.perm, f2.row_perm.perm)
    for x, y in [(f1.L1, f2.L1), (f1.L2, f2.L2), (f1.U, f2.U)]:
        assert_array_equal(x.col_ptr, y.col_ptr)
        assert_array_equal(x.row_idx, y.row_idx)
        assert_array_equal(x.values, y.values)

    _, ra = solve_pipeline(scaled, SMode.INNER_CG)
    _, rb = solve_pipeline(scaled, SMode.INNER_CG)
    assert ra.to_dict() == rb.to_dict()

    rec_a = run_single(RunConfig(matrix_path=path, s_mode="cg"))
    rec_b = run_single(RunConfig(matrix_path=path, s_mode="cg"))
    rec_a["wall_time_s"] = rec_b["wall_time_s"] = 0.0
    same = json.dumps(rec_a, sort_keys=True) == json.dumps(rec_b, sort_keys=True)
    verdict(12, same, "factorization, solver report, and CLI record replay identically")
