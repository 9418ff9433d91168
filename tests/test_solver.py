import numpy as np
import pytest
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
    solve_quasi_square_direct,
)
from rowsplit.solver import error_estimate, stopping_ratio
from rowsplit.sparse_core import matvec_transpose
from rowsplit import solver
from oracle import dense_lls_solve

from conftest import csc, laauchli, rel_err


def scaled_problem(rng, m, n):
    a = rng.standard_normal((m, n))
    scaled, _ = column_scale(csc(a))
    b = rng.uniform(-1, 1, m)
    norm_a = power_method_norm2(scaled, iters=100, seed=1)
    return scaled, b, norm_a


# ---------------------------------------------------------------------------
# error estimate and stopping ratio
# ---------------------------------------------------------------------------


def test_error_estimate_zero_window():
    assert error_estimate([(0.0, 0.0)] * 4, 4) == 0.0


def test_error_estimate_single_pair():
    assert error_estimate([(2.0, 3.0)], 1) == 6.0


def test_error_estimate_uses_last_d():
    window = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
    assert error_estimate(window, 2) == 4.0 + 9.0


def test_error_estimate_requires_d_pairs():
    with pytest.raises(ValueError):
        error_estimate([(1.0, 1.0)], 2)


def test_stopping_ratio_values():
    assert stopping_ratio(0.0, 1.0, 1.0, 1.0) == 0.0
    assert stopping_ratio(1e-20, 1.0, 0.0, 1.0) == pytest.approx(1e-10)
    with pytest.raises(ValueError):
        stopping_ratio(1.0, 0.0, 0.0, 0.0)


def test_stopping_ratio_matches_pseudo_inverse_oracle():
    # with the exact squared energy error in the numerator, the ratio
    # equals ||A pinv(A) r|| / (||A|| ||x|| + ||b||)
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.standard_normal((15, 8))
        b = rng.uniform(-1, 1, 15)
        x = rng.standard_normal(8)
        x_true = dense_lls_solve(a, b).x_true
        err_sq = float((x_true - x) @ (a.T @ a) @ (x_true - x))
        norm_a = np.linalg.norm(a, 2)
        got = stopping_ratio(err_sq, norm_a, np.linalg.norm(x), np.linalg.norm(b))
        r = b - a @ x
        want = np.linalg.norm(a @ np.linalg.pinv(a) @ r) / (
            norm_a * np.linalg.norm(x) + np.linalg.norm(b)
        )
        assert abs(got - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# pcgls
# ---------------------------------------------------------------------------


def test_identity_converges_in_one_iteration():
    A = csc(np.eye(6))
    f = ilup_factorize(A, IlupParams())
    pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
    b = np.random.default_rng(1).uniform(-1, 1, 6)
    x, report = pcgls(A, b, pre, CglsConfig(norm_A=1.0))
    assert report.converged and report.its == 1
    assert_array_equal(x, b)


def test_zero_gradient_certifies_directly():
    """An exactly vanishing gradient certifies before the estimate window fills."""
    A = csc(np.eye(6))
    x, report = pcgls(A, np.arange(1.0, 7.0), None, CglsConfig(norm_A=1.0))
    assert report.converged and not report.breakdown
    assert report.its == 1 and report.ratio_pt_history == [0.0]
    assert report.gradient_norm_final == 0.0


class _VanishingDirections:
    """A preconditioner whose directions, after `steps` applications, are
    scaled by 1e-170, so that ||A p||^2 underflows to 0: no progress."""

    def __init__(self, pre, steps):
        self.pre, self.steps = pre, steps
        self.factors, self.n, self.psize = pre.factors, pre.n, pre.psize

    def apply(self, r1, r2):
        self.steps -= 1
        return (1.0 if self.steps >= 0 else 1e-170) * self.pre.apply(r1, r2)


@pytest.mark.parametrize("steps", [0, 3])
def test_stop_without_progress_is_a_breakdown(steps):
    """A stop with no progress is reported as a breakdown, never as converged.

    The run stops at iteration `steps`, before the estimate window of
    5 fills; the non-empty partial windows it then tries do not certify.
    """
    rng = np.random.default_rng(31)
    A, b, norm_a = scaled_problem(rng, 30, 12)
    pre = build_preconditioner(ilup_factorize(A, IlupParams(p=2)), SMode.DENSE_FACTOR)
    x, report = pcgls(A, b, _VanishingDirections(pre, steps), CglsConfig(norm_A=norm_a))
    assert report.breakdown and not report.converged
    assert report.its == steps and len(report.ratio_pt_history) == steps


def test_exact_preconditioner_quasi_square():
    rng = np.random.default_rng(2)
    for _ in range(8):
        n = int(rng.integers(5, 30))
        m = n + int(rng.integers(0, 6))
        A, b, norm_a = scaled_problem(rng, m, n)
        f = ilup_factorize(A, IlupParams(p=m, tau=0.0, mu=0.1))
        pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
        x, report = pcgls(A, b, pre, CglsConfig(norm_A=norm_a))
        assert report.converged and report.its <= 2
        assert report.ratio_pt_final <= 1e-10
        want = dense_lls_solve(A.to_dense(), b).x_true
        assert rel_err(x, want) <= 1e-9


def test_zero_rhs_is_stationary():
    A = csc(np.eye(4))
    x, report = pcgls(A, np.zeros(4), None, CglsConfig(norm_A=1.0))
    assert report.converged and report.its == 0
    assert_array_equal(x, np.zeros(4))


def test_plain_cgls_one_transposed_product_per_iteration(monkeypatch):
    rng = np.random.default_rng(5)
    A = csc(rng.standard_normal((20, 8)))
    calls = []

    def counted(M, v):
        calls.append(1)
        return matvec_transpose(M, v)

    monkeypatch.setattr(solver, "matvec_transpose", counted)
    pcgls(A, rng.uniform(-1, 1, 20), None, CglsConfig(norm_A=1.0, delta=1e-30, max_iters=5))
    # the start, one per iteration, and the reported final gradient
    assert len(calls) == 1 + 5 + 1


def test_plain_cgls_orthogonality_and_monotonicity():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((30, 12))
    a[np.arange(12), np.arange(12)] += 4.0
    A = csc(a)
    b = rng.uniform(-1, 1, 30)
    norm_a = power_method_norm2(A, iters=100, seed=4)

    gradients = []
    res_norms = []

    def hook(k, x):
        r = b - a @ x
        gradients.append(a.T @ r)
        res_norms.append(np.linalg.norm(r))

    pcgls(A, b, None, CglsConfig(norm_A=norm_a, delta=1e-13), iterate_hook=hook)
    for za, zb in zip(gradients[:10], gradients[1:11]):
        na, nb = np.linalg.norm(za), np.linalg.norm(zb)
        if na > 1e-12 and nb > 1e-12:
            assert abs(za @ zb) / (na * nb) <= 1e-8
    assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(res_norms, res_norms[1:]))


def test_estimator_is_lower_bound():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(8, 13))
        m = n + int(rng.integers(5, 9))
        a = rng.standard_normal((m, n))
        A = csc(a)
        b = rng.uniform(-1, 1, m)
        norm_a = power_method_norm2(A, iters=100, seed=6)
        x_true = dense_lls_solve(a, b).x_true
        gram = a.T @ a

        cfg = CglsConfig(norm_A=norm_a, delta=1e-10, max_iters=6 * n, estimator_delay=4)
        iterates = {}
        _, report = pcgls(A, b, None, cfg,
                          iterate_hook=lambda k, x: iterates.setdefault(k, x))
        assert report.converged
        b_norm = np.linalg.norm(b)
        estims = []
        trues = []
        for i, ratio in enumerate(report.ratio_pt_history):
            x_i = iterates[i] if i else np.zeros(n)
            trues.append(float((x_true - x_i) @ gram @ (x_true - x_i)))
            estims.append((ratio * (norm_a * np.linalg.norm(x_i) + b_norm)) ** 2)
        # attainable level: where the estimate bottoms out (the estimator
        # is only claimed valid above that level)
        floor = min(estims)
        tested = 0
        for i, (true_sq, estim) in enumerate(zip(trues, estims)):
            # guard compares error norms, so square the 1e3 margin
            if true_sq > 1e6 * floor:
                assert estim <= (1 + 1e-6) * true_sq
                # once the decay is geometric the bound is also sharp
                if i >= 2:
                    assert estim >= 0.5 * true_sq
                tested += 1
        assert tested >= 5
        # the rule never fires while the oracle ratio is still far out
        fired = report.its
        x_fire = iterates[fired] if fired else np.zeros(n)
        true_ratio = np.linalg.norm(a @ (x_true - x_fire)) / (
            norm_a * np.linalg.norm(x_fire) + b_norm
        )
        assert true_ratio <= 10 * cfg.delta


def test_iteration_cap_reported():
    rng = np.random.default_rng(7)
    A, b, norm_a = scaled_problem(rng, 25, 18)
    x, report = pcgls(A, b, None, CglsConfig(norm_A=norm_a, delta=1e-30, max_iters=3))
    assert not report.converged
    assert report.its == 3


def test_scaling_round_trip_residual():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((20, 9))
    A = csc(a)
    scaled, scaling = column_scale(A)
    b = rng.uniform(-1, 1, 20)
    norm_a = power_method_norm2(scaled, iters=100, seed=9)
    f = ilup_factorize(scaled, IlupParams(p=20, tau=0.0))
    pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
    y, report = pcgls(scaled, b, pre, CglsConfig(norm_A=norm_a))
    x = scaling.unscale_solution(y)
    want = np.linalg.norm(dense_lls_solve(a, b).residual)
    assert abs(np.linalg.norm(b - a @ x) - want) <= 1e-9 * max(want, 1.0)


def test_pcgls_determinism():
    rng = np.random.default_rng(10)
    A, b, norm_a = scaled_problem(rng, 30, 14)
    f = ilup_factorize(A, IlupParams(p=5, tau=0.0))
    pre = build_preconditioner(f, s_mode=SMode.INNER_CG)
    x1, r1 = pcgls(A, b, pre, CglsConfig(norm_A=norm_a))
    x2, r2 = pcgls(A, b, pre, CglsConfig(norm_A=norm_a))
    assert_array_equal(x1, x2)
    assert r1.to_dict() == r2.to_dict()


def test_all_coupling_modes_solve_end_to_end():
    # complete factors, weak coupling: each treatment of the coupling
    # system then genuinely solves the problem, with true accuracy
    # ordered by how closely it approximates that system
    rng = np.random.default_rng(21)
    n, s = 24, 8
    top = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    bottom = 0.05 * rng.standard_normal((s, n)) / np.sqrt(n)
    a = np.vstack([top, bottom])
    m = n + s
    A = csc(a)
    scaled, scaling = column_scale(A)
    b = rng.uniform(-1, 1, m)
    norm_a = power_method_norm2(scaled, iters=100, seed=2)
    f = ilup_factorize(scaled, IlupParams(p=m, tau=0.0))
    for s_mode, grad_tol in [(SMode.DENSE_FACTOR, 1e-12), (SMode.INNER_CG, 1e-5)]:
        pre = build_preconditioner(f, s_mode=s_mode)
        y, report = pcgls(scaled, b, pre, CglsConfig(norm_A=norm_a))
        assert report.converged and report.its <= 2, s_mode
        x = scaling.unscale_solution(y)
        grad = np.linalg.norm(a.T @ (b - a @ x))
        assert grad <= grad_tol, (s_mode, grad)
        # the report carries the scaled-problem gradient, same quality
        assert report.gradient_norm_final <= grad_tol


def test_stagnation_is_visible_in_the_gradient_norm():
    # heavily dropped factors can stall the preconditioned iteration
    # while the decrement-based estimate still certifies; the reported
    # final gradient norm exposes the difference
    rng = np.random.default_rng(22)
    m, n = 60, 30
    a = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.15)
    for j in range(n):
        if not a[:, j].any():
            a[rng.integers(0, m), j] = 1.0
    a[rng.choice(m, size=4, replace=False)] = rng.standard_normal((4, n))
    A = csc(a)
    scaled, _ = column_scale(A)
    b = rng.uniform(-1, 1, m)
    norm_a = power_method_norm2(scaled, iters=100, seed=2)

    _, honest = pcgls(scaled, b, None, CglsConfig(norm_A=norm_a))
    assert honest.converged
    assert honest.gradient_norm_final <= 1e-7 * np.linalg.norm(b)

    f = ilup_factorize(scaled, IlupParams(p=10, tau=0.0))
    pre = build_preconditioner(f, s_mode=SMode.INNER_CG)
    _, report = pcgls(scaled, b, pre, CglsConfig(norm_A=norm_a))
    if report.converged and report.gradient_norm_final > 1e-3:
        # certified by the estimate yet visibly unsolved: the diagnostic
        # carries the warning downstream
        assert report.gradient_norm_final > 1e3 * honest.gradient_norm_final


def test_pcgls_input_validation():
    A = csc(np.eye(3))
    with pytest.raises(ValueError):
        pcgls(A, np.zeros(2), None, CglsConfig(norm_A=1.0))
    rng = np.random.default_rng(11)
    other = ilup_factorize(csc(rng.standard_normal((5, 4))), IlupParams())
    pre = build_preconditioner(other, s_mode=SMode.INNER_CG)
    with pytest.raises(ValueError):
        pcgls(A, np.zeros(3), pre, CglsConfig(norm_A=1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        CglsConfig(norm_A=1.0, delta=0.0)
    with pytest.raises(ValueError):
        CglsConfig(norm_A=1.0, estimator_delay=0)
    with pytest.raises(ValueError):
        CglsConfig(norm_A=1.0, max_iters=0)


# ---------------------------------------------------------------------------
# quasi-square direct solve
# ---------------------------------------------------------------------------


def test_quasi_square_square_case():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((7, 7)) + 3 * np.eye(7)
    b = rng.uniform(-1, 1, 7)
    x = solve_quasi_square_direct(csc(a), b)
    assert rel_err(x, np.linalg.solve(a, b)) <= 1e-11


def test_quasi_square_laauchli():
    a = laauchli(1e-3)
    x = solve_quasi_square_direct(csc(a), [1.0, 0.0, 0.0])
    want = dense_lls_solve(a, [1.0, 0.0, 0.0]).x_true
    assert rel_err(x, want) <= 1e-10


def test_quasi_square_random():
    """Few extra rows (S factored), then m >= 2n (G factored once m > 2n)."""
    rng = np.random.default_rng(13)
    for _ in range(5):
        n = int(rng.integers(4, 25))
        m = n + int(rng.integers(1, 5))
        a = rng.standard_normal((m, n))
        b = rng.uniform(-1, 1, m)
        x = solve_quasi_square_direct(csc(a), b)
        want = dense_lls_solve(a, b).x_true
        assert rel_err(x, want) <= 1e-9
    for n, m in [(4, 8), (4, 9), (7, 20), (12, 40), (20, 41), (3, 30)]:
        a = rng.standard_normal((m, n))
        b = rng.uniform(-1, 1, m)
        x = solve_quasi_square_direct(csc(a), b)
        want = dense_lls_solve(a, b).x_true
        assert rel_err(x, want) <= 1e-9


def test_direct_path_agrees_with_high_accuracy_iterative():
    rng = np.random.default_rng(15)
    n, extra = 40, 6
    a = rng.standard_normal((n + extra, n))
    A = csc(a)
    b = rng.uniform(-1, 1, n + extra)

    direct = solve_quasi_square_direct(A, b)

    scaled, scaling = column_scale(A)
    norm_a = power_method_norm2(scaled, iters=100, seed=16)
    f = ilup_factorize(scaled, IlupParams(p=n + extra, tau=0.0))
    pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
    y, report = pcgls(scaled, b, pre, CglsConfig(norm_A=norm_a, delta=1e-13))
    assert report.converged
    x_iter = scaling.unscale_solution(y)

    gap = np.linalg.norm(a @ (direct - x_iter))
    assert gap <= 1e-8 * np.linalg.norm(a @ direct)


def test_quasi_square_detects_rank_deficiency():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((10, 6))
    a[:, 4] = a[:, 1]
    with pytest.raises(np.linalg.LinAlgError):
        solve_quasi_square_direct(csc(a), np.ones(10))
