import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracle import dense_lls_solve, dense_lu_pp, dense_woodbury_correction

from conftest import laauchli, rel_err


def test_lls_identity():
    b = np.array([1.0, -2.0, 0.5])
    sol = dense_lls_solve(np.eye(3), b)
    assert_allclose(sol.x_true, b, rtol=1e-14)


def test_lls_laauchli_symmetry():
    sol = dense_lls_solve(laauchli(1e-2), [1.0, 0.0, 0.0])
    assert abs(sol.x_true[0] - sol.x_true[1]) <= 1e-12 * abs(sol.x_true[0])


def test_lls_orthogonality():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m, n = int(rng.integers(5, 30)), int(rng.integers(2, 12))
        m = max(m, n)
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        sol = dense_lls_solve(a, b)
        assert np.linalg.norm(a.T @ sol.residual) <= 1e-11 * np.linalg.norm(a) * np.linalg.norm(b)


def test_lls_rejects_rank_deficient():
    a = np.ones((4, 2))
    with pytest.raises(np.linalg.LinAlgError):
        dense_lls_solve(a, np.ones(4))


def test_lu_pp_identity():
    perm, L, U = dense_lu_pp(np.eye(3))
    assert_array_equal(perm, [0, 1, 2])
    assert_array_equal(L, np.eye(3))
    assert_array_equal(U, np.eye(3))


def test_lu_pp_swap():
    perm, L, U = dense_lu_pp(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_array_equal(perm, [1, 0])
    assert_array_equal(L, np.eye(2))
    assert_array_equal(U, np.eye(2))


def test_lu_pp_reconstruction():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        m = n + int(rng.integers(0, 8))
        a = rng.standard_normal((m, n))
        perm, L, U = dense_lu_pp(a)
        assert rel_err(L @ U, a[perm]) <= 1e-13
        assert np.abs(np.tril(L, -1)).max(initial=0.0) <= 1.0


def test_woodbury_no_second_block():
    rng = np.random.default_rng(2)
    a1 = rng.standard_normal((6, 4))
    r1 = rng.standard_normal(6)
    delta = dense_woodbury_correction(a1, np.zeros((0, 4)), r1, np.zeros(0))
    want = np.linalg.solve(a1.T @ a1, a1.T @ r1)
    assert rel_err(delta, want) <= 1e-12


def test_woodbury_square_block_closed_form():
    rng = np.random.default_rng(3)
    n, extra = 5, 3
    a1 = rng.standard_normal((n, n)) + 3 * np.eye(n)
    a2 = rng.standard_normal((extra, n))
    b1 = rng.standard_normal(n)
    b2 = rng.standard_normal(extra)
    delta = dense_woodbury_correction(a1, a2, b1, b2)
    # closed form for a square invertible leading block and zero start
    y = a2 @ np.linalg.inv(a1)
    s = np.eye(extra) + y @ y.T
    want = np.linalg.solve(a1, b1 + y.T @ np.linalg.solve(s, b2 - y @ b1))
    assert rel_err(delta, want) <= 1e-11


def test_woodbury_reaches_lls_solution():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        m = n + int(rng.integers(0, 10))
        k = int(rng.integers(n, m + 1))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        x0 = rng.standard_normal(n)
        r = b - a @ x0
        delta = dense_woodbury_correction(a[:k], a[k:], r[:k], r[k:])
        want = dense_lls_solve(a, b).x_true
        assert rel_err(x0 + delta, want) <= 1e-10
