import numpy as np
import pytest
from numpy.testing import assert_array_equal

from rowsplit import (
    CglsConfig,
    CscMatrix,
    IlupFactors,
    IlupParams,
    MatrixMarketError,
    SMode,
    build_preconditioner,
    column_scale,
    ilup_factorize,
    pcgls,
    power_method_norm2,
    read_matrix_market,
    solve_quasi_square_direct,
)
from rowsplit.solver import error_estimate
from rowsplit.sparse_core import (
    Permutation,
    dense_cholesky_factorize,
    dense_cholesky_solve,
    sparse_lower_solve,
    sparse_upper_solve,
    sparse_upper_solve_transpose,
)
from oracle import dense_lls_solve, dense_lu_pp, dense_woodbury_correction
from rowsplit import precond
from rowsplit.precond import UpdateFailedError

from conftest import check_csc, csc, rel_err, validate_factors


def test_upper_transpose_solve_missing_diagonal():
    U = CscMatrix(2, 2, [0, 1, 1], [0], [1.0])
    with pytest.raises(np.linalg.LinAlgError):
        sparse_upper_solve_transpose(U, np.ones(2))


def test_validate_catches_structural_damage():
    bad_ptr = CscMatrix(2, 2, [0, 2], [0, 1], [1.0, 1.0])
    with pytest.raises(ValueError):
        check_csc(bad_ptr)
    decreasing = CscMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])
    with pytest.raises(ValueError):
        check_csc(decreasing)
    out_of_range = CscMatrix(2, 2, [0, 1, 2], [0, 5], [1.0, 1.0])
    with pytest.raises(ValueError):
        check_csc(out_of_range)
    length_mismatch = CscMatrix(2, 2, [0, 1, 2], [0, 1], [1.0])
    with pytest.raises(ValueError):
        check_csc(length_mismatch)


def test_dense_matrix_requires_2d():
    for bad in (np.ones(3), np.ones((2, 2, 2)), np.float64(4.0)):
        with pytest.raises(ValueError, match="square"):
            dense_cholesky_factorize(bad)
    # the factor comes packed by rows: (2), (0, 3)
    assert_array_equal(dense_cholesky_factorize(np.diag([4.0, 9.0])), [2.0, 0.0, 3.0])


def test_sparse_rhs_validation():
    A = csc(np.ones((2, 3)))
    with pytest.raises(ValueError):
        sparse_lower_solve(A, np.ones((3, 1)))
    I2 = csc(np.eye(2))
    with pytest.raises(ValueError):
        sparse_lower_solve(I2, np.ones((3, 2)))
    with pytest.raises(ValueError):
        sparse_upper_solve_transpose(I2, np.ones((2, 1, 1)))
    no_diag = CscMatrix(2, 2, [0, 0, 1], [0], [1.0])  # column 1 has no diagonal
    with pytest.raises(np.linalg.LinAlgError):
        sparse_upper_solve(no_diag, np.eye(2)[:, [0]])


def test_power_method_degenerate_inputs():
    empty = CscMatrix.from_coo(3, 2, [], [], [])
    assert power_method_norm2(empty, iters=5, seed=0) == 0.0


def test_cholesky_shape_errors():
    with pytest.raises(ValueError, match="square"):
        dense_cholesky_factorize(np.ones((2, 3)))
    f = dense_cholesky_factorize(np.eye(2))
    with pytest.raises(ValueError):
        dense_cholesky_solve(f, np.ones(3))


def test_ilup_default_params():
    f = ilup_factorize(csc(np.eye(4)))
    assert f.nmod == 0 and f.U.nnz == 4


def test_factor_validate_catches_tampering():
    rng = np.random.default_rng(1)
    f = ilup_factorize(csc(rng.standard_normal((8, 5))), IlupParams(p=8))
    params = IlupParams(p=8)
    validate_factors(f, params)
    # entry moved onto the diagonal of the unit-lower block
    bad = CscMatrix(5, 5, [0, 1, 1, 1, 1, 1], [0], [2.0])
    import dataclasses

    with pytest.raises(ValueError):
        validate_factors(dataclasses.replace(f, L1=bad), params)
    # oversized column in the lower factor
    dense_col = csc(np.vstack([np.zeros((1, 5)), np.ones((2, 5))]))
    with pytest.raises(ValueError):
        validate_factors(dataclasses.replace(f, L2=dense_col), IlupParams(p=1))


def test_add_row_border_failure_signals():
    """A finite row whose new factor entries overflow is refused by name.

    The bordered pivot is a sum of squares and cannot go negative, so the
    update-failure signal is left to overflow: at 1e200 the pivot
    overflows (dense mode only has one), at 1e308 already the L2 row
    U^{-T} a does (either mode).  A refused fold leaves the object as it
    was.
    """
    rng = np.random.default_rng(3)
    f = ilup_factorize(csc(rng.standard_normal((7, 4))), IlupParams(p=7))
    pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
    r1, r2 = rng.standard_normal(4), rng.standard_normal(3)
    before = pre.apply(r1, r2)
    with pytest.raises(UpdateFailedError, match="pivot overflowed"):
        pre.add_row(np.arange(4), np.full(4, 1e200))
    for s_mode in SMode:
        with pytest.raises(UpdateFailedError, match="row overflowed"):
            build_preconditioner(f, s_mode=s_mode).add_row(np.arange(4), np.full(4, 1e308))
    assert pre.split_rows == 3
    assert_array_equal(pre.apply(r1, r2), before)


@pytest.mark.parametrize("s_mode", [SMode.DENSE_FACTOR, SMode.INNER_CG])
@pytest.mark.parametrize("pattern, values, message", [
    ([-1], [1.0], "out of range"),
    ([4], [1.0], "out of range"),
    ([0, 2, 0], [1.0, 2.0, 3.0], "repeated"),
    ([1, 3], [1.0, np.nan], "non-finite"),
    ([1, 3], [np.inf, 1.0], "non-finite"),
    ([1, 3], [1.0], "same length"),
    ([1.7], [1.0], "integers"),
], ids=["negative", "past-end", "repeated", "nan", "inf", "length", "float-index"])
def test_add_row_rejects_bad_row(s_mode, pattern, values, message):
    rng = np.random.default_rng(3)
    f = ilup_factorize(csc(rng.standard_normal((7, 4))), IlupParams(p=7))
    pre = build_preconditioner(f, s_mode=s_mode)
    with pytest.raises(ValueError, match=message):
        pre.add_row(pattern, values)


def test_add_row_zero_u_diagonal_raises():
    rng = np.random.default_rng(4)
    f = ilup_factorize(csc(rng.standard_normal((6, 4))), IlupParams(p=6))
    pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
    import dataclasses

    vals = f.U.values.copy()
    vals[f.U.col_ptr[3] - 1] = 0.0  # stored zero on the diagonal of column 2
    U = CscMatrix(4, 4, f.U.col_ptr, f.U.row_idx, vals)
    bad = dataclasses.replace(pre, factors=dataclasses.replace(f, U=U))
    with pytest.raises(np.linalg.LinAlgError):
        bad.add_row(np.arange(4), rng.standard_normal(4))


def test_remove_rows_absent():
    rng = np.random.default_rng(4)
    f = ilup_factorize(csc(rng.standard_normal((6, 4))), IlupParams(p=6))
    pre = build_preconditioner(f, s_mode=SMode.INNER_CG)
    assert not hasattr(pre, "remove_rows")


def test_error_estimate_rejects_bad_delay():
    with pytest.raises(ValueError):
        error_estimate([(1.0, 1.0)], 0)


def test_quasi_square_input_checks(monkeypatch):
    rng = np.random.default_rng(6)
    A = csc(rng.standard_normal((6, 4)))
    with pytest.raises(ValueError):
        solve_quasi_square_direct(A, np.ones(5))
    with pytest.raises(ValueError, match="non-finite"):
        solve_quasi_square_direct(A, np.array([1.0, 0.0, np.nan, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        solve_quasi_square_direct(A, np.array([1.0, 0.0, 0.0, np.inf, 0.0, 0.0]))
    # the cap bounds the Gram's order min(m - n, n): 2 here
    monkeypatch.setattr(precond, "DENSE_S_CAP", 1)
    with pytest.raises(ValueError, match="order 2 exceeds the dense cap 1"):
        solve_quasi_square_direct(A, np.ones(6))
    # m - n = 8 > cap >= n = 4: G of order 4 is factored dense
    tall = rng.standard_normal((12, 4))
    b = rng.uniform(-1.0, 1.0, 12)
    monkeypatch.setattr(precond, "DENSE_S_CAP", 4)
    x = solve_quasi_square_direct(csc(tall), b)
    assert rel_err(x, dense_lls_solve(tall, b).x_true) <= 1e-9
    monkeypatch.setattr(precond, "DENSE_S_CAP", 3)
    with pytest.raises(ValueError, match="order 4 exceeds the dense cap 3"):
        solve_quasi_square_direct(csc(tall), b)


def test_oracle_size_caps_and_checks():
    big = np.ones((300, 250)) + np.eye(300, 250)
    with pytest.raises(ValueError):
        dense_lls_solve(big, np.ones(300))
    with pytest.raises(ValueError):
        dense_woodbury_correction(big[:250], big[250:], np.ones(250), np.ones(50))
    with pytest.raises(ValueError):
        dense_lu_pp(np.ones((2, 3)))
    with pytest.raises(np.linalg.LinAlgError):
        dense_lu_pp(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        dense_woodbury_correction(np.eye(3), np.ones((2, 4)), np.ones(3), np.ones(2))


def test_read_rejects_non_finite_value(tmp_path):
    path = tmp_path / "nan.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 3\n1 1 1.0\n2 1 nan\n2 2 2.0\n")
    with pytest.raises(MatrixMarketError, match="non-finite"):
        read_matrix_market(path)


def test_pcgls_rejects_non_finite_rhs():
    A = csc([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        pcgls(A, np.array([1.0, np.nan, 0.0]), None, CglsConfig(norm_A=3.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_column_scale_rejects_non_finite(bad):
    A = CscMatrix(3, 2, [0, 2, 3], [0, 2, 1], [1.0, bad, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        column_scale(A)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ilup_rejects_non_finite(bad):
    A = CscMatrix(3, 2, [0, 2, 3], [0, 2, 1], [bad, 1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        ilup_factorize(A, IlupParams(p=3))


def test_ilup_overflow_is_a_named_error():
    """A finite matrix whose elimination overflows is refused by name.

    Column 1 subtracts -1 times 1e308 from 1e308 at row 1, which
    overflows; that row then becomes the pivot, an infinite U diagonal.
    """
    a = np.array([[1e308, 1e308], [-1e308, 1e308], [1.0, 1.0]])
    with pytest.raises(ValueError, match="not finite"):
        ilup_factorize(csc(a), IlupParams(mu=1.0))


@pytest.mark.parametrize("norm_A", [np.inf, np.nan, -1.0])
def test_cgls_config_rejects_bad_norm(norm_A):
    with pytest.raises(ValueError, match="norm_A"):
        CglsConfig(norm_A=norm_A)
    # the estimate of a zero matrix stays valid
    assert CglsConfig(norm_A=0.0).norm_A == 0.0


def test_dense_build_with_overflowing_y_raises_linalg_error():
    # finite factors whose Y = L2 L1^{-1} overflows: the Cholesky of S names it
    f = IlupFactors(
        row_perm=Permutation(np.arange(3), np.arange(3)),
        L1=CscMatrix(2, 2, [0, 1, 1], [1], [1e200]),
        L2=CscMatrix(1, 2, [0, 1, 2], [0, 0], [1e200, 1e200]),
        U=csc(np.eye(2)),
        nmod=0,
    )
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)


@pytest.mark.parametrize("field, value", [
    ("p", np.nan),
    ("tau", np.nan),
    ("small", np.nan),
    ("small", np.inf),
], ids=["p-nan", "tau-nan", "small-nan", "small-inf"])
def test_ilup_params_reject_nan(field, value):
    with pytest.raises(ValueError, match=field):
        IlupParams(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("delta", np.nan),
    ("delta", np.inf),
    ("max_iters", np.nan),
    ("estimator_delay", np.nan),
], ids=["delta-nan", "delta-inf", "max_iters-nan", "estimator_delay-nan"])
def test_cgls_config_rejects_nan(field, value):
    with pytest.raises(ValueError, match=field):
        CglsConfig(norm_A=1.0, **{field: value})
