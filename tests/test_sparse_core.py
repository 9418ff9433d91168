import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from rowsplit import (
    CscMatrix,
    MatrixMarketError,
    column_scale,
    power_method_norm2,
    read_matrix_market,
    read_matrix_market_ex,
)
from rowsplit.sparse_core import (
    dense_cholesky_factorize,
    dense_cholesky_solve,
    dense_lower_solve,
    matvec,
    matvec_transpose,
    sparse_lower_solve,
    sparse_lower_solve_transpose,
    sparse_upper_solve,
    sparse_upper_solve_transpose,
)

from conftest import check_csc, csc, laauchli, rel_err, unpack_lower


def dense_triple_loop_matvec(a, x):
    m, n = a.shape
    y = [0.0] * m
    for i in range(m):
        for j in range(n):
            y[i] += a[i][j] * x[j]
    return np.array(y)


# ---------------------------------------------------------------------------
# construction and structure
# ---------------------------------------------------------------------------


def test_from_coo_sums_duplicates_and_drops_zeros():
    A = CscMatrix.from_coo(2, 2, [0, 0, 1, 1], [0, 0, 1, 1], [2.0, 3.0, 1.0, -1.0])
    assert A.nnz == 1
    assert A.to_dense()[0, 0] == 5.0
    check_csc(A)


@st.composite
def triplets(draw):
    """A shape (possibly with no rows or columns) and in-range triplets.

    Cells repeat often, and a drawn prefix of the triplets is appended
    again with negated values, so some cells cancel exactly.
    """
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    k = draw(st.integers(0, 30)) if nrows and ncols else 0
    rows = draw(st.lists(st.integers(0, max(nrows - 1, 0)), min_size=k, max_size=k))
    cols = draw(st.lists(st.integers(0, max(ncols - 1, 0)), min_size=k, max_size=k))
    vals = draw(st.lists(
        st.sampled_from([0.0, 1.0, -1.0, 0.1, -0.3]) | st.floats(-1e3, 1e3),
        min_size=k, max_size=k))
    j = draw(st.integers(0, k))
    rows, cols = rows + rows[:j], cols + cols[:j]
    vals = vals + [-v for v in vals[:j]]
    return nrows, ncols, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), \
        np.array(vals)


@settings(max_examples=200, deadline=None)
@given(triplets())
def test_from_coo_matches_dense_accumulation(case):
    nrows, ncols, rows, cols, vals = case
    A = check_csc(CscMatrix.from_coo(nrows, ncols, rows, cols, vals))
    assert (A.nrows, A.ncols) == (nrows, ncols)
    want = np.zeros((nrows, ncols))
    np.add.at(want, (rows, cols), vals)
    count = np.zeros((nrows, ncols), dtype=np.int64)
    np.add.at(count, (rows, cols), 1)
    mass = np.zeros((nrows, ncols))
    np.add.at(mass, (rows, cols), np.abs(vals))
    got = A.to_dense()
    # one or two summands add the same in any order; with more, each
    # further addition may round differently, by at most one ulp of the
    # cell's summed magnitudes
    few = count <= 2
    assert_array_equal(got[few], want[few])
    slack = np.maximum(count - 1, 0) * np.spacing(mass)
    assert np.all(np.abs(got - want)[~few] <= slack[~few])


@settings(max_examples=100, deadline=None)
@given(
    nrows=st.integers(0, 5),
    ncols=st.integers(0, 5),
    axis=st.sampled_from([0, 1]),
    past=st.integers(0, 3),
    negative=st.booleans(),
)
def test_from_coo_rejects_index_outside_shape(nrows, ncols, axis, past, negative):
    index = [0, 0]
    index[axis] = -1 - past if negative else (nrows, ncols)[axis] + past
    with pytest.raises(ValueError):
        CscMatrix.from_coo(nrows, ncols, [index[0]], [index[1]], [1.0])


def test_validate_rejects_stored_zero():
    A = CscMatrix(2, 2, [0, 1, 2], [0, 1], [1.0, 0.0])
    with pytest.raises(ValueError):
        check_csc(A)


def test_validate_rejects_unsorted_rows():
    A = CscMatrix(3, 1, [0, 2], [2, 0], [1.0, 1.0])
    with pytest.raises(ValueError):
        check_csc(A)


def test_transpose_round_trip():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 5)) * (rng.random((7, 5)) < 0.4)
    A = csc(a)
    assert_array_equal(A.transpose().to_dense(), a.T)
    assert_array_equal(A.transpose().transpose().to_dense(), a)
    check_csc(A.transpose())


# ---------------------------------------------------------------------------
# matvec kernels
# ---------------------------------------------------------------------------


def test_matvec_identity():
    A = csc(np.eye(2))
    assert_array_equal(matvec(A, [3.0, -1.0]), [3.0, -1.0])


def test_matvec_laauchli():
    A = csc(laauchli(1e-4))
    assert_allclose(matvec(A, [1.0, 1.0]), [2.0, 1e-4, 1e-4], rtol=0, atol=0)


def test_matvec_matches_triple_loop():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((7, 5)) * (rng.random((7, 5)) < 0.4)
    x = rng.standard_normal(5)
    got = matvec(csc(a), x)
    want = dense_triple_loop_matvec(a, x)
    assert rel_err(got, want) <= 1e-15


def test_matvec_transpose_identity_and_laauchli():
    A = csc(np.eye(2))
    assert_array_equal(matvec_transpose(A, [3.0, -1.0]), [3.0, -1.0])
    L = csc(laauchli(1e-4))
    assert_allclose(matvec_transpose(L, [1.0, 1.0, 1.0]), [1 + 1e-4, 1 + 1e-4], rtol=1e-15)


def test_matvec_transpose_matches_triple_loop():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((7, 5)) * (rng.random((7, 5)) < 0.4)
    y = rng.standard_normal(7)
    assert rel_err(matvec_transpose(csc(a), y), dense_triple_loop_matvec(a.T, y)) <= 1e-15


def test_matvec_dimension_mismatch():
    A = csc(np.eye(3))
    with pytest.raises(ValueError):
        matvec(A, [1.0, 2.0])
    with pytest.raises(ValueError):
        matvec_transpose(A, [1.0, 2.0])


def test_matvec_empty_column_handling():
    a = np.zeros((3, 3))
    a[0, 0] = 2.0
    A = csc(a)
    assert_array_equal(matvec_transpose(A, [1.0, 1.0, 1.0]), [2.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# triangular solves
# ---------------------------------------------------------------------------


def test_lower_solve_identity_and_hand_case():
    identity = CscMatrix.from_coo(2, 2, [], [], [])  # unit diagonal, nothing stored
    assert_array_equal(sparse_lower_solve(identity, [1.0, 2.0]), [1.0, 2.0])
    L = CscMatrix(2, 2, [0, 1, 1], [1], [2.0])  # unit diag, one sub entry
    assert_array_equal(sparse_lower_solve(L, [1.0, 4.0]), [1.0, 2.0])


def test_lower_solve_residual():
    rng = np.random.default_rng(3)
    a = np.tril(rng.standard_normal((6, 6)), -1) * (rng.random((6, 6)) < 0.6)
    L = csc(a)  # strictly sub-diagonal storage, unit diagonal implied
    b = rng.standard_normal(6)
    x = sparse_lower_solve(L, b)
    assert np.linalg.norm((a + np.eye(6)) @ x - b) <= 1e-14


def test_upper_solve_identity_hand_and_residual():
    assert_array_equal(sparse_upper_solve(csc(np.eye(2)), [1.0, 2.0]), [1.0, 2.0])
    U = csc([[2.0, 1.0], [0.0, 3.0]])
    assert_allclose(sparse_upper_solve(U, [5.0, 6.0]), [1.5, 2.0], rtol=0)
    rng = np.random.default_rng(4)
    a = np.triu(rng.standard_normal((6, 6)), 1) + np.diag(rng.uniform(1, 2, 6))
    b = rng.standard_normal(6)
    x = sparse_upper_solve(csc(a), b)
    assert np.linalg.norm(a @ x - b) <= 1e-13


def test_upper_solve_missing_diagonal():
    U = CscMatrix(2, 2, [0, 1, 1], [0], [1.0])  # no entry in column 1
    with pytest.raises(np.linalg.LinAlgError):
        sparse_upper_solve(U, [1.0, 1.0])


def test_lower_solve_zero_diagonal():
    """L stores no diagonal at all: the solve takes every diagonal entry as 1."""
    L = csc([[0.0, 0.0], [5.0, 0.0]])
    assert_allclose(sparse_lower_solve(L, [1.0, 6.0]), [1.0, 1.0], rtol=0)


def test_transpose_solves_match_dense():
    rng = np.random.default_rng(5)
    low = np.tril(rng.standard_normal((7, 7)), -1) * (rng.random((7, 7)) < 0.5)
    L = csc(low)  # strictly sub-diagonal storage, unit diagonal implied
    b = rng.standard_normal(7)
    x = sparse_lower_solve_transpose(L, b)
    assert np.linalg.norm((low + np.eye(7)).T @ x - b) <= 1e-13

    up = np.triu(rng.standard_normal((7, 7)), 1) + np.diag(rng.uniform(1, 2, 7))
    x = sparse_upper_solve_transpose(csc(up), b)
    assert np.linalg.norm(up.T @ x - b) <= 1e-13


# ---------------------------------------------------------------------------
# sparse right-hand sides, solved as (n, k) blocks
# ---------------------------------------------------------------------------


def test_sparse_rhs_identity():
    B = np.zeros((4, 2))
    B[2, 0], B[0, 1] = 5.0, -1.0
    X = sparse_lower_solve(CscMatrix.from_coo(4, 4, [], [], []), B)
    assert X.shape == (4, 2)
    assert_array_equal(np.flatnonzero(X[:, 0]), [2])
    assert_array_equal(X, B)


def test_sparse_rhs_sink_node_no_fill():
    L = csc([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    X = sparse_lower_solve(L, np.eye(3)[:, [2]])
    assert_array_equal(np.flatnonzero(X[:, 0]), [2])
    assert_allclose(X[2, 0], 1.0)


def bfs_reach(a_lower, seeds):
    n = a_lower.shape[0]
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        j = frontier.pop()
        for i in range(n):
            if i != j and a_lower[i, j] != 0.0 and i not in seen:
                seen.add(i)
                frontier.append(i)
    return sorted(seen)


def test_sparse_rhs_matches_dense_and_bfs():
    """One seed entry per column: each column's fill is its seed's reach."""
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = int(rng.integers(4, 11))
        low = np.tril(rng.standard_normal((n, n)), -1) * (rng.random((n, n)) < 0.35)
        full = low + np.eye(n)
        L = csc(low)
        k = int(rng.integers(1, 3))
        pat = np.sort(rng.choice(n, size=k, replace=False))
        vals = rng.standard_normal(k)
        B = np.zeros((n, k))
        B[pat, np.arange(k)] = vals
        X = sparse_lower_solve(L, B)
        for c in range(k):
            assert list(np.flatnonzero(X[:, c])) == bfs_reach(full - np.eye(n), [pat[c]])
        dense = np.linalg.solve(full, B.sum(axis=1))
        assert rel_err(X.sum(axis=1), dense) <= 1e-14


def test_sparse_rhs_upper_triangular():
    rng = np.random.default_rng(7)
    up = np.triu(rng.standard_normal((6, 6)), 1) * (rng.random((6, 6)) < 0.5)
    full = up + np.diag(rng.uniform(1, 2, 6))
    X = sparse_upper_solve(csc(full), 2.0 * np.eye(6))
    assert rel_err(X[:, 4], np.linalg.solve(full, np.eye(6)[:, 4] * 2.0)) <= 1e-13
    assert rel_err(X, np.linalg.solve(full, 2.0 * np.eye(6))) <= 1e-13


# ---------------------------------------------------------------------------
# column scaling
# ---------------------------------------------------------------------------


def test_column_scale_three_four_five():
    A = csc([[3.0], [4.0]])
    scaled, scaling = column_scale(A)
    assert_allclose(scaled.to_dense().ravel(), [0.6, 0.8], rtol=1e-15)
    assert_allclose(scaling.scale, [5.0], rtol=1e-15)


def test_column_scale_unit_columns_unchanged():
    A = csc(np.eye(3))
    scaled, scaling = column_scale(A)
    assert_array_equal(scaled.to_dense(), np.eye(3))
    assert_array_equal(scaling.scale, [1.0, 1.0, 1.0])


def test_column_scale_norms_and_commute():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((9, 6)) * (rng.random((9, 6)) < 0.7)
    a[0] += 1.0  # no zero columns
    A = csc(a)
    scaled, scaling = column_scale(A)
    norms = np.linalg.norm(scaled.to_dense(), axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-14
    x = rng.standard_normal(6)
    assert rel_err(matvec(scaled, x), matvec(A, x / scaling.scale)) <= 1e-14


def test_column_scale_rejects_zero_column():
    a = np.eye(3)
    a[1, 1] = 0.0
    with pytest.raises(ValueError, match="1"):
        column_scale(csc(a))


def test_unscale_solution():
    A = csc([[3.0, 0.0], [4.0, 2.0]])
    scaled, scaling = column_scale(A)
    y = np.array([1.0, 1.0])
    x = scaling.unscale_solution(y)
    assert rel_err(matvec(scaled, y), matvec(A, x)) <= 1e-15


# ---------------------------------------------------------------------------
# spectral norm estimate
# ---------------------------------------------------------------------------


def test_power_method_diagonal():
    A = csc(np.diag([3.0, 1.0]))
    assert abs(power_method_norm2(A, iters=50, seed=0) - 3.0) <= 1e-8


def test_power_method_identity_exact():
    assert power_method_norm2(csc(np.eye(5)), iters=1, seed=1) == 1.0


def test_power_method_vs_dense_eigen():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((20, 10))
    A = csc(a)
    est = power_method_norm2(A, iters=100, seed=2)
    true = np.sqrt(np.linalg.eigvalsh(a.T @ a).max())
    assert abs(est - true) / true <= 1e-3


def test_power_method_monotone():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((15, 8))
    A = csc(a)
    estimates = [power_method_norm2(A, iters=k, seed=3) for k in range(1, 12)]
    diffs = np.diff(estimates)
    assert np.all(diffs >= -1e-12)


def test_power_method_needs_iterations():
    with pytest.raises(ValueError):
        power_method_norm2(csc(np.eye(2)), iters=0, seed=0)


# ---------------------------------------------------------------------------
# Matrix Market reader
# ---------------------------------------------------------------------------


def _write(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_read_identity(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n",
    )
    A = read_matrix_market(path)
    assert (A.nrows, A.ncols, A.nnz) == (2, 2, 2)
    assert_array_equal(A.col_ptr, [0, 1, 2])


def test_read_sums_duplicates(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 2.0\n1 1 3.0\n2 2 1.0\n",
    )
    A, info = read_matrix_market_ex(path)
    assert A.nnz == 2
    assert A.to_dense()[0, 0] == 5.0
    assert info.entries_read == 3


def test_read_symmetric_expansion(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2.0\n2 1 -1.0\n3 3 4.0\n",
    )
    A = read_matrix_market(path)
    d = A.to_dense()
    assert d[0, 1] == d[1, 0] == -1.0
    assert d[0, 0] == 2.0 and d[2, 2] == 4.0


def test_read_integer_field(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate integer general\n2 1 2\n1 1 2\n2 1 -3\n",
    )
    A = read_matrix_market(path)
    assert_array_equal(A.to_dense().ravel(), [2.0, -3.0])


def test_read_transposes_wide(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 3 3\n1 1 1.0\n2 2 1.0\n1 3 5.0\n",
    )
    A, info = read_matrix_market_ex(path)
    assert info.transposed
    assert (A.nrows, A.ncols) == (3, 2)


def test_read_drops_explicit_zeros_and_null_lines(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n"
        "% comment\n3 2 3\n1 1 1.0\n2 2 0.0\n3 2 2.0\n",
    )
    A, info = read_matrix_market_ex(path)
    assert info.explicit_zeros == 1
    # row 2 lost its only entry and is removed
    assert info.removed_rows == 1
    assert (A.nrows, A.ncols, A.nnz) == (2, 2, 2)


def test_read_removes_null_rows_and_cols(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n4 3 3\n1 1 1.0\n2 1 1.0\n4 3 2.0\n",
    )
    A, info = read_matrix_market_ex(path)
    assert info.removed_rows == 1 and info.removed_cols == 1
    assert (A.nrows, A.ncols) == (3, 2)


@pytest.mark.parametrize(
    "text",
    [
        "%%NotMatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n",
        "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n",
        "%%MatrixMarket matrix array real general\n1 1\n1.0\n",
        "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 5.0\n",
        "%%MatrixMarket matrix coordinate real general\nnope\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0 9\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 0\n1 1 1.0\n",
    ],
)
def test_read_rejects_malformed(tmp_path, text):
    path = _write(tmp_path, text)
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)


# ---------------------------------------------------------------------------
# dense Cholesky
# ---------------------------------------------------------------------------


def test_cholesky_identity():
    # packed by rows: (1), (0, 1), (0, 0, 1)
    f = dense_cholesky_factorize(np.eye(3))
    assert_array_equal(f, [1.0, 0.0, 1.0, 0.0, 0.0, 1.0])


def test_cholesky_hand_case():
    f = dense_cholesky_factorize(np.array([[4.0, 2.0], [2.0, 5.0]]))
    assert_allclose(f, [2.0, 1.0, 2.0], rtol=0, atol=1e-15)


def test_cholesky_solve_residual():
    rng = np.random.default_rng(11)
    y = rng.standard_normal((6, 4))
    s = np.eye(6) + y @ y.T
    f = dense_cholesky_factorize(s)
    b = rng.standard_normal(6)
    x = dense_cholesky_solve(f, b)
    assert rel_err(s @ x, b) <= 1e-12


@pytest.mark.parametrize("s, room", [(1, 1), (3, 29), (7, 32), (300, 37)])
def test_cholesky_solve_on_leading_block(s, room):
    """A solve with the factor of order s at the head of a buffer with room
    for more rows reads nothing past it and gives, bit for bit, what LAPACK
    pptrs gives on the exactly sized packed factor."""
    rng = np.random.default_rng(s)
    y = rng.standard_normal((s, 4))
    f = dense_cholesky_factorize(np.eye(s) + y @ y.T)
    buf = np.full((s + room) * (s + room + 1) // 2, np.nan)
    buf[:len(f)] = f
    b = rng.standard_normal(s)
    # packed by rows, L is R = L^T packed by columns: pptrs with uplo U
    ref, info = scipy.linalg.lapack.dpptrs(s, f, b, lower=0)
    assert info == 0
    assert_array_equal(dense_cholesky_solve(buf, b), ref)
    with pytest.raises(ValueError):
        dense_cholesky_solve(buf, np.ones(s + room + 1))


@settings(max_examples=100, deadline=None)
@given(s=st.integers(0, 40), room=st.integers(0, 40), trans=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_cholesky_solve_on_packed_prefix(s, room, trans, seed):
    """A sweep with the factor of order s reads only its s(s+1)/2 entries:
    with NaN in the room past them it gives, bit for bit, what it gives
    on the exactly sized factor, and a solve agrees with cho_solve."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((s, 4))
    S = np.eye(s) + y @ y.T
    f = dense_cholesky_factorize(S)
    assert f.shape == (s * (s + 1) // 2,)
    buf = np.full((s + room) * (s + room + 1) // 2, np.nan)
    buf[:len(f)] = f
    b = rng.standard_normal(s)
    x = dense_lower_solve(buf, b, trans=trans)
    assert x.shape == (s,)
    assert_array_equal(x, dense_lower_solve(f, b, trans=trans))
    x = dense_cholesky_solve(buf, b)
    assert_array_equal(x, dense_cholesky_solve(f, b))
    if s:
        assert rel_err(x, scipy.linalg.cho_solve((unpack_lower(f, s), True), b)) <= 1e-12
    with pytest.raises(ValueError):
        dense_cholesky_solve(buf, np.ones(s + room + 1))


def test_cholesky_in_place_holds_no_square_copy():
    """With overwrite_s a C-order S is factorized in place: the packed
    factor is the only large allocation, where a copy of S alone would
    take S.nbytes."""
    rng = np.random.default_rng(12)
    y = rng.standard_normal((300, 4))
    S = np.eye(300) + y @ y.T
    want = dense_cholesky_factorize(S)
    tracemalloc.start()
    try:
        f = dense_cholesky_factorize(S, overwrite_s=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_array_equal(f, want)
    assert peak < 0.75 * S.nbytes


def test_cholesky_rejects_indefinite():
    with pytest.raises(np.linalg.LinAlgError):
        dense_cholesky_factorize(np.array([[1.0, 2.0], [2.0, 1.0]]))


# ---------------------------------------------------------------------------
# randomized agreement with dense linear algebra
# ---------------------------------------------------------------------------


def test_kernels_match_dense_up_to_50():
    rng = np.random.default_rng(12)
    for trial in range(10):
        m = int(rng.integers(2, 51))
        n = int(rng.integers(2, 51))
        a = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.3)
        A = check_csc(csc(a))
        x = rng.standard_normal(n)
        y = rng.standard_normal(m)
        assert rel_err(matvec(A, x), a @ x) <= 1e-13
        assert rel_err(matvec_transpose(A, y), a.T @ y) <= 1e-13

        k = min(m, n)
        strict = np.tril(a[:k, :k], -1)
        low = strict + np.eye(k)
        b = rng.standard_normal(k)
        assert rel_err(sparse_lower_solve(csc(strict), b), np.linalg.solve(low, b)) <= 1e-13
        up = np.triu(a[:k, :k], 1) + np.diag(rng.uniform(1.0, 2.0, k))
        assert rel_err(sparse_upper_solve(csc(up), b), np.linalg.solve(up, b)) <= 1e-13

        seed_count = int(rng.integers(1, max(2, k // 3)))
        pat = np.sort(rng.choice(k, size=seed_count, replace=False))
        bs = np.zeros(k)
        bs[pat] = b[pat]
        X = sparse_lower_solve(csc(strict), np.column_stack([bs, b]))
        assert rel_err(X[:, 0], np.linalg.solve(low, bs)) <= 1e-13
        assert rel_err(X[:, 1], np.linalg.solve(low, b)) <= 1e-13
