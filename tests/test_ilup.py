import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from rowsplit import CscMatrix, IlupParams, column_scale, ilup_factorize, read_matrix_market_ex
from rowsplit.ilup import modify_pivot
from oracle import dense_ilup, dense_lu_pp

from conftest import csc, random_sparse, rel_err, require_matrix, validate_factors

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


def reconstruct(factors):
    n = factors.ncols
    L = np.vstack([factors.L1.to_dense() + np.eye(n), factors.L2.to_dense()])
    return L @ factors.U.to_dense()


def test_identity_factorization():
    f = ilup_factorize(csc(np.eye(3)), IlupParams())
    assert f.nmod == 0
    assert f.L1.nnz == 0 and f.L2.nnz == 0
    assert_array_equal(f.U.to_dense(), np.eye(3))
    assert_array_equal(f.row_perm.perm, [0, 1, 2])


def test_forced_interchange():
    f = ilup_factorize(csc([[0.0, 1.0], [1.0, 0.0]]), IlupParams(p=2, mu=1.0))
    assert_array_equal(f.row_perm.perm, [1, 0])
    assert f.L1.nnz == 0 and f.nmod == 0
    assert_array_equal(f.U.to_dense(), np.eye(2))


def test_square_matches_partial_pivoting_lu():
    rng = np.random.default_rng(0)
    for trial in range(10):
        n = 50 if trial == 0 else int(rng.integers(3, 9))
        a = rng.standard_normal((n, n))
        params = IlupParams(p=n + 1, tau=0.0, mu=1.0)
        f = ilup_factorize(csc(a), params)
        validate_factors(f, params)
        perm, L, U = dense_lu_pp(a)
        assert_array_equal(f.row_perm.perm, perm)
        assert rel_err(reconstruct(f), a[f.row_perm.perm]) <= 1e-13


def test_rectangular_exactness():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        m = n + int(rng.integers(0, 12))
        a = rng.standard_normal((m, n))
        params = IlupParams(p=m, tau=0.0, mu=0.1)
        f = ilup_factorize(csc(a), params)
        validate_factors(f, params)
        assert rel_err(reconstruct(f), a[f.row_perm.perm]) <= 1e-12


def test_dropping_caps_and_stability_bound():
    rng = np.random.default_rng(2)
    a = random_sparse(rng, 40, 25, density=0.5, strengthen=1.0)
    scaled, _ = column_scale(csc(a))
    params = IlupParams(p=3, tau=0.05, mu=0.1)
    f = ilup_factorize(scaled, params)
    validate_factors(f, params)  # checks caps, tau floor, 1/mu bound, diag floor
    lcounts = f.L1.column_counts() + f.L2.column_counts()
    assert lcounts.max(initial=0) <= 3
    assert (f.U.column_counts() - 1).max(initial=0) <= 3


def test_mixed_density_columns_reconstruct():
    # sparse leading columns and a dense tail: without dropping, the
    # factors reproduce the permuted matrix
    rng = np.random.default_rng(7)
    a = rng.standard_normal((60, 40)) * (rng.random((60, 40)) < 0.08)
    a[:, 30:] += rng.standard_normal((60, 10)) * (rng.random((60, 10)) < 0.8)
    for j in range(40):
        if not a[:, j].any():
            a[rng.integers(0, 60), j] = 1.0
    f = ilup_factorize(csc(a), IlupParams(p=60, tau=0.0, mu=0.1))
    assert rel_err(reconstruct(f), a[f.row_perm.perm]) <= 1e-12


def test_dense_rows_deferred_to_remainder_block():
    # row-count tie-breaking steers pivots away from dense rows, so a
    # handful of dense rows among sparse ones end up below the square block
    rng = np.random.default_rng(0)
    m, n, nd = 40, 20, 3
    a = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.15)
    for j in range(n):
        if not a[:, j].any():
            a[rng.integers(0, m), j] = 1.0
    dense_rows = rng.choice(m, size=nd, replace=False)
    a[dense_rows] = rng.standard_normal((nd, n))
    scaled, _ = column_scale(csc(a))
    f = ilup_factorize(scaled, IlupParams(p=10, tau=0.0, mu=0.1))
    assert np.all(f.row_perm.inv[dense_rows] >= n)


def test_duplicate_columns_trigger_modification():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((30, 20))
    a[:, 7] = a[:, 3]
    a[:, 15] = a[:, 11]
    scaled, _ = column_scale(csc(a))
    params = IlupParams(p=30, tau=0.0, mu=0.1, small=1e-10)
    f = ilup_factorize(scaled, params)
    assert f.nmod >= 1
    assert np.all(np.abs(f.U.values[f.U.col_ptr[1:] - 1]) >= 1e-10)


def test_lpi_klein3_factors_without_modification():
    from conftest import require_matrix
    from rowsplit import read_matrix_market_ex

    A, _ = read_matrix_market_ex(require_matrix("lpi_klein3.mtx"))
    scaled, _ = column_scale(A)
    f = ilup_factorize(scaled, IlupParams(p=10, tau=0.0, mu=0.1, small=1e-10))
    assert f.nmod == 0


def test_determinism_bit_identical():
    rng = np.random.default_rng(4)
    a = random_sparse(rng, 25, 15, density=0.4, strengthen=0.5)
    A = csc(a)
    f1 = ilup_factorize(A, IlupParams(p=5, tau=0.01))
    f2 = ilup_factorize(A, IlupParams(p=5, tau=0.01))
    assert_array_equal(f1.row_perm.perm, f2.row_perm.perm)
    for x, y in [(f1.L1, f2.L1), (f1.L2, f2.L2), (f1.U, f2.U)]:
        assert_array_equal(x.col_ptr, y.col_ptr)
        assert_array_equal(x.row_idx, y.row_idx)
        assert_array_equal(x.values, y.values)
    assert f1.nmod == f2.nmod


@st.composite
def ilup_case(draw):
    """A matrix with m >= n, optional dense rows and columns, and params.

    Integer-valued entries make exact cancellations, so skipped zeros
    and modified pivots occur too.
    """
    n = draw(st.integers(1, 30))
    m = draw(st.integers(n, 55))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        vals = rng.integers(-2, 3, (m, n)).astype(float)
    else:
        vals = rng.standard_normal((m, n))
    a = vals * (rng.random((m, n)) < draw(st.floats(0.05, 0.6)))
    a[rng.choice(m, size=min(draw(st.integers(0, 3)), m), replace=False)] = rng.standard_normal(n)
    cols = rng.choice(n, size=min(draw(st.integers(0, 2)), n), replace=False)
    a[:, cols] = rng.standard_normal((m, len(cols)))
    params = IlupParams(
        p=draw(st.integers(1, m + 1)),
        tau=draw(st.sampled_from([0.0, 0.01, 0.1])),
        mu=draw(st.sampled_from([0.1, 0.5, 1.0])),
    )
    return a, params


DENSE_8X4 = np.random.default_rng(0).standard_normal((8, 4))


@settings(max_examples=400, deadline=None)
@given(case=ilup_case())
# at most p survivors, tau = 0; in column 2 the row pivoted at position 1
# cancels exactly to zero and that position is skipped
@example(case=(np.array([[2.0, 0, 2], [1, 1, 1], [0, 0, 1]]), IlupParams(p=10)))
# more than p survivors in L column 0 and in U column 3
@example(case=(DENSE_8X4, IlupParams(p=2, mu=0.5)))
# tau > 0 with at most p survivors
@example(case=(DENSE_8X4, IlupParams(p=9, tau=0.1)))
# an L entry that underflows to zero after the division by the pivot
@example(case=(np.array([[1e10], [1e-320]]), IlupParams(p=2)))
def test_matches_dense_reference_bitwise(case):
    a, params = case
    f = ilup_factorize(csc(a), params)
    perm, L1, L2, U, nmod = dense_ilup(a, params)
    assert_array_equal(f.row_perm.perm, perm)
    assert f.nmod == nmod
    assert_array_equal(f.L1.to_dense(), L1)
    assert_array_equal(f.L2.to_dense(), L2)
    assert_array_equal(f.U.to_dense(), U)


def test_rejects_wide_and_empty():
    with pytest.raises(ValueError):
        ilup_factorize(csc(np.ones((2, 3))), IlupParams())
    with pytest.raises(ValueError):
        ilup_factorize(CscMatrix.from_coo(0, 0, [], [], []), IlupParams())


def test_params_validation():
    with pytest.raises(ValueError):
        IlupParams(p=0)
    with pytest.raises(ValueError):
        IlupParams(mu=0.0)
    with pytest.raises(ValueError):
        IlupParams(mu=1.5)
    with pytest.raises(ValueError):
        IlupParams(tau=-1.0)
    with pytest.raises(ValueError):
        IlupParams(small=0.0)


# ---------------------------------------------------------------------------
# pivot choice
# ---------------------------------------------------------------------------


def first_pivot(rows, values, counts, mu):
    """The row ilup_factorize pivots on in column 0.

    Column 0 holds values[i] at row rows[i], and that row holds
    counts[i] >= 1 entries in all, so counts[i] is its row count.
    """
    n = max(counts)
    m = max(max(rows) + 1, n)
    a = np.zeros((m, n))
    for r, v, c in zip(rows, values, counts):
        a[r, 1:c] = 1.0
        a[r, 0] = v
    return int(ilup_factorize(csc(a), IlupParams(p=m, mu=mu)).row_perm.perm[0])


def test_choose_pivot_prefers_low_row_count():
    assert first_pivot([1, 2, 3], [0.5, 1.0, 0.9], [1, 5, 2], mu=0.1) == 1


def test_choose_pivot_threshold_excludes():
    assert first_pivot([1, 2, 3], [0.5, 1.0, 0.9], [1, 5, 2], mu=0.95) == 2


def test_choose_pivot_tie_breaks_smallest_row():
    assert first_pivot([4, 2, 7], [1.0, -1.0, 1.0], [3, 3, 3], mu=0.5) == 2


def test_choose_pivot_randomized_predicates():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(1, 12))
        rows = rng.choice(100, size=k, replace=False)
        values = rng.standard_normal(k)
        values[rng.integers(0, k)] = 1.5  # ensure a clear max
        counts = rng.integers(1, 20, size=k)
        mu = float(rng.uniform(0.05, 1.0))
        got = first_pivot(rows, values, counts, mu)
        idx = list(rows).index(got)
        cmax = np.abs(values).max()
        eligible = np.flatnonzero(np.abs(values) >= mu * cmax)
        assert idx in eligible
        assert counts[idx] == counts[eligible].min()
        best = [i for i in eligible if counts[i] == counts[idx]]
        assert rows[idx] == min(rows[i] for i in best)


def test_choose_pivot_empty_column():
    # no candidate: the row at position 0 stays and its pivot is modified
    f = ilup_factorize(csc([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]), IlupParams())
    assert f.row_perm.perm[0] == 0
    assert f.nmod == 1
    assert f.U.to_dense()[0, 0] == modify_pivot(0, 2, 0.0, 1e-10) == 1e-10


# ---------------------------------------------------------------------------
# pivot modification
# ---------------------------------------------------------------------------


def test_modify_pivot_last_column():
    # beta = 1 at the last column
    assert modify_pivot(9, 10, 0.7, 1e-10) == pytest.approx(0.7)


def test_modify_pivot_midpoint():
    # halfway through, beta = 1e-1
    assert modify_pivot(4, 10, 1.0, 1e-10) == pytest.approx(1e-1)


def test_modify_pivot_early_columns_floor():
    val = modify_pivot(0, 10 ** 6, 1.0, 1e-10)
    assert val == pytest.approx(1e-2, rel=1e-3)
    assert modify_pivot(0, 10 ** 6, 0.0, 1e-10) == 1e-10
    assert modify_pivot(3, 7, 0.0, 1e-10) >= 1e-10


# ---------------------------------------------------------------------------
# factors pinned to an earlier revision
# ---------------------------------------------------------------------------

PINNED = json.loads((Path(__file__).parent / "data" / "ilup_digests.json").read_text())["digests"]


def factor_digest(f):
    """SHA-256 over perm, each factor's CSC arrays and nmod, in fixed dtypes."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(f.row_perm.perm, dtype="<i8").tobytes())
    for M in (f.L1, f.L2, f.U):
        h.update(np.ascontiguousarray(M.col_ptr, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(M.row_idx, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(M.values, dtype="<f8").tobytes())
    h.update(str(int(f.nmod)).encode())
    return h.hexdigest()


def pinned_matrix(name):
    """The named input as assembled, not column-scaled."""
    from rsbench.workloads import grid_problem, quasi_square_problem

    if name == "illc1850":
        return read_matrix_market_ex(require_matrix("illc1850.mtx"))[0]
    prob = grid_problem(1) if name == "grid" else quasi_square_problem(1)
    return CscMatrix.from_coo(prob.nrows, prob.ncols, prob.rows, prob.cols, prob.vals)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_factors_match_pinned_digests(name):
    f = ilup_factorize(pinned_matrix(name), IlupParams(p=PINNED[name]["p"]))
    assert factor_digest(f) == PINNED[name]["sha256"]
