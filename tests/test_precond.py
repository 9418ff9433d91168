import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dsyrk

from rowsplit import (
    CscMatrix,
    IlupFactors,
    IlupParams,
    RowSplitPreconditioner,
    SMode,
    build_preconditioner,
    column_scale,
    ilup_factorize,
)
from rowsplit.precond import build_y_explicit
from rowsplit.sparse_core import (
    Permutation,
    dense_cholesky_factorize,
    dense_lower_solve,
    sparse_lower_solve,
    sparse_upper_solve,
)
from oracle import dense_lls_solve, dense_rowsplit_apply, dense_woodbury_correction
from rowsplit import precond
from rowsplit.precond import _coupling_gram

from conftest import (
    check_csc,
    coupling_gram,
    csc,
    dense_factors,
    g_factor,
    laauchli,
    rel_err,
    s_factor,
    s_formula_float64,
    well_conditioned_split,
)


def hand_factors(L2_dense, n=None):
    """Factors with L1 = I and U = I, so Y should equal L2 exactly."""
    L2_dense = np.asarray(L2_dense, dtype=float)
    s = L2_dense.shape[0]
    n = n or L2_dense.shape[1]
    return IlupFactors(
        row_perm=Permutation(np.arange(n + s), np.arange(n + s)),
        L1=CscMatrix.from_coo(n, n, [], [], []),
        L2=csc(L2_dense) if s else CscMatrix.from_coo(0, n, [], [], []),
        U=csc(np.eye(n)),
        nmod=0,
    )


def factored(a, p=None, tau=0.0):
    A = csc(a)
    m = A.nrows
    return ilup_factorize(A, IlupParams(p=p or m, tau=tau, mu=0.1))


# ---------------------------------------------------------------------------
# explicit Y
# ---------------------------------------------------------------------------


def test_y_empty_when_square():
    rng = np.random.default_rng(0)
    f = factored(rng.standard_normal((5, 5)))
    yt = build_y_explicit(f)
    assert yt.shape == (5, 0)


def test_y_equals_l2_for_identity_l1():
    L2 = np.array([[2.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    yt = build_y_explicit(hand_factors(L2))
    assert_array_equal(yt.T, L2)


def test_y_matches_dense_inverse():
    rng = np.random.default_rng(1)
    for _ in range(5):
        n, s = int(rng.integers(3, 10)), int(rng.integers(1, 6))
        f = factored(rng.standard_normal((n + s, n)))
        yt = build_y_explicit(f)
        L1 = f.L1.to_dense() + np.eye(n)
        want = f.L2.to_dense() @ np.linalg.inv(L1)
        assert rel_err(yt.T, want) <= 1e-12


def random_unit_lower_factors(rng, n, s, density):
    """Factors with a well-conditioned unit L1 and an L2 with empty rows."""
    off = np.tril(rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < density), -1)
    L2 = rng.standard_normal((s, n)) * (rng.random((s, n)) < density)
    L2[rng.random(s) < 0.3] = 0.0
    return IlupFactors(
        row_perm=Permutation(np.arange(n + s), np.arange(n + s)),
        L1=csc(off / max(n, 1)),
        L2=csc(L2.reshape(s, n)),
        U=csc(np.eye(n)),
        nmod=0,
    )


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 25),
    s=st.integers(0, 12),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=6, s=0, density=0.5, seed=0)
@example(n=8, s=10, density=0.0, seed=1)
@example(n=20, s=12, density=0.6, seed=2)
def test_y_build_equals_l2_times_inverse_l1(n, s, density, seed):
    """Y = L2 L1^{-1}, including empty L2 rows and an empty L2.

    With s <= n the dense build stores Y as its sparse copy beside S.
    With s > n it stores none (Yt is n x 0) and factors G = I + Y^T Y.
    """
    f = random_unit_lower_factors(np.random.default_rng(seed), n, s, density)
    yt = build_y_explicit(f)
    assert yt.shape == (n, s)
    want = f.L2.to_dense() @ np.linalg.inv(f.L1.to_dense() + np.eye(n))
    assert rel_err(yt.T, want) <= 1e-12
    pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
    Yt = check_csc(pre.Yt)
    if s <= n:
        assert pre.G_packed is None
        assert_array_equal(Yt.to_dense(), yt)
    else:
        assert Yt.ncols == 0 and pre.S_packed.shape == (0,)
        L = g_factor(pre)
        assert rel_err(L @ L.T, np.eye(n) + yt @ yt.T) <= 1e-12


# ---------------------------------------------------------------------------
# Y application and S products
# ---------------------------------------------------------------------------


def test_y_apply_square_is_empty():
    rng = np.random.default_rng(2)
    f = factored(rng.standard_normal((4, 4)))
    pre = build_preconditioner(f, s_mode=SMode.INNER_CG)
    assert pre.y_apply(rng.standard_normal(4)).shape == (0,)
    assert_array_equal(pre.y_apply_transpose(np.zeros(0)), np.zeros(4))


def test_y_apply_hand_case():
    pre = build_preconditioner(hand_factors([[2.0, 0.0]]), s_mode=SMode.DENSE_FACTOR)
    assert_array_equal(pre.y_apply([3.0, 5.0]), [6.0])


def test_y_modes_agree():
    """Stored Y (dense S, s <= n) against solves through the factors (inner CG).

    With s > n the dense build stores no Y: its G factor must then match
    I + Y^T Y with Y applied through the factors.
    """
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, s = int(rng.integers(3, 12)), int(rng.integers(1, 7))
        f = factored(rng.standard_normal((n + s, n)), p=4)
        pe = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
        pi = build_preconditioner(f, s_mode=SMode.INNER_CG)
        assert pe.Yt is not None and pi.Yt is None
        if s > n:
            assert pe.Yt.ncols == 0
            Y = np.column_stack([pi.y_apply(e) for e in np.eye(n)])
            L = g_factor(pe)
            assert rel_err(L @ L.T, np.eye(n) + Y.T @ Y) <= 1e-13
            continue
        r1 = rng.standard_normal(n)
        w = rng.standard_normal(s)
        assert rel_err(pi.y_apply(r1), pe.y_apply(r1)) <= 1e-13
        assert rel_err(pi.y_apply_transpose(w), pe.y_apply_transpose(w)) <= 1e-13


def test_s_matvec_identity_l2_zero():
    f = IlupFactors(
        row_perm=Permutation(np.arange(5), np.arange(5)),
        L1=CscMatrix.from_coo(3, 3, [], [], []),
        L2=CscMatrix.from_coo(2, 3, [], [], []),
        U=csc(np.eye(3)),
        nmod=0,
    )
    pre = build_preconditioner(f, s_mode=SMode.INNER_CG)
    v = np.array([1.5, -2.0])
    assert_array_equal(v + pre.y_apply(pre.y_apply_transpose(v)), v)


def test_s_matvec_hand_case():
    pre = build_preconditioner(hand_factors([[1.0, 1.0]]), s_mode=SMode.INNER_CG)
    v = np.array([2.0])
    assert_array_equal(v + pre.y_apply(pre.y_apply_transpose(v)), [6.0])


def test_s_matvec_matches_dense_gram():
    """The assembled Gram's product against Y applied through the factors:
    S v = v + Y Y^T v when s <= n, G v = v + Y^T Y v when s > n."""
    rng = np.random.default_rng(4)
    for _ in range(10):
        n, s = int(rng.integers(3, 12)), int(rng.integers(1, 8))
        f = factored(rng.standard_normal((n + s, n)), p=5)
        low, _ = _coupling_gram(f)
        assert low.shape == (min(s, n),) * 2
        v = rng.standard_normal(min(s, n))
        want = (low + np.tril(low, -1).T) @ v
        inner = build_preconditioner(f, s_mode=SMode.INNER_CG)
        if s <= n:
            got = v + inner.y_apply(inner.y_apply_transpose(v))
        else:
            got = v + inner.y_apply_transpose(inner.y_apply(v))
        assert rel_err(got, want) <= 1e-13


def test_assemble_s_trivial_cases():
    f0 = hand_factors(np.zeros((0, 2)))
    f0 = IlupFactors(
        row_perm=Permutation(np.arange(3), np.arange(3)),
        L1=CscMatrix.from_coo(2, 2, [], [], []),
        L2=CscMatrix.from_coo(1, 2, [], [], []),
        U=csc(np.eye(2)),
        nmod=0,
    )
    pre = build_preconditioner(f0, s_mode=SMode.DENSE_FACTOR)
    assert_array_equal(_coupling_gram(f0)[0], np.eye(1))
    assert_array_equal(pre.S_packed, [1.0])

    f1 = hand_factors([[1.0, 1.0]])
    pre = build_preconditioner(f1, s_mode=SMode.DENSE_FACTOR)
    assert_array_equal(_coupling_gram(f1)[0], [[3.0]])
    assert_array_equal(pre.S_packed, [np.sqrt(3.0)])


def test_dense_build_without_split_rows_is_silent(capfd):
    # BLAS rejects a 0 x 0 Gram product with a message on stderr
    pre = build_preconditioner(hand_factors(np.zeros((0, 2))), s_mode=SMode.DENSE_FACTOR)
    assert pre.S_packed.shape == (0,)
    assert_array_equal(pre.apply([1.0, 2.0], np.zeros(0)), [1.0, 2.0])
    assert capfd.readouterr().err == ""


def test_assemble_s_matches_dense_gram():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n, s = int(rng.integers(3, 10)), int(rng.integers(1, 6))
        f = factored(rng.standard_normal((n + s, n)), p=4)
        pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
        yd = pre.Yt.to_dense().T
        want = np.eye(s) + yd @ yd.T
        S, _ = _coupling_gram(f)
        # only the lower triangle is assembled; the Cholesky reads no more
        assert rel_err(S, np.tril(want)) <= 1e-13
        assert_array_equal(np.triu(S, 1), 0.0)
        # C order: the transpose the Cholesky reads is Fortran order, factorized in place
        assert S.flags.c_contiguous and pre.S_packed.shape == (s * (s + 1) // 2,)
        L = s_factor(pre)
        assert rel_err(L @ L.T, want) <= 1e-13
        # Cholesky pivots are strictly positive: the coupling matrix is SPD
        assert np.diag(L).min() > 0.0


def test_dense_mode_respects_cap(monkeypatch):
    """The cap bounds the order min(s, n) of the Gram that is factored."""
    rng = np.random.default_rng(6)
    wide = factored(rng.standard_normal((6, 4)))  # s = 2 <= n = 4: S of order 2
    tall = factored(rng.standard_normal((10, 4)))  # s = 6 > n = 4: G of order 4
    monkeypatch.setattr(precond, "DENSE_S_CAP", 2)
    assert build_preconditioner(wide, s_mode=SMode.DENSE_FACTOR).G_packed is None
    monkeypatch.setattr(precond, "DENSE_S_CAP", 1)
    with pytest.raises(ValueError, match="dense cap 1"):
        build_preconditioner(wide, s_mode=SMode.DENSE_FACTOR)
    # s > cap >= n builds dense
    for cap in (5, 4):
        monkeypatch.setattr(precond, "DENSE_S_CAP", cap)
        assert build_preconditioner(tall, s_mode=SMode.DENSE_FACTOR).G_packed is not None
    monkeypatch.setattr(precond, "DENSE_S_CAP", 3)
    with pytest.raises(ValueError, match="order 4 exceeds the dense cap 3"):
        build_preconditioner(tall, s_mode=SMode.DENSE_FACTOR)
    build_preconditioner(tall, s_mode=SMode.INNER_CG)


def test_g_build_holds_one_block_of_y(monkeypatch):
    """With s > n the build forms G from blocks of n split rows, never all of Y^T.

    s = 200 n split rows of one entry each, past a cap of n, take the G
    route.  The build's tracemalloc peak, set by its copy of L2 by rows,
    stays under a quarter of one dense n x s array: a build that formed
    all of Y^T would hold that array and L2 densified beside it.  With
    L1 = U = I, G = I + L2^T L2.
    """
    rng = np.random.default_rng(23)
    n, s = 40, 8000
    L2 = np.zeros((s, n))
    L2[np.arange(s), rng.integers(0, n, s)] = rng.standard_normal(s)
    f = hand_factors(L2)
    monkeypatch.setattr(precond, "DENSE_S_CAP", n)
    sparse_lower_solve(f.L1, np.zeros(n))  # caches the L1 solver outside the count
    tracemalloc.start()
    try:
        pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * s / 4
    L = g_factor(pre)
    assert rel_err(L @ L.T, np.eye(n) + L2.T @ L2) <= 1e-12


def test_psize_accounting():
    rng = np.random.default_rng(7)
    f = factored(rng.standard_normal((12, 8)), p=4)
    pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
    s = f.L2.nrows
    want = f.L1.nnz + f.L2.nnz + f.U.nnz + pre.Yt.nnz + s * (s + 1) // 2
    assert pre.psize == want
    assert pre.S_packed.shape == (s * (s + 1) // 2,)  # a built factor stores no more
    pre2 = build_preconditioner(f, s_mode=SMode.INNER_CG)
    assert pre2.psize == f.L1.nnz + f.L2.nnz + f.U.nnz
    # a fold counts its (s+1) x (s+1) triangle, not the room of its buffer
    grown = pre.add_row([0, 3], [1.0, -2.0])
    g = grown.factors
    order = s + precond.FOLD_ROOM
    assert grown.S_packed.shape == (order * (order + 1) // 2,)
    assert grown.psize == g.L1.nnz + g.L2.nnz + g.U.nnz + grown.Yt.nnz + (s + 1) * (s + 2) // 2


# ---------------------------------------------------------------------------
# full application
# ---------------------------------------------------------------------------


def test_apply_square_degenerates_to_triangular_solves():
    rng = np.random.default_rng(8)
    f = factored(rng.standard_normal((6, 6)))
    pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
    r1 = rng.standard_normal(6)
    h = pre.apply(r1, np.zeros(0))
    v = sparse_lower_solve(f.L1, r1)
    assert_allclose(h, sparse_upper_solve(f.U, v), rtol=0, atol=0)


def test_apply_exact_factors_give_lls_solution():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        m = n + int(rng.integers(0, 3))
        a = rng.standard_normal((m, n))
        f = factored(a)
        pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
        b = rng.uniform(-1, 1, m)
        pb = b[f.row_perm.perm]
        h = pre.apply(pb[:n], pb[n:])
        want = dense_lls_solve(a, b).x_true
        assert rel_err(h, want) <= 1e-10


def test_apply_corrects_any_starting_point():
    rng = np.random.default_rng(24)
    for _ in range(8):
        n = int(rng.integers(3, 25))
        m = n + int(rng.integers(0, 6))
        a = rng.standard_normal((m, n))
        f = factored(a)
        pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
        b = rng.uniform(-1, 1, m)
        x0 = rng.standard_normal(n)
        r = (b - a @ x0)[f.row_perm.perm]
        h = pre.apply(r[:n], r[n:])
        want = dense_lls_solve(a, b).x_true
        assert rel_err(x0 + h, want) <= 1e-9


def test_apply_incomplete_factors_match_woodbury_oracle():
    a = laauchli(1e-2)
    scaled, _ = column_scale(csc(a))
    f = ilup_factorize(scaled, IlupParams(p=1, tau=0.0, mu=0.1))
    pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
    rng = np.random.default_rng(10)
    r = rng.uniform(-1, 1, 3)
    rp = r[f.row_perm.perm]
    h = pre.apply(rp[:2], rp[2:])
    L1 = f.L1.to_dense() + np.eye(2)
    want = dense_woodbury_correction(
        L1 @ f.U.to_dense(), f.L2.to_dense() @ f.U.to_dense(), rp[:2], rp[2:]
    )
    assert rel_err(h, want) <= 1e-12


def test_apply_dimension_mismatch():
    rng = np.random.default_rng(11)
    f = factored(rng.standard_normal((7, 4)))
    pre = build_preconditioner(f, s_mode=SMode.INNER_CG)
    with pytest.raises(ValueError):
        pre.apply(np.zeros(4), np.zeros(1))


def test_inner_cg_limit_matches_dense_factor(monkeypatch):
    rng = np.random.default_rng(12)
    for _ in range(10):
        n, s = int(rng.integers(4, 20)), int(rng.integers(1, 16))
        f = factored(well_conditioned_split(rng, n, s))
        pe = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
        pi = build_preconditioner(f, s_mode=SMode.INNER_CG)
        monkeypatch.setattr(precond, "INNER_CG_STEPS", s)
        r1, r2 = rng.standard_normal(n), rng.standard_normal(s)
        ha, hb = pe.apply(r1, r2), pi.apply(r1, r2)
        assert rel_err(hb, ha) <= 1e-8


def operator_error_and_bound(pre, r1, r2):
    """Worst error of a dense-mode apply against the operator, and its bound.

    r1 and r2 hold right-hand sides as columns.  The error is measured
    against a long-double evaluation of oracle.dense_rowsplit_apply on the
    preconditioner's own factors.  The bound is twice the largest of:
    - the worst error of s_formula_float64, a float64 dense evaluation of
      the S form;
    - 1e-12: below that, on a handful of columns, both errors are rounding
      noise whose ratio says nothing (the S-form apply, which the G route
      leaves as it was, is over twice the dense error on 102 of 684 S-route
      draws of test_dense_apply_matches_rowsplit_operator's distribution);
    - (n + s) eps (1 + ||Y||^2): 1 + ||Y||^2 bounds the condition number
      of S and of G, and the bordered factor of a fold loses accuracy as
      that grows.
    """
    L1, L2, U = dense_factors(pre.factors)
    want = dense_rowsplit_apply(*(v.astype(np.longdouble) for v in (L1, L2, U, r1, r2)))
    dense = s_formula_float64(L1, L2, U, r1, r2)
    worst_apply = worst_dense = 0.0
    for j in range(r1.shape[1]):
        worst_apply = max(worst_apply, rel_err(pre.apply(r1[:, j], r2[:, j]), want[:, j]))
        worst_dense = max(worst_dense, rel_err(dense[:, j], want[:, j]))
    Y = solve_triangular(L1, L2.T, lower=True, unit_diagonal=True, trans="T").T
    kappa = 1.0 + (np.linalg.norm(Y, 2) ** 2 if Y.size else 0.0)
    eps = np.finfo(np.float64).eps
    floor = (pre.n + pre.split_rows) * eps * kappa
    return worst_apply, 2.0 * max(worst_dense, 1e-12, floor)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    s_frac=st.floats(0.0, 1.0),
    folds=st.integers(0, 3),
    p=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, s_frac=0.0, folds=0, p=12, seed=0)  # no split rows
@example(n=3, s_frac=1.0, folds=3, p=12, seed=1)  # s = 2n + 2 with folds onto G
@example(n=4, s_frac=0.5, folds=2, p=2, seed=2)  # s = n: the largest S
def test_dense_apply_matches_rowsplit_operator(n, s_frac, folds, p, seed):
    """The dense apply is U^{-1} (L1^T L1 + L2^T L2)^{-1} (L1^T r1 + L2^T r2).

    s is drawn on both sides of n (0 <= s <= 2n + 2), with 0-3 folds.
    Over four right-hand sides, the worst error against a long-double
    evaluation of the operator is at most twice that of a float64 dense
    evaluation of the S form, r1 + Y^T S^{-1} (r2 - Y r1), above the
    floors of operator_error_and_bound.
    """
    rng = np.random.default_rng(seed)
    s = round(s_frac * (2 * n + 2))
    pre = build_preconditioner(factored(rng.standard_normal((n + s, n)), p=p), SMode.DENSE_FACTOR)
    assert (pre.G_packed is not None) == (s > n)
    for _ in range(folds):
        pre = pre.add_row(*random_row(rng, n))
    r1, r2 = rng.standard_normal((n, 4)), rng.standard_normal((pre.split_rows, 4))
    worst, bound = operator_error_and_bound(pre, r1, r2)
    assert worst <= bound, (worst, bound)


# ---------------------------------------------------------------------------
# row updates
# ---------------------------------------------------------------------------


@st.composite
def matrix_and_row(draw):
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 8))
    entries = st.sampled_from([0.0, 0.0, 1.0, -2.5, 0.125])
    return draw(arrays(np.float64, (nrows, ncols), elements=entries)), draw(
        arrays(np.float64, ncols, elements=entries))


@settings(max_examples=200, deadline=None)
@given(case=matrix_and_row())
@example(case=(np.zeros((0, 3)), np.array([1.0, 0.0, -2.5])))  # no rows yet
@example(case=(np.eye(3), np.zeros(3)))  # all-zero row
@example(case=(np.eye(3), np.array([4.0, 0.0, 0.0])))  # first column only
@example(case=(np.eye(3)[:, ::-1], np.array([0.0, 0.0, 4.0])))  # last column only
def test_with_row_matches_vstack(case):
    a, x = case
    grown = check_csc(precond._with_row(csc(a), x))
    assert_array_equal(grown.to_dense(), np.vstack([a, x]))


def test_add_zero_row_keeps_action():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((8, 5))
    f = factored(a)
    pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
    pre2 = pre.add_row([], [])
    s = f.L2.nrows
    L = s_factor(pre2)
    assert L[s, s] == 1.0
    assert np.all(L[s, :s] == 0.0)
    r1, r2 = rng.standard_normal(5), rng.standard_normal(s)
    assert_allclose(
        pre2.apply(r1, np.append(r2, 0.0)), pre.apply(r1, r2), rtol=0, atol=1e-13
    )


def test_add_duplicate_row_matches_augmented_lls():
    rng = np.random.default_rng(17)
    for _ in range(5):
        n = int(rng.integers(3, 8))
        m = n + int(rng.integers(1, 4))
        a = rng.standard_normal((m, n))
        f = factored(a)
        pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
        dup = a[int(rng.integers(0, m))]
        pre2 = pre.add_row(np.arange(n), dup)
        aug = np.vstack([a, dup])
        b = rng.uniform(-1, 1, m + 1)
        pb = b[pre2.factors.row_perm.perm]
        h = pre2.apply(pb[:n], pb[n:])
        want = dense_lls_solve(aug, b).x_true
        assert rel_err(h, want) <= 1e-10


def test_add_row_incremental_matches_rebuild():
    """A fold and a rebuild hold the same coupling Gram and apply the same.

    A fold keeps the route its object was built with; a rebuild takes the
    route of the grown split.  psize counts what each stores: the factors,
    the entries of Yt and the triangle of its S factor, plus the triangle
    of L_G when there is one.
    """
    rng = np.random.default_rng(18)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        m = n + int(rng.integers(1, 5))
        a = rng.standard_normal((m, n))
        f = factored(a)
        pre = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR)
        row = rng.standard_normal(n) * (rng.random(n) < 0.7)
        pat = np.flatnonzero(row)
        pre2 = pre.add_row(pat, row[pat])
        # rebuild from scratch out of the updated trapezoidal factor
        rebuilt = build_preconditioner(pre2.factors, s_mode=SMode.DENSE_FACTOR)
        assert rel_err(coupling_gram(pre2), coupling_gram(rebuilt)) <= 1e-12
        r1 = rng.standard_normal(n)
        r2 = rng.standard_normal(m - n + 1)
        assert rel_err(pre2.apply(r1, r2), rebuilt.apply(r1, r2)) <= 1e-11
        g, tri = pre2.factors, precond._tri
        stored = g.L1.nnz + g.L2.nnz + g.U.nnz
        k = pre2.Yt.ncols  # m - n + 1, or 1 past a G factor
        assert pre2.psize == stored + pre2.Yt.nnz + tri(k) + (tri(n) if m - n > n else 0)
        want = stored + (rebuilt.Yt.nnz + tri(m - n + 1) if m - n + 1 <= n else tri(n))
        assert rebuilt.psize == want


def rebuild_on_route(pre):
    """A dense build of a folded object's own route, with fresh Cholesky factors.

    Without a G factor: Y^T of all split rows and the factor of
    S = I + Y Y^T, as the build formed S before it chose G for s > n.
    Past one: the same L_G, and F^T = L_G^{-1} Y^T for the rows folded
    since, with the factor of S_F = I + F F^T.  The folds and this build
    run the same apply arithmetic, so they agree to rounding however
    ill-conditioned S is.
    """
    f, k = pre.factors, pre.Yt.ncols
    yt = build_y_explicit(f)[:, pre.split_rows - k:]
    if pre.G_packed is not None:
        yt = np.column_stack([dense_lower_solve(pre.G_packed, col) for col in yt.T])
    low = dsyrk(1.0, yt, trans=1, lower=0).T
    low[np.diag_indices(k)] += 1.0
    Yt = csc(yt)
    return RowSplitPreconditioner(f, SMode.DENSE_FACTOR, Yt, dense_cholesky_factorize(low),
                                  pre.psize, pre.G_packed)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 10),
    s=st.integers(0, 4),
    s_mode=st.sampled_from([SMode.DENSE_FACTOR, SMode.INNER_CG]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, s=0, s_mode=SMode.DENSE_FACTOR, seed=7)  # the folds' S form is 1.6e-9 off
def test_three_add_rows_match_rebuild(n, s, s_mode, seed):
    """Three successive folds equal a fresh build of their route on the extended factors.

    That build is the rebuild while both factor S (s + 3 <= n).  When the
    rebuild factors G instead it applies the operator another way, so it
    is held to the operator (operator_error_and_bound), and the folds to
    rebuild_on_route.
    """
    rng = np.random.default_rng(seed)
    pre = build_preconditioner(factored(rng.standard_normal((n + s, n))), s_mode)
    for _ in range(3):
        row = rng.standard_normal(n) * (rng.random(n) < 0.7)
        pat = np.flatnonzero(row)
        pre = pre.add_row(pat, row[pat])
    rebuilt = build_preconditioner(pre.factors, s_mode)
    assert (pre.Yt is None) == (rebuilt.Yt is None) == (s_mode is SMode.INNER_CG)
    r1, r2 = rng.standard_normal(n), rng.standard_normal(s + 3)
    same_route = rebuilt
    if rebuilt.G_packed is not None:  # s + 3 > n: the rebuild stores no Y
        assert rebuilt.Yt.ncols == 0
        # the folds are F's columns past a built G, else Y^T's
        assert pre.Yt.ncols == (3 if s > n else s + 3)
        worst, bound = operator_error_and_bound(rebuilt, r1[:, None], r2[:, None])
        assert worst <= bound, (worst, bound)
        same_route = rebuild_on_route(pre)
    if s_mode is SMode.DENSE_FACTOR:
        assert_array_equal(pre.Yt.col_ptr, same_route.Yt.col_ptr)
        assert_array_equal(pre.Yt.row_idx, same_route.Yt.row_idx)
    assert rel_err(pre.apply(r1, r2), same_route.apply(r1, r2)) <= 1e-10


def test_add_row_accepted_for_inner_cg():
    """An inner-CG fold appends the same L2 row as a dense one and stores no Y or S."""
    rng = np.random.default_rng(19)
    f = factored(rng.standard_normal((7, 4)))
    grown = build_preconditioner(f, s_mode=SMode.INNER_CG).add_row([0, 2], [1.0, -3.0])
    want = build_preconditioner(f, s_mode=SMode.DENSE_FACTOR).add_row([0, 2], [1.0, -3.0])
    assert grown.Yt is None and grown.S_packed is None
    assert grown.split_rows == f.L2.nrows + 1
    assert grown.psize == f.L1.nnz + grown.factors.L2.nnz + f.U.nnz
    mine, theirs = grown.factors.L2, want.factors.L2
    assert_array_equal(mine.col_ptr, theirs.col_ptr)
    assert_array_equal(mine.row_idx, theirs.row_idx)
    assert_array_equal(mine.values, theirs.values)
    assert_array_equal(grown.factors.row_perm.perm, want.factors.row_perm.perm)


def test_inner_cg_add_row_matches_build_on_grown_factors():
    """Inner-CG folds equal a fresh build on the grown factors.

    The grown L2 also matches rows l = U^{-T} a appended densely, and a
    build on that dense reference applies the same to rounding.
    """
    rng = np.random.default_rng(20)
    for _ in range(10):
        n, s = int(rng.integers(3, 12)), int(rng.integers(0, 5))
        f = factored(rng.standard_normal((n + s, n)), p=4)
        pre = build_preconditioner(f, s_mode=SMode.INNER_CG)
        L2 = f.L2.to_dense()
        for _ in range(3):
            row = rng.standard_normal(n) * (rng.random(n) < 0.6)
            pat = np.flatnonzero(row)
            pre = pre.add_row(pat, row[pat])
            L2 = np.vstack([L2, solve_triangular(f.U.to_dense(), row, trans="T")])
        check_csc(pre.factors.L2)
        assert rel_err(pre.factors.L2.to_dense(), L2) <= 1e-12
        rebuilt = build_preconditioner(pre.factors, s_mode=SMode.INNER_CG)
        assert pre.psize == rebuilt.psize
        r1, r2 = rng.standard_normal(n), rng.standard_normal(s + 3)
        h = pre.apply(r1, r2)
        assert_array_equal(h, rebuilt.apply(r1, r2))
        reference = replace(pre.factors, L2=csc(L2))
        assert rel_err(h, build_preconditioner(reference, SMode.INNER_CG).apply(r1, r2)) <= 1e-10


# ---------------------------------------------------------------------------
# dense folds: the bordered pivot and the shared arrays
# ---------------------------------------------------------------------------


def random_row(rng, n):
    row = rng.standard_normal(n) * (rng.random(n) < 0.7)
    pat = np.flatnonzero(row)
    return pat, row[pat]


def test_bordered_pivot_does_not_cancel():
    """A fold the old pivot 1 + y.y - |L^{-1} c|^2 refused gets the exact pivot.

    With L1 = U = I the new row is y itself.  Y = [1e10, 0] and
    y = (1e10, 1) give a Schur complement of 3 - 1e-20 next to
    y.y = 1e20 + 1, so the old form cancels to 0 in float64.  The exact
    value is computed in rational arithmetic: a long double cannot hold
    1e20 + 1 either.
    """
    pre = build_preconditioner(hand_factors([[1e10, 0.0]]), SMode.DENSE_FACTOR)
    y = np.array([1e10, 1.0])
    cp = solve_triangular(s_factor(pre), pre.y_apply(y), lower=True)
    assert 1.0 + y @ y - cp @ cp <= 0.0

    Y, yq = [Fraction(1e10), Fraction(0)], [Fraction(v) for v in y]
    c = sum(a * b for a, b in zip(Y, yq))
    schur = 1 + sum(v * v for v in yq) - c * c / (1 + sum(v * v for v in Y))
    grown = pre.add_row([0, 1], y)
    assert s_factor(grown)[1, 1] ** 2 == pytest.approx(float(schur), rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), s=st.integers(0, 4), k=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_folded_factor_matches_coupling_matrix(n, s, k, seed):
    """After k folds L L^T = I + Y Y^T, through rows of very different size
    and past the room of the first copy (FOLD_ROOM rows).  Past a G factor
    (s > n) the folds build L L^T = I + F F^T over the k folded rows."""
    rng = np.random.default_rng(seed)
    pre = build_preconditioner(factored(rng.standard_normal((n + s, n))), SMode.DENSE_FACTOR)
    for _ in range(k):
        pat, vals = random_row(rng, n)
        pre = pre.add_row(pat, vals * 10.0 ** rng.integers(-4, 9))
    L, yt = s_factor(pre), pre.Yt.to_dense()
    order = k if s > n else s + k
    want = np.eye(order) + yt.T @ yt
    assert L.shape == (order, order)
    assert rel_err(L @ L.T, want) <= 1e-12


def test_fold_leaves_parent_bit_identical():
    """A fold written in place on shared arrays changes nothing its parent applies."""
    rng = np.random.default_rng(21)
    n, s = 6, 3
    pre = build_preconditioner(factored(rng.standard_normal((n + s, n))), SMode.DENSE_FACTOR)
    parent = pre.add_row(*random_row(rng, n))
    r1, r2 = rng.standard_normal(n), rng.standard_normal(s + 1)
    h_parent, h_built = parent.apply(r1, r2), pre.apply(r1, r2[:s])
    child = parent.add_row(*random_row(rng, n))
    assert child.S_packed is parent.S_packed  # written in place, not copied
    assert_array_equal(parent.apply(r1, r2), h_parent)
    assert_array_equal(pre.apply(r1, r2[:s]), h_built)


def test_two_folds_from_one_parent_each_match_a_rebuild():
    """The second fold from the same parent copies first, so both children hold."""
    rng = np.random.default_rng(22)
    n, s = 7, 2
    parent = build_preconditioner(factored(rng.standard_normal((n + s, n))),
                                  SMode.DENSE_FACTOR).add_row(*random_row(rng, n))
    first = parent.add_row(*random_row(rng, n))
    second = parent.add_row(*random_row(rng, n))
    assert second.S_packed is not first.S_packed
    r1, r2 = rng.standard_normal(n), rng.standard_normal(s + 2)
    for child in (first, second, first.add_row(*random_row(rng, n))):
        rebuilt = build_preconditioner(child.factors, SMode.DENSE_FACTOR)
        rr = np.append(r2, rng.standard_normal(child.split_rows - s - 2))
        assert rel_err(child.apply(r1, rr), rebuilt.apply(r1, rr)) <= 1e-11


def test_parent_applies_while_children_fold():
    """Threads applying a folded object see no change while newer objects
    are folded onto its shared arrays."""
    rng = np.random.default_rng(24)
    n, s = 30, 6
    parent = build_preconditioner(factored(rng.standard_normal((n + s, n))),
                                  SMode.DENSE_FACTOR).add_row(*random_row(rng, n))
    rhs = [(rng.standard_normal(n), rng.standard_normal(s + 1)) for _ in range(4)]
    want = [parent.apply(r1, r2) for r1, r2 in rhs]
    ok = [True] * len(rhs)
    stop = threading.Event()

    def worker(k):
        while not stop.is_set():
            ok[k] &= bool(np.array_equal(parent.apply(*rhs[k]), want[k]))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(rhs))]
    try:
        for th in threads:
            th.start()
        child = parent
        for _ in range(2 * precond.FOLD_ROOM):  # in place, then past the room
            child = child.add_row(*random_row(rng, n))
    finally:
        stop.set()
        for th in threads:
            th.join(timeout=30)
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert all(ok)
