"""Property tests of the compiled kernels against dense scipy references."""

import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rowsplit import (
    CscMatrix,
    IlupParams,
    SMode,
    build_preconditioner,
    column_scale,
    ilup_factorize,
    read_matrix_market,
)
from rowsplit.precond import INNER_CG_STEPS
from rowsplit.sparse_core import (
    dense_cholesky_factorize,
    sparse_lower_solve,
    sparse_lower_solve_transpose,
    sparse_upper_solve,
    sparse_upper_solve_transpose,
)

from oracle import dense_rowsplit_apply

from conftest import (
    csc,
    dense_factors,
    g_factor,
    rel_err,
    require_matrix,
    s_formula_float64,
    well_conditioned_split,
)

# (solve, lower, transposed); the lower solves take an implicit unit diagonal
SOLVES = {
    "lower": (sparse_lower_solve, True, False),
    "lower_t": (sparse_lower_solve_transpose, True, True),
    "upper": (sparse_upper_solve, False, False),
    "upper_t": (sparse_upper_solve_transpose, False, True),
}


def random_triangular(rng, n, density, lower):
    """Well-conditioned sparse triangular factor in the storage each solve expects."""
    off = rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < density) / max(n, 1)
    off = np.tril(off, -1) if lower else np.triu(off, 1)
    if lower:
        return off, off + np.eye(n)
    diag = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
    full = off + np.diag(diag)
    return full, full


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(0, 60),
    density=st.floats(0.0, 1.0),
    kind=st.sampled_from(sorted(SOLVES)),
    seed=st.integers(0, 2**32 - 1),
)
def test_triangular_solves_match_dense(n, density, kind, seed):
    solve, lower, transposed = SOLVES[kind]
    rng = np.random.default_rng(seed)
    stored, full = random_triangular(rng, n, density, lower)
    b = rng.standard_normal(n)
    got = solve(csc(stored), b)
    want = scipy.linalg.solve_triangular(full, b, lower=lower, trans="T" if transposed else "N")
    assert got.shape == (n,)
    assert rel_err(got, want) <= 1e-12


MISSING = CscMatrix(3, 3, [0, 1, 1, 2], [0, 2], [1.0, 1.0])  # column 1 is empty
ZERO = CscMatrix(2, 2, [0, 1, 2], [0, 1], [1.0, 0.0])  # stored zero on the diagonal


@pytest.mark.parametrize("kind", ["upper", "upper_t"])
@pytest.mark.parametrize("bad", [MISSING, ZERO], ids=["missing", "zero"])
def test_bad_diagonal_raises_on_every_call(kind, bad):
    solve = SOLVES[kind][0]
    for _ in range(2):
        with pytest.raises(np.linalg.LinAlgError):
            solve(bad, np.ones(bad.ncols))


def test_second_solve_reuses_the_factor_object():
    rng = np.random.default_rng(0)
    stored, _ = random_triangular(rng, 20, 0.3, lower=True)
    L = csc(stored)
    b = rng.standard_normal(20)
    first = sparse_lower_solve(L, b)
    lu = L._compiled["unit"]
    sparse_lower_solve_transpose(L, b)
    assert np.array_equal(sparse_lower_solve(L, b), first)
    assert L._compiled["unit"] is lu


@pytest.mark.parametrize("bad", [
    [[1.0, 2.0], [2.0, 1.0]],
    [[1.0, 0.0], [np.nan, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
], ids=["indefinite", "nan", "inf"])
def test_cholesky_rejects_indefinite_and_non_finite(bad):
    with pytest.raises(np.linalg.LinAlgError):
        dense_cholesky_factorize(np.array(bad))


LD = np.longdouble


def _forward(L, b, unit):
    """Column-oriented forward substitution in extended precision."""
    x = np.array(b, dtype=LD)
    for j in range(len(x)):
        if not unit:
            x[j] /= L[j, j]
        x[j + 1:] -= L[j + 1:, j] * x[j]
    return x


def _backward(U, b, unit):
    """Column-oriented back substitution in extended precision."""
    x = np.array(b, dtype=LD)
    for j in range(len(x) - 1, -1, -1):
        if not unit:
            x[j] /= U[j, j]
        x[:j] -= U[:j, j] * x[j]
    return x


def dense_apply(pre, r1, r2):
    """The dense G route's formula evaluated densely in extended precision.

    h = U^{-1} L1^{-1} L_G^{-T} L_G^{-1} (r1 + L1^{-T} L2^T r2), for a G
    factor that holds every split row.  The factors and the Cholesky
    factor L_G of G = I + Y^T Y are the preconditioner's own.  On
    illc1850 the U and L1 solves together amplify a relative change of
    their input by up to about 1e7 and the coupling solve by 1.6e6, so
    any float64 evaluation is a few 1e-12 from the exact value from
    rounding alone; in extended precision the reference error is far
    below that.
    """
    f = pre.factors
    L1 = f.L1.to_dense().astype(LD)  # unit diagonal implicit
    G = g_factor(pre).astype(LD)
    yt_r2 = _backward(L1.T, f.L2.to_dense().astype(LD).T @ np.asarray(r2, dtype=LD), unit=True)
    y = _backward(G.T, _forward(G, r1 + yt_r2, unit=False), unit=False)
    v = _forward(L1, y, unit=True)
    return _backward(f.U.to_dense().astype(LD), v, unit=False)


def dense_apply_float64(pre, r1, r2):
    """The same formula on the same factors with float64 scipy.linalg calls."""
    L1, L2, U = dense_factors(pre.factors)

    def l1_solve(b, trans="N"):
        return scipy.linalg.solve_triangular(L1, b, lower=True, unit_diagonal=True, trans=trans)

    y = scipy.linalg.cho_solve((g_factor(pre), True), r1 + l1_solve(L2.T @ r2, trans="T"))
    return scipy.linalg.solve_triangular(U, l1_solve(y), lower=False)


def inner_cg_apply(pre, r1, r2):
    """The inner-CG preconditioner's formula evaluated densely in extended precision.

    The same INNER_CG_STEPS conjugate-gradient steps on S = I + Y Y^T,
    with Y = L2 L1^{-1} applied through the preconditioner's own factors,
    and the same early exits as the compiled apply.
    """
    f = pre.factors
    L1 = f.L1.to_dense().astype(LD)  # unit diagonal implicit
    L2 = f.L2.to_dense().astype(LD)

    def y_apply(v):
        return L2 @ _forward(L1, v, unit=True)

    def y_apply_transpose(w):
        return _backward(L1.T, L2.T @ w, unit=True)

    r1 = np.asarray(r1, dtype=LD)
    r = np.asarray(r2, dtype=LD) - y_apply(r1)
    w = np.zeros(len(r), dtype=LD)
    rho = r @ r
    p = r.copy()
    for _ in range(INNER_CG_STEPS if rho != 0.0 else 0):
        q = p + y_apply(y_apply_transpose(p))
        pq = p @ q
        if pq <= 0.0:
            break
        alpha = rho / pq
        w += alpha * p
        r -= alpha * q
        rho_new = r @ r
        if rho_new == 0.0:
            break
        p = r + (rho_new / rho) * p
        rho = rho_new
    v = _forward(L1, r1 + y_apply_transpose(w), unit=True)
    return _backward(f.U.to_dense().astype(LD), v, unit=False)


@pytest.fixture(scope="module")
def illc1850_factors():
    scaled, _ = column_scale(read_matrix_market(require_matrix("illc1850.mtx")))
    return ilup_factorize(scaled, IlupParams(p=10))


@pytest.mark.skipif(np.finfo(LD).eps >= np.finfo(np.float64).eps,
                    reason="the reference needs an extended-precision long double")
@pytest.mark.parametrize("s_mode", [SMode.DENSE_FACTOR, SMode.INNER_CG])
def test_apply_on_illc1850_matches_dense_reference(illc1850_factors, s_mode):
    """The compiled apply is close to an extended-precision evaluation.

    Both modes are measured against their own formula on the same
    factors in extended precision, over several right-hand sides, since
    one rounding sample alone says little at a conditioning of about
    1e13.  Dense mode (s = 1,138 > n = 712, so G is factored): the worst
    compiled error may be at most twice the worst error of a float64
    dense evaluation of the G formula.  The same apply is also held to
    the operator, U^{-1} (L1^T L1 + L2^T L2)^{-1} (L1^T r1 + L2^T r2) in
    extended precision: its worst error may be at most twice that of a
    float64 dense evaluation of the S form.  Inner CG: the worst relative
    error may be at most 1e-12.
    """
    pre = build_preconditioner(illc1850_factors, s_mode=s_mode)
    rngs = (np.random.default_rng(seed) for seed in [*range(10), 1850])
    rhs = [(rng.standard_normal(pre.n), rng.standard_normal(pre.split_rows)) for rng in rngs]
    worst_apply = worst_dense = 0.0
    for r1, r2 in rhs:
        if s_mode is SMode.DENSE_FACTOR:
            want = dense_apply(pre, r1, r2)
            worst_dense = max(worst_dense, rel_err(dense_apply_float64(pre, r1, r2), want))
        else:
            want = inner_cg_apply(pre, r1, r2)
        worst_apply = max(worst_apply, rel_err(pre.apply(r1, r2), want))
    if s_mode is SMode.INNER_CG:
        assert worst_apply <= 1e-12, worst_apply
        return
    assert pre.G_packed is not None
    assert worst_apply <= 2.0 * worst_dense, (worst_apply, worst_dense)

    L1, L2, U = dense_factors(pre.factors)
    r1s, r2s = (np.column_stack(r) for r in zip(*rhs))
    want = dense_rowsplit_apply(*(v.astype(LD) for v in (L1, L2, U, r1s, r2s)))
    s_form = s_formula_float64(L1, L2, U, r1s, r2s)
    worst_op = worst_s_form = 0.0
    for j, (r1, r2) in enumerate(rhs):
        worst_op = max(worst_op, rel_err(pre.apply(r1, r2), want[:, j]))
        worst_s_form = max(worst_s_form, rel_err(s_form[:, j], want[:, j]))
    assert worst_op <= 2.0 * worst_s_form, (worst_op, worst_s_form)


def test_concurrent_first_applies_match_serial():
    """Threads racing to build the cached solvers all get the serial answer."""
    a = well_conditioned_split(np.random.default_rng(7), 120, 15)
    rng = np.random.default_rng(8)
    rhs = [(rng.standard_normal(120), rng.standard_normal(15)) for _ in range(8)]

    def fresh():
        factors = ilup_factorize(csc(a), IlupParams(p=10))
        return build_preconditioner(factors, s_mode=SMode.DENSE_FACTOR)

    serial = fresh()
    want = [serial.apply(r1, r2) for r1, r2 in rhs]
    shared = fresh()
    got = [None] * len(rhs)

    def worker(k):
        for _ in range(20):
            got[k] = shared.apply(*rhs[k])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(rhs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(0, 40),
    k=st.integers(1, 5),
    density=st.floats(0.0, 1.0),
    kind=st.sampled_from(sorted(SOLVES)),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_solve_equals_column_solves(n, k, density, kind, seed):
    """A k-column right-hand side gives the k single-column solves."""
    solve, lower, _ = SOLVES[kind]
    rng = np.random.default_rng(seed)
    stored, _ = random_triangular(rng, n, density, lower)
    T = csc(stored)
    B = rng.standard_normal((n, k)) * (rng.random((n, k)) < 0.5)
    X = solve(T, B)
    assert X.shape == (n, k)
    for c in range(k):
        assert np.array_equal(X[:, c], solve(T, B[:, c]))
