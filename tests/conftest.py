import os

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.linalg.lapack import dtpttr

from rowsplit import CscMatrix

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def data_path(name):
    return os.path.join(DATA_DIR, name)


def require_matrix(name):
    path = data_path(name)
    if not os.path.exists(path):
        pytest.skip(f"{name} not present; run scripts/fetch_matrices.py to download it")
    return path


def laauchli(eps):
    """Stacked identity-perturbation test matrix: [1 1; eps 0; 0 eps]."""
    return np.array([[1.0, 1.0], [eps, 0.0], [0.0, eps]])


def random_sparse(rng, m, n, density=0.5, strengthen=0.0):
    """Random sparse test matrix with no zero columns.

    strengthen > 0 adds that multiple of the identity pattern on the top
    block, which keeps the leading square submatrix comfortably
    invertible.
    """
    a = rng.standard_normal((m, n)) * (rng.random((m, n)) < density)
    if strengthen:
        a[np.arange(n), np.arange(n)] += strengthen
    for j in range(n):
        if not a[:, j].any():
            a[rng.integers(0, m), j] = rng.standard_normal() + 0.5
    return a


def well_conditioned_split(rng, n, s):
    """Stacked (n + s) x n matrix whose leading block is near-identity."""
    top = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    bottom = 0.5 * rng.standard_normal((s, n)) / np.sqrt(n)
    return np.vstack([top, bottom])


def csc(a):
    """CscMatrix holding the nonzeros of a dense array."""
    a = np.asarray(a, dtype=float)
    rows, cols = np.nonzero(a)
    return CscMatrix.from_coo(a.shape[0], a.shape[1], rows, cols, a[rows, cols])


def check_csc(A):
    """Raise ValueError unless A holds the CscMatrix invariants.

    A well-formed CSC with strictly increasing rows in each column and
    no stored zero.
    """
    M = sp.csc_array((A.values, A.row_idx, A.col_ptr), shape=(A.nrows, A.ncols))
    M.check_format(full_check=True)
    if not M.has_canonical_format or np.any(A.values == 0.0):
        raise ValueError("rows not strictly increasing in a column, or a stored zero")
    return A


def unpack_lower(packed, s):
    """The lower triangle of order s from a factor packed by rows (zero above)."""
    return np.tril(dtpttr(s, packed[:s * (s + 1) // 2])[0].T)


def s_factor(pre):
    """A dense-mode preconditioner's lower Cholesky factor of S as a k x k array.

    k = Yt.ncols: all split rows beside S, or past a G factor the rows
    folded since the build, whose factor is that of S_F = I + F F^T.
    """
    return unpack_lower(pre.S_packed, pre.Yt.ncols)


def g_factor(pre):
    """A dense-mode preconditioner's lower Cholesky factor of G = I + Y^T Y as an n x n array."""
    return unpack_lower(pre.G_packed, pre.n)


def coupling_gram(pre):
    """I + Y^T Y (n x n) as a dense-mode object holds it.

    Yt holds Y^T beside S, or F^T = L_G^{-1} Y_b^T for the rows folded
    onto a G factor, so the Gram is M (I + Yt Yt^T) M^T with M = I or L_G.
    """
    yt = pre.Yt.to_dense()
    gram = np.eye(pre.n) + yt @ yt.T
    if pre.G_packed is None:
        return gram
    L = g_factor(pre)
    return L @ gram @ L.T


def dense_factors(f):
    """(L1 with its unit diagonal, L2, U) of IlupFactors as dense float64 arrays."""
    return f.L1.to_dense() + np.eye(f.ncols), f.L2.to_dense(), f.U.to_dense()


def s_formula_float64(L1, L2, U, r1, r2):
    """The S-form operator U^{-1} L1^{-1} (r1 + Y^T S^{-1} (r2 - Y r1)) in float64.

    Y = L2 L1^{-1} and S = I + Y Y^T are formed densely and S is solved
    by scipy's Cholesky: the float64 evaluation that the dense-mode apply
    is held to.  L1 carries its unit diagonal; r1 and r2 may hold several
    right-hand sides as columns.
    """
    Y = solve_triangular(L1, L2.T, lower=True, unit_diagonal=True, trans="T").T
    y = np.asarray(r1, dtype=np.float64)
    if len(r2):
        S = np.eye(len(r2)) + Y @ Y.T
        y = y + Y.T @ cho_solve(cho_factor(S, lower=True), r2 - Y @ y)
    return solve_triangular(U, solve_triangular(L1, y, lower=True, unit_diagonal=True))


def rel_err(got, want):
    want = np.asarray(want, dtype=float)
    scale = np.linalg.norm(want)
    return np.linalg.norm(np.asarray(got) - want) / (scale if scale else 1.0)


def validate_factors(f, params=None):
    """Structural invariants of IlupFactors; raises ValueError when violated.

    With params, also the dropping and pivoting contract: at most p kept
    entries per L and U column, none below tau, every L entry within the
    1/mu threshold-pivoting bound and every U diagonal at least small.
    """
    n = f.U.ncols
    for M in (f.L1, f.L2, f.U):
        check_csc(M)
    perm, inv = f.row_perm.perm, f.row_perm.inv
    if len(perm) != len(inv) or not np.array_equal(perm[inv], np.arange(len(perm))):
        raise ValueError("row_perm is not a permutation with its inverse")
    if f.L1.nrows != n or f.L1.ncols != n or f.U.nrows != n:
        raise ValueError("inconsistent factor dimensions")
    if f.L2.ncols != n:
        raise ValueError("L2 column count mismatch")
    if f.L1.nnz and np.any(f.L1.row_idx <= np.repeat(np.arange(n), f.L1.column_counts())):
        raise ValueError("L1 stores an entry on or above the diagonal")
    ptr = f.U.col_ptr
    for j in range(n):
        rows, vals = f.U.row_idx[ptr[j]:ptr[j + 1]], f.U.values[ptr[j]:ptr[j + 1]]
        if len(rows) == 0 or rows[-1] != j:
            raise ValueError(f"U missing diagonal in column {j}")
        if params is not None and abs(vals[-1]) < params.small:
            raise ValueError(f"U diagonal below small in column {j}")
    if params is not None:
        p, tau, mu = params.p, params.tau, params.mu
        lcounts = f.L1.column_counts() + f.L2.column_counts()
        if np.any(lcounts > p):
            raise ValueError("more than p entries kept in an L column")
        if np.any(f.U.column_counts() - 1 > p):
            raise ValueError("more than p entries kept in a U column")
        if tau > 0.0:
            for M in (f.L1, f.L2):
                if M.nnz and np.abs(M.values).min() < tau:
                    raise ValueError("entry below tau kept in L")
            for j in range(n):
                vals = f.U.values[ptr[j]:ptr[j + 1]]
                if len(vals) > 1 and np.abs(vals[:-1]).min() < tau:
                    raise ValueError("entry below tau kept in U")
        bound = (1.0 / mu) * (1.0 + 1e-12)
        for M in (f.L1, f.L2):
            if M.nnz and np.abs(M.values).max() > bound:
                raise ValueError("L entry exceeds the threshold-pivoting bound")
    return f
