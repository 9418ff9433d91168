"""Row-splitting preconditioners built on rectangular incomplete LU factors.

A factorization P A ~ (L1; L2) U splits the rows into a square leading
block and a remainder.  The preconditioner applies the exact
least-squares correction of that split, with the small coupling system
S = I + Y Y^T (Y = L2 L1^{-1}) handled in one of two ways: assembled
dense and Cholesky-factorized, or solved approximately by a fixed number
of conjugate-gradient steps.  Y is stored as a sparse matrix exactly
when S is assembled dense; otherwise it is applied implicitly through
triangular solves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dsyrk

from .ilup import IlupFactors
from .sparse_core import (
    CscMatrix,
    Permutation,
    dense_cholesky_factorize,
    dense_cholesky_solve,
    matvec,
    matvec_transpose,
    sparse_lower_solve,
    sparse_lower_solve_transpose,
    sparse_upper_solve,
    sparse_upper_solve_transpose,
)


class SMode(enum.Enum):
    """How the coupling system S w = u is solved."""

    DENSE_FACTOR = "dense"
    INNER_CG = "cg"


class UpdateFailedError(RuntimeError):
    """Row update broke positive definiteness; refactorize instead."""


# Largest coupling block (rows of L2) assembled and factorized dense; the
# s x s S factor then takes 3.2 GB.
DENSE_S_CAP = 20000

# Conjugate-gradient steps of each inner-CG coupling solve; the count is
# part of the preconditioner's definition.
INNER_CG_STEPS = 2


def build_y_explicit(factors: IlupFactors) -> np.ndarray:
    """Y^T = L1^{-T} L2^T as a dense n x (m-n) array.

    One block solve of L1^T Y^T = L2^T through the cached L1 factor, with
    all of L2^T densified as the right-hand sides.
    """
    return sparse_lower_solve_transpose(factors.L1, factors.L2.to_dense().T, unit_diag=True)


def _gram_plus_identity(yt: np.ndarray) -> np.ndarray:
    """Lower triangle of I + Y Y^T from the dense Y^T (Fortran order, zero above)."""
    s = yt.shape[1]
    if s == 0:
        # BLAS dsyrk rejects a 0 x 0 output with a message on stderr
        return np.zeros((0, 0), order="F")
    g = dsyrk(1.0, yt, trans=1, lower=1)
    g[np.diag_indices(s)] += 1.0
    return g


@dataclass
class RowSplitPreconditioner:
    """Applied form of the row-splitting preconditioner.

    Immutable once built.  apply() returns the same result for the same
    input and is safe to call from multiple threads; its first call
    caches compiled triangular solvers on the factors (concurrent first
    calls may each build one).  Y and the lower Cholesky factor of S
    (Fortran order) are stored in dense S mode and None otherwise.
    psize counts every stored entry used in the application: the three
    factors, Y, and the dense triangle of the S factor.
    """

    factors: IlupFactors
    s_mode: SMode
    Y: CscMatrix | None
    S_factor: np.ndarray | None
    psize: int

    @property
    def n(self) -> int:
        return self.factors.ncols

    @property
    def split_rows(self) -> int:
        return self.factors.L2.nrows

    # -- Y application ----------------------------------------------------

    def y_apply(self, r1):
        """Y @ r1, stored or through L1/L2."""
        if self.Y is not None:
            return matvec(self.Y, r1)
        return matvec(self.factors.L2, sparse_lower_solve(self.factors.L1, r1, unit_diag=True))

    def y_apply_transpose(self, w):
        """Y.T @ w, stored or through L1/L2."""
        if self.Y is not None:
            return matvec_transpose(self.Y, w)
        return sparse_lower_solve_transpose(
            self.factors.L1, matvec_transpose(self.factors.L2, w), unit_diag=True
        )

    # -- S solve -----------------------------------------------------------

    def _solve_s(self, u):
        if self.s_mode is SMode.DENSE_FACTOR:
            return dense_cholesky_solve(self.S_factor, u)
        return _cg_fixed_steps(lambda v: v + self.y_apply(self.y_apply_transpose(v)), u,
                               INNER_CG_STEPS)

    # -- application -------------------------------------------------------

    def apply(self, r1, r2) -> np.ndarray:
        """Preconditioned direction from the split residual (r1, r2).

        Computes h with L1 U h = r1 + Y^T w, where S w = r2 - Y r1 is
        solved per s_mode.  The caller passes residual components in
        pivot order; the transposed-matrix product is folded in, so the
        result approximates the exact least-squares correction.
        """
        r1 = np.asarray(r1, dtype=np.float64)
        r2 = np.asarray(r2, dtype=np.float64)
        if r1.shape != (self.n,) or r2.shape != (self.split_rows,):
            raise ValueError("residual component lengths do not match the split")
        if self.split_rows:
            u = r2 - self.y_apply(r1)
            w = self._solve_s(u)
            y = r1 + self.y_apply_transpose(w)
        else:
            y = r1
        v = sparse_lower_solve(self.factors.L1, y, unit_diag=True)
        return sparse_upper_solve(self.factors.U, v)

    # -- incremental update --------------------------------------------------

    def add_row(self, pattern, values) -> "RowSplitPreconditioner":
        """Return a new preconditioner for the matrix with one appended row.

        The row holds values at the distinct integer columns in pattern.
        The leading factor block is reused: the new row a adds one row l
        to L2 (l = U^{-T} a, solved through the cached U factor) and, in
        dense mode, one row to Y (L1^{-T} l, through the cached L1
        factor) and a border to the S factor; in inner-CG mode the L2 row
        is the whole update.  Raises ValueError for a
        column index that is not an integer, out of range or repeated
        and for a non-finite value, UpdateFailedError when the bordered
        Cholesky pivot is not positive, and LinAlgError when U has a
        missing or zero diagonal.
        """
        f = self.factors
        s, n = f.L2.nrows, f.L2.ncols
        pattern = np.asarray(pattern)
        values = np.asarray(values, dtype=np.float64)
        if pattern.ndim != 1 or pattern.shape != values.shape:
            raise ValueError("pattern and values must be 1-d and of the same length")
        if len(pattern) and pattern.dtype.kind not in "iu":
            raise ValueError("column indices must be integers")
        pattern = pattern.astype(np.int64)
        if len(pattern) and (pattern.min() < 0 or pattern.max() >= n):
            raise ValueError(f"column index out of range for a row of {n} columns")
        if len(np.unique(pattern)) != len(pattern):
            raise ValueError("repeated column index in the row")
        if not np.all(np.isfinite(values)):
            raise ValueError("row has non-finite values")
        a = np.zeros(n)
        a[pattern] = values
        l = sparse_upper_solve_transpose(f.U, a)
        m = f.nrows
        perm_new = Permutation(
            np.append(f.row_perm.perm, m), np.append(f.row_perm.inv, m)
        )
        factors_new = replace(f, L2=_with_row(f.L2, l), row_perm=perm_new)

        Y_new = S_new = None
        if self.s_mode is SMode.DENSE_FACTOR:
            y = sparse_lower_solve_transpose(f.L1, l, unit_diag=True)
            Y_new = _with_row(self.Y, y)
            c = matvec(self.Y, y)  # couplings with the existing rows
            diag = 1.0 + y @ y
            cp = solve_triangular(self.S_factor, c, lower=True, check_finite=False)
            d_sq = diag - cp @ cp
            if d_sq <= 0.0:
                raise UpdateFailedError("bordered pivot not positive; refactorization needed")
            S_new = np.zeros((s + 1, s + 1), order="F")
            S_new[:s, :s] = self.S_factor
            S_new[s, :s] = cp
            S_new[s, s] = np.sqrt(d_sq)

        return RowSplitPreconditioner(
            factors=factors_new,
            s_mode=self.s_mode,
            Y=Y_new,
            S_factor=S_new,
            psize=_psize(factors_new, Y_new, S_new),
        )


def _with_row(M: CscMatrix, x) -> CscMatrix:
    """M with the nonzeros of the dense vector x appended as a last row.

    The new row index is the largest, so each new entry goes last in its
    column: an O(nnz) insertion at the old column ends.
    """
    pat = np.flatnonzero(x)
    added = np.zeros(M.ncols + 1, dtype=np.int64)
    added[pat + 1] = 1
    ends = M.col_ptr[pat + 1]
    return CscMatrix(
        M.nrows + 1, M.ncols,
        M.col_ptr + np.cumsum(added),
        np.insert(M.row_idx, ends, M.nrows),
        np.insert(M.values, ends, x[pat]),
    )


def _cg_fixed_steps(op, u, iters):
    """A fixed number of conjugate-gradient steps from a zero guess.

    No convergence test: the step count is part of the preconditioner
    definition.  The result is still a nonlinear function of u, because
    the CG coefficients depend on u, so this is not a fixed linear
    operator.  Stops early only if the residual vanishes identically.
    """
    w = np.zeros(len(u))
    r = np.array(u, dtype=np.float64, copy=True)
    rho = r @ r
    if rho == 0.0:
        return w
    p = r.copy()
    for _ in range(iters):
        q = op(p)
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
    return w


def _psize(factors: IlupFactors, Y, S_factor) -> int:
    size = factors.L1.nnz + factors.L2.nnz + factors.U.nnz
    if Y is not None:
        size += Y.nnz
    if S_factor is not None:
        s = S_factor.shape[0]
        size += s * (s + 1) // 2
    return size


def build_preconditioner(
    factors: IlupFactors,
    s_mode: SMode = SMode.DENSE_FACTOR,
) -> RowSplitPreconditioner:
    """Assemble the applied preconditioner from factors.

    Dense S mode stores Y and the Cholesky factor of S; inner-CG mode
    applies Y through triangular solves.  Raises ValueError when the dense
    mode is requested for a coupling block larger than DENSE_S_CAP.
    """
    Y = S_factor = None
    if s_mode is SMode.DENSE_FACTOR:
        s = factors.L2.nrows
        if s > DENSE_S_CAP:
            raise ValueError(f"coupling block of size {s} exceeds the dense cap {DENSE_S_CAP}")
        yt = build_y_explicit(factors)
        lower = _gram_plus_identity(yt)
        y_csc = sp.csc_array(yt.T)  # keeps non-finite values: the Cholesky rejects them
        Y = CscMatrix(s, factors.ncols, y_csc.indptr, y_csc.indices, y_csc.data)
        del yt  # not held through the Cholesky, which copies the s x s lower triangle
        S_factor = dense_cholesky_factorize(lower)

    return RowSplitPreconditioner(
        factors=factors,
        s_mode=s_mode,
        Y=Y,
        S_factor=S_factor,
        psize=_psize(factors, Y, S_factor),
    )
