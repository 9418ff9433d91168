"""Row-splitting preconditioners built on rectangular incomplete LU factors.

A factorization P A ~ (L1; L2) U splits the rows into a square leading
block and a remainder.  The preconditioner applies the exact
least-squares correction of that split, with the small coupling system
S = I + Y Y^T (Y = L2 L1^{-1}) handled in one of three ways: assembled
dense and Cholesky-factorized, solved approximately by a fixed number
of conjugate-gradient steps, or replaced by the identity.  Y itself can
be materialized as a sparse matrix or applied implicitly through
triangular solves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular

from .ilup import IlupFactors
from .sparse_core import (
    CscMatrix,
    DenseMatrix,
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
    IDENTITY = "identity"


class YMode(enum.Enum):
    """Whether Y = L2 L1^{-1} is stored or applied through solves."""

    EXPLICIT = "explicit"
    IMPLICIT = "implicit"


class UpdateFailedError(RuntimeError):
    """Row update broke positive definiteness; refactorize instead."""


# Entries in one densified block of L2^T handed to the triangular solver
# (512 KB).  On illc1850, blocks of 2^20 entries raised the peak memory of
# a set-up by up to 12 MB and saved no time.
_Y_BLOCK_ENTRIES = 1 << 16


def build_y_explicit(factors: IlupFactors) -> CscMatrix:
    """Materialize Y = L2 L1^{-1} as a sparse (m-n) x n matrix.

    Solves L1^T Y^T = L2^T through the cached L1 factor, on densified
    column blocks of L2^T of at most _Y_BLOCK_ENTRIES entries, and keeps
    the nonzeros of each solved block.
    """
    s, n = factors.L2.nrows, factors.L2.ncols
    L2_rows = factors.L2._scipy().tocsr()
    step = max(1, _Y_BLOCK_ENTRIES // max(n, 1))
    rows_out, cols_out, vals_out = [], [], []
    for i0 in range(0, s, step):
        block = L2_rows[i0:i0 + step].toarray().T
        yt = sparse_lower_solve_transpose(factors.L1, block, unit_diag=True)
        cols, rows = np.nonzero(yt)
        rows_out.append(rows + i0)
        cols_out.append(cols)
        vals_out.append(yt[cols, rows])
    if not rows_out:
        return CscMatrix.from_coo(s, n, [], [], [])
    return CscMatrix.from_coo(
        s, n, np.concatenate(rows_out), np.concatenate(cols_out), np.concatenate(vals_out)
    )


def _gram_plus_identity(Y: CscMatrix) -> DenseMatrix:
    """Assemble I + Y Y^T, mirroring the lower triangle exactly."""
    yd = Y.to_dense()
    g = yd @ yd.T
    low = np.tril(g)
    s = np.asfortranarray(low + np.tril(g, -1).T)
    s[np.arange(Y.nrows), np.arange(Y.nrows)] += 1.0
    return DenseMatrix(s)


def assemble_s_dense(pre: "RowSplitPreconditioner") -> DenseMatrix:
    """Dense coupling matrix I + Y Y^T of a built preconditioner."""
    if pre.Y is None:
        raise ValueError("dense assembly needs the explicit Y")
    if pre.Y.nrows > pre.dense_cap:
        raise ValueError(
            f"coupling block of size {pre.Y.nrows} exceeds the dense cap {pre.dense_cap}"
        )
    return _gram_plus_identity(pre.Y)


@dataclass
class RowSplitPreconditioner:
    """Applied form of the row-splitting preconditioner.

    Immutable once built.  apply() returns the same result for the same
    input and is safe to call from multiple threads; its first call
    caches compiled triangular solvers on the factors (concurrent first
    calls may each build one).  psize counts every stored entry used in the
    application: the three factors, Y when explicit, and the dense
    triangle of the S factor when present.
    """

    factors: IlupFactors
    y_mode: YMode
    s_mode: SMode
    cg_iters: int
    Y: CscMatrix | None
    S_factor: DenseMatrix | None
    psize: int
    dense_cap: int

    @property
    def n(self) -> int:
        return self.factors.ncols

    @property
    def split_rows(self) -> int:
        return self.factors.L2.nrows

    # -- Y application ----------------------------------------------------

    def y_apply(self, r1):
        """Y @ r1, explicit or through L1/L2."""
        if self.y_mode is YMode.EXPLICIT:
            return matvec(self.Y, r1)
        return matvec(self.factors.L2, sparse_lower_solve(self.factors.L1, r1, unit_diag=True))

    def y_apply_transpose(self, w):
        """Y.T @ w, explicit or through L1/L2."""
        if self.y_mode is YMode.EXPLICIT:
            return matvec_transpose(self.Y, w)
        return sparse_lower_solve_transpose(
            self.factors.L1, matvec_transpose(self.factors.L2, w), unit_diag=True
        )

    def s_matvec_implicit(self, v):
        """(I + L2 L1^{-1} L1^{-T} L2^T) @ v without forming Y."""
        t = matvec_transpose(self.factors.L2, np.asarray(v, dtype=np.float64))
        t = sparse_lower_solve_transpose(self.factors.L1, t, unit_diag=True)
        t = sparse_lower_solve(self.factors.L1, t, unit_diag=True)
        return np.asarray(v, dtype=np.float64) + matvec(self.factors.L2, t)

    # -- S solve -----------------------------------------------------------

    def _solve_s(self, u):
        if self.s_mode is SMode.DENSE_FACTOR:
            return dense_cholesky_solve(self.S_factor, u)
        if self.s_mode is SMode.IDENTITY:
            return np.array(u, dtype=np.float64, copy=True)
        return _cg_fixed_steps(self.s_matvec_implicit, u, self.cg_iters)

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

        The leading factor block is reused: the new row a adds one row
        l to L2 (l = U^{-T} a, solved through the cached U factor), one
        row to the explicit Y (L1^{-T} l, through the cached L1 factor),
        and, in dense mode, a border to the S factor.  Raises
        UpdateFailedError when the bordered Cholesky pivot is not
        positive, and LinAlgError when U has a missing or zero diagonal.
        """
        if self.s_mode is SMode.INNER_CG:
            raise ValueError("row updates are supported for dense and identity S modes")
        f = self.factors
        s, n = f.L2.nrows, f.L2.ncols
        a = np.zeros(n)
        a[np.asarray(pattern, dtype=np.int64)] = np.asarray(values, dtype=np.float64)
        l = sparse_upper_solve_transpose(f.U, a)
        lpat = np.flatnonzero(l)

        old_cols = np.repeat(np.arange(n, dtype=np.int64), f.L2.column_counts())
        L2_new = CscMatrix.from_coo(
            s + 1, n,
            np.concatenate([f.L2.row_idx, np.full(len(lpat), s, dtype=np.int64)]),
            np.concatenate([old_cols, lpat]),
            np.concatenate([f.L2.values, l[lpat]]),
        )
        m = f.nrows
        perm_new = Permutation(
            np.append(f.row_perm.perm, m), np.append(f.row_perm.inv, m)
        )
        factors_new = replace(f, L2=L2_new, row_perm=perm_new)

        Y_new = None
        if self.y_mode is YMode.EXPLICIT:
            y = sparse_lower_solve_transpose(f.L1, l, unit_diag=True)
            ypat = np.flatnonzero(y)
            ycols = np.repeat(np.arange(n, dtype=np.int64), self.Y.column_counts())
            Y_new = CscMatrix.from_coo(
                s + 1, n,
                np.concatenate([self.Y.row_idx, np.full(len(ypat), s, dtype=np.int64)]),
                np.concatenate([ycols, ypat]),
                np.concatenate([self.Y.values, y[ypat]]),
            )

        S_new = None
        if self.s_mode is SMode.DENSE_FACTOR:
            c = matvec(self.Y, y)  # couplings with the existing rows
            diag = 1.0 + y @ y
            cp = solve_triangular(self.S_factor.a, c, lower=True, check_finite=False)
            d_sq = diag - cp @ cp
            if d_sq <= 0.0:
                raise UpdateFailedError("bordered pivot not positive; refactorization needed")
            g = np.zeros((s + 1, s + 1), order="F")
            g[:s, :s] = self.S_factor.a
            g[s, :s] = cp
            g[s, s] = np.sqrt(d_sq)
            S_new = DenseMatrix(g)

        return RowSplitPreconditioner(
            factors=factors_new,
            y_mode=self.y_mode,
            s_mode=self.s_mode,
            cg_iters=self.cg_iters,
            Y=Y_new,
            S_factor=S_new,
            psize=_psize(factors_new, Y_new, S_new),
            dense_cap=self.dense_cap,
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
        s = S_factor.nrows
        size += s * (s + 1) // 2
    return size


def build_preconditioner(
    factors: IlupFactors,
    s_mode: SMode = SMode.DENSE_FACTOR,
    y_mode: YMode | None = None,
    cg_iters: int = 2,
    dense_cap: int = 20000,
) -> RowSplitPreconditioner:
    """Assemble the applied preconditioner from factors.

    y_mode defaults to explicit when the dense S factorization was
    requested (Y is needed to assemble it) and implicit otherwise.
    Raises ValueError when the dense mode is requested for a coupling
    block larger than dense_cap.
    """
    if cg_iters < 1:
        raise ValueError("cg_iters must be >= 1")
    if y_mode is None:
        y_mode = YMode.EXPLICIT if s_mode is SMode.DENSE_FACTOR else YMode.IMPLICIT
    if s_mode is SMode.DENSE_FACTOR and y_mode is not YMode.EXPLICIT:
        raise ValueError("dense S factorization requires the explicit Y")

    s = factors.L2.nrows
    if s_mode is SMode.DENSE_FACTOR and s > dense_cap:
        raise ValueError(f"coupling block of size {s} exceeds the dense cap {dense_cap}")

    Y = build_y_explicit(factors) if y_mode is YMode.EXPLICIT else None
    S_factor = None
    if s_mode is SMode.DENSE_FACTOR:
        S_factor = dense_cholesky_factorize(_gram_plus_identity(Y))

    return RowSplitPreconditioner(
        factors=factors,
        y_mode=y_mode,
        s_mode=s_mode,
        cg_iters=cg_iters,
        Y=Y,
        S_factor=S_factor,
        psize=_psize(factors, Y, S_factor),
        dense_cap=dense_cap,
    )


def apply_additive_correction(z, A2: CscMatrix, solve_ma, solve_mb) -> np.ndarray:
    """Generic additive-correction application with caller-supplied solves.

    solve_ma approximates the inverse Gram of the leading row block and
    solve_mb the inverse coupling matrix.  With exact solves the result
    is the exact least-squares correction for the full matrix.
    """
    z = np.asarray(z, dtype=np.float64)
    u_a = np.asarray(solve_ma(z), dtype=np.float64)
    if A2.nrows == 0:
        return u_a
    w_b = matvec(A2, u_a)
    v_b = np.asarray(solve_mb(w_b), dtype=np.float64)
    w_a = z - matvec_transpose(A2, v_b)
    return np.asarray(solve_ma(w_a), dtype=np.float64)
