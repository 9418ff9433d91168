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
    sparse_solve_sparse_rhs,
    sparse_upper_solve,
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


def build_y_explicit(factors: IlupFactors) -> CscMatrix:
    """Materialize Y = L2 L1^{-1} as a sparse (m-n) x n matrix.

    Row i of Y solves L1^T y = (row i of L2); each solve is sparse in,
    sparse out, with the pattern found symbolically first.
    """
    L1t = factors.L1.transpose()
    L2t = factors.L2.transpose()
    s, n = factors.L2.nrows, factors.L2.ncols
    rows_out, cols_out, vals_out = [], [], []
    for i in range(s):
        pat, bval = L2t.column(i)
        if len(pat) == 0:
            continue
        ypat, yval = sparse_solve_sparse_rhs(L1t, pat, bval, unit_diag=True)
        nz = yval != 0.0
        ypat, yval = ypat[nz], yval[nz]
        rows_out.append(np.full(len(ypat), i, dtype=np.int64))
        cols_out.append(ypat)
        vals_out.append(yval)
    if rows_out:
        return CscMatrix.from_coo(
            s, n,
            np.concatenate(rows_out),
            np.concatenate(cols_out),
            np.concatenate(vals_out),
        )
    return CscMatrix.from_coo(s, n, [], [], [])


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

        The leading factor block is reused: the new row adds one row l
        to L2 (U^T l = new row), one row to the explicit Y, and, in
        dense mode, a border to the S factor.  Raises UpdateFailedError
        when the bordered Cholesky pivot is not positive.
        """
        if self.s_mode is SMode.INNER_CG:
            raise ValueError("row updates are supported for dense and identity S modes")
        pattern = np.asarray(pattern, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)

        Ut = self.factors.U.transpose()
        lpat, lval = sparse_solve_sparse_rhs(Ut, pattern, values, unit_diag=False)
        nz = lval != 0.0
        lpat, lval = lpat[nz], lval[nz]

        f = self.factors
        s, n = f.L2.nrows, f.L2.ncols
        old_cols = np.repeat(np.arange(n, dtype=np.int64), f.L2.column_counts())
        L2_new = CscMatrix.from_coo(
            s + 1, n,
            np.concatenate([f.L2.row_idx, np.full(len(lpat), s, dtype=np.int64)]),
            np.concatenate([old_cols, lpat]),
            np.concatenate([f.L2.values, lval]),
        )
        m = f.nrows
        perm_new = Permutation(
            np.append(f.row_perm.perm, m), np.append(f.row_perm.inv, m)
        )
        factors_new = replace(f, L2=L2_new, row_perm=perm_new)

        Y_new = None
        if self.y_mode is YMode.EXPLICIT:
            L1t = f.L1.transpose()
            ypat, yval = sparse_solve_sparse_rhs(L1t, lpat, lval, unit_diag=True)
            nz = yval != 0.0
            ypat, yval = ypat[nz], yval[nz]
            ycols = np.repeat(np.arange(n, dtype=np.int64), self.Y.column_counts())
            Y_new = CscMatrix.from_coo(
                s + 1, n,
                np.concatenate([self.Y.row_idx, np.full(len(ypat), s, dtype=np.int64)]),
                np.concatenate([ycols, ypat]),
                np.concatenate([self.Y.values, yval]),
            )

        S_new = None
        if self.s_mode is SMode.DENSE_FACTOR:
            y_dense = np.zeros(n)
            y_dense[ypat] = yval
            c = matvec(self.Y, y_dense)  # couplings with the existing rows
            diag = 1.0 + y_dense @ y_dense
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

    def remove_rows(self, row_positions) -> "RowSplitPreconditioner":
        """Downdate for removed rows.  Reserved; not implemented.

        The analogous low-rank identity applies, but the downdated
        coupling matrix can lose definiteness, so a robust version
        needs refactorization logic this library does not carry.
        """
        raise NotImplementedError("row removal requires refactorization")


def _cg_fixed_steps(op, u, iters):
    """A fixed number of conjugate-gradient steps from a zero guess.

    No convergence test: the step count is part of the preconditioner
    definition, so the operator stays the same on every application.
    Stops early only if the residual vanishes identically.
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
