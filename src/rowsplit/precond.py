"""Row-splitting preconditioners built on rectangular incomplete LU factors.

A factorization P A ~ (L1; L2) U splits the rows into a square leading
block and a remainder.  The preconditioner applies the exact
least-squares correction of that split, with the small coupling system
S = I + Y Y^T (Y = L2 L1^{-1}) handled in one of two ways: assembled
dense and Cholesky-factorized, or solved approximately by a fixed number
of conjugate-gradient steps.  Y is stored, as the sparse matrix Y^T, exactly
when S is assembled dense; otherwise it is applied implicitly through
triangular solves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dsyrk

from .ilup import IlupFactors
from .sparse_core import (
    CscMatrix,
    Permutation,
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


class SMode(enum.Enum):
    """How the coupling system S w = u is solved."""

    DENSE_FACTOR = "dense"
    INNER_CG = "cg"


class UpdateFailedError(RuntimeError):
    """Row update overflowed (a non-finite factor row or pivot); refactorize instead."""


# Largest coupling block (rows of L2) assembled and factorized dense.  At
# the cap the stored S factor, packed, takes 1.6 GB; the build also holds
# the s x s Gram matrix (3.2 GB), which it factorizes in place, so it
# peaks at about 4.8 GB.
DENSE_S_CAP = 20000

# Conjugate-gradient steps of each inner-CG coupling solve; the count is
# part of the preconditioner's definition.
INNER_CG_STEPS = 2

# A fold keeps the bordered pivot d^2 = 1 + y.y - cp.cp while it holds at
# least half its digits, d^2 >= HALF_DIGITS (1 + y.y): there it matches a
# rebuild's Cholesky to rounding.  Past that it takes the equal sum of
# squares, which cannot cancel (see add_row).
HALF_DIGITS = float(np.sqrt(np.finfo(np.float64).eps))

# A fold that must copy the S factor and Y^T leaves room for
# max(FOLD_ROOM, s // 8) more rows: a bounded step, not a doubling, so
# from s = 8 * FOLD_ROOM on the copy of S is about 1.27 times its triangle.
FOLD_ROOM = 32


def build_y_explicit(factors: IlupFactors) -> np.ndarray:
    """Y^T = L1^{-T} L2^T as a dense n x (m-n) array.

    One block solve of L1^T Y^T = L2^T through the cached L1 factor, with
    all of L2^T densified as the right-hand sides.
    """
    return sparse_lower_solve_transpose(factors.L1, factors.L2.to_dense().T)


def _gram_plus_identity(yt: np.ndarray) -> np.ndarray:
    """Lower triangle of I + Y Y^T from the dense Y^T (C order, zero above).

    dsyrk fills the upper triangle of a Fortran-order array; its transpose
    is the lower triangle in C order, which dense_cholesky_factorize
    factors in place.
    """
    s = yt.shape[1]
    if s == 0:
        # BLAS dsyrk rejects a 0 x 0 output with a message on stderr
        return np.zeros((0, 0))
    g = dsyrk(1.0, yt, trans=1, lower=0).T
    g[np.diag_indices(s)] += 1.0
    return g


@dataclass(eq=False)
class _FoldArrays:
    """Dense-S arrays with room for more folds, shared by objects folded from one another.

    S holds the rows of the packed S factor, idx and val the row indices
    and values of Y^T's columns, each with room past the used prefix.
    rows is the split-row count of the newest object on these arrays:
    only that object writes its next row in place, a fold from any other
    copies first.
    """

    S: np.ndarray
    idx: np.ndarray
    val: np.ndarray
    rows: int

    @staticmethod
    def copy_of(Yt: CscMatrix, S_packed: np.ndarray, k: int) -> "_FoldArrays":
        """Copies of Y^T's entries and of the S factor, with room for
        max(FOLD_ROOM, s // 8) more rows, and as many Y^T columns of k entries."""
        s, nnz = Yt.ncols, Yt.nnz
        room = max(FOLD_ROOM, s // 8)
        return _FoldArrays(_with_room(S_packed, _tri(s), _tri(s + room)),
                           _with_room(Yt.row_idx, nnz, nnz + room * k),
                           _with_room(Yt.values, nnz, nnz + room * k), s)


def _tri(s: int) -> int:
    """Entries of a triangle of order s: where row s starts in a factor packed by rows."""
    return s * (s + 1) // 2


def _with_room(a: np.ndarray, used: int, size: int) -> np.ndarray:
    """An array of the given size holding a's first `used` entries."""
    out = np.empty(size, dtype=a.dtype)
    out[:used] = a[:used]
    return out


@dataclass
class RowSplitPreconditioner:
    """Applied form of the row-splitting preconditioner.

    Immutable once built: add_row returns a new object, and this one
    applies exactly as before.  apply() returns the same result for the
    same input and is safe to call from multiple threads; its first call
    caches compiled triangular solvers on the factors (concurrent first
    calls may each build one).  Concurrent add_row calls on one object
    are not thread-safe.

    In dense S mode Yt holds Y^T (n x s, one column per row of L2) and
    S_packed holds the lower Cholesky factor of S packed by rows (see
    dense_cholesky_factorize); both are None in inner-CG mode.  A built
    object's S_packed holds exactly s(s+1)/2 entries.  A folded object's
    has room for more rows past them, shared with the objects folded
    from it (see add_row).  psize counts every stored entry used in the
    application: the three factors, Y, and the s(s+1)/2 entries of the S
    factor, not the room.
    """

    factors: IlupFactors
    s_mode: SMode
    Yt: CscMatrix | None
    S_packed: np.ndarray | None
    psize: int
    _fold: _FoldArrays | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.factors.ncols

    @property
    def split_rows(self) -> int:
        return self.factors.L2.nrows

    # -- Y application ----------------------------------------------------

    def y_apply(self, r1):
        """Y @ r1, stored (as Y^T) or through L1/L2."""
        if self.Yt is not None:
            return matvec_transpose(self.Yt, r1)
        return matvec(self.factors.L2, sparse_lower_solve(self.factors.L1, r1))

    def y_apply_transpose(self, w):
        """Y.T @ w, stored or through L1/L2."""
        if self.Yt is not None:
            return matvec(self.Yt, w)
        return sparse_lower_solve_transpose(
            self.factors.L1, matvec_transpose(self.factors.L2, w)
        )

    # -- S solve -----------------------------------------------------------

    def _solve_s(self, u):
        if self.s_mode is SMode.DENSE_FACTOR:
            return dense_cholesky_solve(self.S_packed, u)
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
        v = sparse_lower_solve(self.factors.L1, y)
        return sparse_upper_solve(self.factors.U, v)

    # -- incremental update --------------------------------------------------

    def add_row(self, pattern, values) -> "RowSplitPreconditioner":
        """Return a new preconditioner for the matrix with one appended row.

        The row holds values at the distinct integer columns in pattern.
        The leading factor block is reused: the new row a adds one row
        l = U^{-T} a to L2 and, in dense mode, one column y = L1^{-T} l
        to Y^T and one row (cp, d) to the S factor L, where cp = L^{-1} c
        and c = Y y couples y with the stored rows.  The pivot is
        d^2 = 1 + y.y - cp.cp, as a Cholesky factorization of the
        assembled S computes it, while that keeps half its digits
        (HALF_DIGITS); past that it is the equal sum of squares
        1 + ||w||^2 + ||y - Y^T w||^2 with w = S^{-1} c, which cannot
        cancel, so no finite row is refused.  In inner-CG mode the L2
        row is the whole update.

        A dense fold costs a product with the stored Y, a sweep with the
        S factor (and, for the sum of squares, one more of each) and the
        insertion of the L2 row: O(nnz(Y) + s^2 + nnz(L2)), with no copy
        of S.  The S factor and Y^T grow in place, in arrays with room
        for max(FOLD_ROOM, s // 8) more rows that are shared by the
        objects folded from one another.  A fold from an object that is
        not the newest on its arrays, or that finds no room, copies them
        first (copy on write), so every object stays immutable; the
        first fold from a built object always copies.  Concurrent
        add_row calls on one object are not thread-safe.

        Raises ValueError for a column index that is not an integer, out
        of range or repeated and for a non-finite value,
        UpdateFailedError when the new row overflows (a non-finite L2
        row or pivot), and LinAlgError when U has a missing or zero
        diagonal.
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
        if not np.all(np.isfinite(l)):
            raise UpdateFailedError("new L2 row overflowed; refactorization needed")
        m = f.nrows
        perm_new = Permutation(
            np.append(f.row_perm.perm, m), np.append(f.row_perm.inv, m)
        )
        factors_new = replace(f, L2=_with_row(f.L2, l), row_perm=perm_new)
        if self.s_mode is not SMode.DENSE_FACTOR:
            return RowSplitPreconditioner(factors_new, self.s_mode, None, None,
                                          _psize(factors_new, None))

        Yt = self.Yt
        y = sparse_lower_solve_transpose(f.L1, l)
        c = matvec_transpose(Yt, y)
        cp = dense_lower_solve(self.S_packed, c)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            diag = 1.0 + y @ y
            d_sq = diag - cp @ cp
            if not d_sq >= HALF_DIGITS * diag:
                w = dense_lower_solve(self.S_packed, cp, trans=True)
                d_sq = 1.0 + w @ w + np.sum((y - matvec(Yt, w)) ** 2)
        if not np.isfinite(d_sq):
            raise UpdateFailedError("bordered pivot overflowed; refactorization needed")

        pat = np.flatnonzero(y)
        lo, hi = Yt.nnz, Yt.nnz + len(pat)
        fold = self._fold
        if fold is None or fold.rows != s or _tri(s + 1) > len(fold.S) or hi > len(fold.idx):
            fold = _FoldArrays.copy_of(Yt, self.S_packed, len(pat))
        at = _tri(s)  # row s of the factor: s entries cp, then the pivot
        fold.S[at:at + s] = cp
        fold.S[at + s] = np.sqrt(d_sq)
        fold.idx[lo:hi] = pat
        fold.val[lo:hi] = y[pat]
        fold.rows = s + 1
        Yt_new = CscMatrix(n, s + 1, np.append(Yt.col_ptr, hi), fold.idx[:hi], fold.val[:hi])
        return RowSplitPreconditioner(factors_new, self.s_mode, Yt_new, fold.S,
                                      _psize(factors_new, Yt_new), fold)


def _with_row(M: CscMatrix, x) -> CscMatrix:
    """M with the nonzeros of the dense vector x appended as a last row.

    The new row index is the largest, so each new entry goes last in its
    column: one O(nnz) pass places the old entries around the new ones.
    """
    pat = np.flatnonzero(x)
    added = np.zeros(M.ncols + 1, dtype=np.int64)
    added[pat + 1] = 1
    at = M.col_ptr[pat + 1] + np.arange(len(pat))  # the new entries' positions
    old = np.ones(M.nnz + len(pat), dtype=bool)
    old[at] = False
    row_idx = np.empty(len(old), dtype=np.int64)
    values = np.empty(len(old))
    row_idx[old], row_idx[at] = M.row_idx, M.nrows
    values[old], values[at] = M.values, x[pat]
    return CscMatrix(M.nrows + 1, M.ncols, M.col_ptr + np.cumsum(added), row_idx, values)


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


def _psize(factors: IlupFactors, Yt) -> int:
    size = factors.L1.nnz + factors.L2.nnz + factors.U.nnz
    if Yt is not None:
        s = factors.L2.nrows
        size += Yt.nnz + _tri(s)
    return size


def build_preconditioner(
    factors: IlupFactors,
    s_mode: SMode = SMode.DENSE_FACTOR,
) -> RowSplitPreconditioner:
    """Assemble the applied preconditioner from factors.

    Dense S mode stores Y^T and the Cholesky factor of S; inner-CG mode
    applies Y through triangular solves.  Raises ValueError when the dense
    mode is requested for a coupling block larger than DENSE_S_CAP.
    """
    Yt = S_packed = None
    if s_mode is SMode.DENSE_FACTOR:
        s = factors.L2.nrows
        if s > DENSE_S_CAP:
            raise ValueError(f"coupling block of size {s} exceeds the dense cap {DENSE_S_CAP}")
        yt = build_y_explicit(factors)
        lower = _gram_plus_identity(yt)
        y_csc = sp.csc_array(yt)  # keeps non-finite values: the Cholesky rejects them
        Yt = CscMatrix(factors.ncols, s, y_csc.indptr, y_csc.indices, y_csc.data)
        del yt  # not held through the Cholesky
        S_packed = dense_cholesky_factorize(lower, overwrite_s=True)

    return RowSplitPreconditioner(
        factors=factors,
        s_mode=s_mode,
        Yt=Yt,
        S_packed=S_packed,
        psize=_psize(factors, Yt),
    )
