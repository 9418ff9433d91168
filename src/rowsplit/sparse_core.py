"""Compressed sparse column matrices and the kernels built on them.

Everything downstream (factorization, preconditioning, the iterative
solver) works with the types defined here: CscMatrix for sparse data,
Permutation for row reorderings and ColumnScaling for the
unit-column-norm prescaling; small dense blocks are plain numpy arrays,
the Cholesky factor packed by rows.  All values are float64; all index
arrays are int64.  The work is scipy's: triplet assembly and
densification go through scipy sparse arrays, products through a scipy
CSC view, triangular solves through a SuperLU object, dense Cholesky
through LAPACK and its triangular sweeps through BLAS.  A CscMatrix
builds these compiled forms on first use and caches them, so its arrays
must not be mutated after it has been used in a kernel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.blas import dtpsv
from scipy.linalg.lapack import dtrttp
from scipy.sparse.linalg import splu


class MatrixMarketError(ValueError):
    """Raised for files that do not conform to the supported MM subset."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class CscMatrix:
    """Sparse matrix in compressed sparse column form.

    Within each column the row indices are strictly increasing and no
    explicit zeros are stored; from_coo builds one that holds both.  The
    kernels cache compiled forms of the matrix (a scipy view, SuperLU
    objects) on first use, so treat it as immutable: never write to its
    arrays once it has been used.
    """

    __slots__ = ("nrows", "ncols", "col_ptr", "row_idx", "values", "_compiled")

    def __init__(self, nrows, ncols, col_ptr, row_idx, values):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.col_ptr = np.asarray(col_ptr, dtype=np.int64)
        self.row_idx = np.asarray(row_idx, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self._compiled = {}

    def _scipy(self, transpose=False):
        """scipy view of the same arrays, or of its transpose; built on first use."""
        key = "transpose" if transpose else "csc"
        view = self._compiled.get(key)
        if view is None:
            if transpose:
                view = self._scipy().T
            else:
                view = sp.csc_array((self.values, self.row_idx, self.col_ptr),
                                    shape=(self.nrows, self.ncols))
            self._compiled[key] = view
        return view

    @property
    def nnz(self) -> int:
        return int(self.col_ptr[-1])

    def column_counts(self):
        return np.diff(self.col_ptr)

    @staticmethod
    def from_coo(nrows, ncols, rows, cols, vals):
        """Build from triplets: duplicates are summed, zeros dropped.

        Raises ValueError for a row or column index outside the shape.
        """
        M = sp.coo_array((vals, (rows, cols)), shape=(nrows, ncols), dtype=np.float64).tocsc()
        M.eliminate_zeros()
        return CscMatrix(nrows, ncols, M.indptr, M.indices, M.data)

    def to_dense(self):
        return self._scipy().toarray()

    def transpose(self) -> "CscMatrix":
        cols = np.repeat(np.arange(self.ncols, dtype=np.int64), self.column_counts())
        return CscMatrix.from_coo(self.ncols, self.nrows, cols, self.row_idx, self.values)

    def __repr__(self):
        return f"CscMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


@dataclass
class Permutation:
    """Row permutation: perm[i] is the original index placed at position i."""

    perm: np.ndarray
    inv: np.ndarray


@dataclass
class ColumnScaling:
    """Per-column norms removed by column_scale; scale[j] > 0."""

    scale: np.ndarray

    def unscale_solution(self, y):
        """Map a solution of the scaled problem back to original variables."""
        return np.asarray(y) / self.scale


# ---------------------------------------------------------------------------
# Matrix-vector kernels
# ---------------------------------------------------------------------------


def matvec(A: CscMatrix, x) -> np.ndarray:
    """Compute A @ x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.ncols,):
        raise ValueError(f"x has length {x.shape}, expected ({A.ncols},)")
    return A._scipy() @ x


def matvec_transpose(A: CscMatrix, y) -> np.ndarray:
    """Compute A.T @ y."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (A.nrows,):
        raise ValueError(f"y has length {y.shape}, expected ({A.nrows},)")
    return A._scipy(transpose=True) @ y


# ---------------------------------------------------------------------------
# Triangular solves
# ---------------------------------------------------------------------------


def sparse_lower_solve(L: CscMatrix, b) -> np.ndarray:
    """Forward substitution L x = b for unit lower-triangular CSC L.

    b is one right-hand side of shape (n,) or a block of shape (n, k);
    x has the same shape.  This holds for all four triangular solves.
    The unit diagonal is implicit: L stores only strictly sub-diagonal
    entries.
    """
    return _triangular_solve(L, b, "unit", "N")


def sparse_upper_solve(U: CscMatrix, b) -> np.ndarray:
    """Back substitution U x = b; the diagonal must be stored."""
    return _triangular_solve(U, b, "upper", "N")


def sparse_lower_solve_transpose(L: CscMatrix, b) -> np.ndarray:
    """Solve L.T x = b with the same factor object as sparse_lower_solve."""
    return _triangular_solve(L, b, "unit", "T")


def sparse_upper_solve_transpose(U: CscMatrix, b) -> np.ndarray:
    """Solve U.T x = b with the same factor object as sparse_upper_solve."""
    return _triangular_solve(U, b, "upper", "T")


def _triangular_solve(T: CscMatrix, b, kind, trans) -> np.ndarray:
    if T.nrows != T.ncols:
        raise ValueError("triangular solve needs a square matrix")
    b = np.asarray(b, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[0] != T.ncols:
        raise ValueError(f"right-hand side of shape {b.shape} for a {T.ncols}x{T.ncols} matrix")
    return _triangular_factor(T, kind).solve(b, trans=trans)


def _triangular_factor(T: CscMatrix, kind):
    """SuperLU object solving with T, built and cached on first use.

    kind "unit" factors T plus the identity; "upper" factors T itself
    after checking that every diagonal entry is stored (last in its
    column) and nonzero.  With the natural ordering and no pivoting, the
    triangular T is its own LU factor, so a solve is one forward or back
    substitution.  A failed check caches no solver, so every call raises
    it again.
    """
    lu = T._compiled.get(kind)
    if lu is None:
        M, ptr = T._scipy(), T.col_ptr
        if kind == "unit":
            M = M + sp.eye_array(T.ncols, format="csc")
        else:
            ok = ptr[:-1] < ptr[1:]
            last = ptr[1:][ok] - 1
            ok[ok] = (T.row_idx[last] == np.flatnonzero(ok)) & (T.values[last] != 0.0)
            if not ok.all():
                j = int(np.flatnonzero(~ok)[0])
                raise np.linalg.LinAlgError(f"missing or zero diagonal in column {j}")
        lu = splu(M, permc_spec="NATURAL", diag_pivot_thresh=0,
                  options={"SymmetricMode": True})
        T._compiled[kind] = lu
    return lu


# ---------------------------------------------------------------------------
# Column scaling and norm estimation
# ---------------------------------------------------------------------------


def column_scale(A: CscMatrix):
    """Scale every column of A to unit 2-norm.

    Returns (scaled matrix, ColumnScaling with the original norms).
    Raises ValueError naming the first empty column, if any, and for a
    non-finite value.
    """
    counts = A.column_counts()
    empty = np.flatnonzero(counts == 0)
    if len(empty):
        raise ValueError(f"cannot scale zero column {empty[0]}")
    if not np.all(np.isfinite(A.values)):
        raise ValueError("matrix has non-finite values")
    sq = np.zeros(A.ncols)
    sq[:] = np.add.reduceat(A.values * A.values, A.col_ptr[:-1])
    norms = np.sqrt(sq)
    scaled = CscMatrix(
        A.nrows,
        A.ncols,
        A.col_ptr.copy(),
        A.row_idx.copy(),
        A.values / np.repeat(norms, counts),
    )
    return scaled, ColumnScaling(norms)


def power_method_norm2(A: CscMatrix, iters=100, seed=0) -> float:
    """Estimate the spectral norm of A by power iteration on A.T A.

    Each step costs one product with A and one with A.T.  The returned
    estimate is non-decreasing in the iteration count (Rayleigh
    quotient of the iterates) and deterministic for a given seed.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.ncols)
    nv = np.linalg.norm(v)
    if nv == 0.0 or A.nnz == 0:
        return 0.0
    v /= nv
    est = 0.0
    for _ in range(iters):
        w = matvec(A, v)
        est = np.linalg.norm(w)
        if est == 0.0:
            return 0.0
        t = matvec_transpose(A, w)
        nt = np.linalg.norm(t)
        if nt == 0.0:
            return est
        v = t / nt
    return float(est)


# ---------------------------------------------------------------------------
# Matrix Market ingestion
# ---------------------------------------------------------------------------


@dataclass
class IngestInfo:
    """What happened while reading a Matrix Market file."""

    entries_read: int
    explicit_zeros: int
    removed_rows: int
    removed_cols: int
    transposed: bool


def read_matrix_market(path) -> CscMatrix:
    """Read a coordinate Matrix Market file; see read_matrix_market_ex."""
    A, _ = read_matrix_market_ex(path)
    return A


def read_matrix_market_ex(path):
    """Read a coordinate Matrix Market file, returning (matrix, IngestInfo).

    Supported banner: ``matrix coordinate real|integer general|symmetric``.
    Symmetric files are expanded to general storage.  Duplicate entries
    are summed and explicit zeros dropped.  Null rows and columns are
    removed, and if the result has fewer rows than columns it is
    transposed so the system is overdetermined.
    """
    with open(path, "r") as f:
        banner = f.readline()
        parts = banner.strip().split()
        if len(parts) != 5 or parts[0] != "%%MatrixMarket" or parts[1].lower() != "matrix":
            raise MatrixMarketError(f"malformed banner: {banner.strip()!r}")
        fmt, field, symmetry = (p.lower() for p in parts[2:5])
        if fmt != "coordinate":
            raise MatrixMarketError(f"unsupported format {fmt!r} (only coordinate)")
        if field not in ("real", "integer"):
            raise MatrixMarketError(f"unsupported field {field!r} (pattern/complex not supported)")
        if symmetry not in ("general", "symmetric"):
            raise MatrixMarketError(f"unsupported symmetry {symmetry!r}")

        line = f.readline()
        while line and (line.startswith("%") or not line.strip()):
            line = f.readline()
        dims = line.split()
        if len(dims) != 3:
            raise MatrixMarketError(f"malformed size line: {line.strip()!r}")
        try:
            nrows, ncols, nnz = (int(t) for t in dims)
        except ValueError as exc:
            raise MatrixMarketError(f"malformed size line: {line.strip()!r}") from exc

        try:
            with warnings.catch_warnings():  # the count check below names the error
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(f, dtype=np.float64, comments="%", ndmin=2)
        except ValueError as exc:
            raise MatrixMarketError(f"malformed entry data: {exc}") from exc
        if table.size == 0:
            table = table.reshape(0, 3)
        if table.shape[1] != 3:
            raise MatrixMarketError(f"entries have {table.shape[1]} fields, expected 3")
        if table.shape[0] != nnz:
            raise MatrixMarketError(f"expected {nnz} entries, found {table.shape[0]}")
        rows = table[:, 0].astype(np.int64)
        cols = table[:, 1].astype(np.int64)
        vals = table[:, 2]
        if np.any(rows != table[:, 0]) or np.any(cols != table[:, 1]):
            raise MatrixMarketError("non-integer row or column index")
        if not np.all(np.isfinite(vals)):
            raise MatrixMarketError("non-finite entry value")

    rows -= 1
    cols -= 1
    if nnz and (rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols):
        raise MatrixMarketError("entry index out of range")

    explicit_zeros = int(np.count_nonzero(vals == 0.0))

    if symmetry == "symmetric":
        if nrows != ncols:
            raise MatrixMarketError("symmetric file must be square")
        if np.any(rows < cols):
            raise MatrixMarketError("symmetric file stores an upper-triangular entry")
        off = rows != cols
        mirror_r, mirror_c, mirror_v = cols[off], rows[off], vals[off]
        rows = np.concatenate([rows, mirror_r])
        cols = np.concatenate([cols, mirror_c])
        vals = np.concatenate([vals, mirror_v])

    A = CscMatrix.from_coo(nrows, ncols, rows, cols, vals)

    # drop null rows/columns
    row_used = np.zeros(nrows, dtype=bool)
    row_used[A.row_idx] = True
    col_used = A.column_counts() > 0
    removed_rows = int(nrows - row_used.sum())
    removed_cols = int(ncols - col_used.sum())
    if removed_rows or removed_cols:
        row_map = np.cumsum(row_used) - 1
        col_map = np.cumsum(col_used) - 1
        cols_full = np.repeat(np.arange(A.ncols, dtype=np.int64), A.column_counts())
        A = CscMatrix.from_coo(
            int(row_used.sum()),
            int(col_used.sum()),
            row_map[A.row_idx],
            col_map[cols_full],
            A.values,
        )

    transposed = A.nrows < A.ncols
    if transposed:
        A = A.transpose()

    info = IngestInfo(
        entries_read=nnz,
        explicit_zeros=explicit_zeros,
        removed_rows=removed_rows,
        removed_cols=removed_cols,
        transposed=transposed,
    )
    return A, info


# ---------------------------------------------------------------------------
# Dense Cholesky (for the small correction system)
# ---------------------------------------------------------------------------


def dense_cholesky_factorize(S, overwrite_s=False) -> np.ndarray:
    """Lower Cholesky factor L of a symmetric positive definite matrix, packed by rows.

    LAPACK potrf reads the lower triangle of S, as the upper triangle of
    S^T, and computes R = L^T; dtrttp packs R by columns.  Row i of L
    then sits at entries i(i+1)/2 .. (i+1)(i+2)/2, so the factor of order
    s is a prefix of one of order s + 1.  With overwrite_s, a C-order S
    is factorized in place and its contents are lost.  Raises ValueError
    when S is not a square 2-d array and LinAlgError when S has a
    non-finite entry or is not positive definite.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"Cholesky needs a square matrix, got shape {S.shape}")
    if not np.all(np.isfinite(S)):
        raise np.linalg.LinAlgError("matrix has non-finite entries")
    R = scipy.linalg.cholesky(S.T, lower=False, overwrite_a=overwrite_s, check_finite=False)
    return dtrttp(R)[0]


def dense_lower_solve(factor, b, trans=False) -> np.ndarray:
    """Solve L x = b, or L^T x = b with trans, for L of order len(b) packed by rows.

    factor holds L in the layout of dense_cholesky_factorize; only its
    first len(b)(len(b)+1)/2 entries are read, so it may be a buffer
    with room for more rows.  One BLAS dtpsv on that prefix.
    """
    factor = np.asarray(factor, dtype=np.float64)
    x = np.array(b, dtype=np.float64)
    s = x.size
    if x.ndim != 1 or factor.ndim != 1 or len(factor) < s * (s + 1) // 2:
        raise ValueError("right-hand side length mismatch")
    if s == 0:  # dtpsv rejects an empty vector
        return x
    return dtpsv(s, factor, x, lower=0, trans=0 if trans else 1, overwrite_x=1)


def dense_cholesky_solve(factor, b) -> np.ndarray:
    """Solve S x = b given the packed lower Cholesky factor of S.

    A forward and a back sweep with the factor of order len(b), as in
    dense_lower_solve.
    """
    return dense_lower_solve(factor, dense_lower_solve(factor, b), trans=True)
