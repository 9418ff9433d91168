"""Rectangular incomplete LU factorization with threshold partial pivoting.

The factorization processes columns left to right.  Each column is
obtained by a sparse triangular solve against the part of the factor
built so far, after which entries are dropped (dual rule: magnitude
threshold tau, then at most p survivors), a pivot is chosen among the
remaining rows by a threshold rule with row-count tie-breaking, and
too-small pivots are replaced so the factorization never breaks down.
The result is a unit lower trapezoidal factor, split into its square
top block L1 and the remaining rows L2, an upper triangular U, and the
accumulated row permutation.

The triangular solve for column j eliminates the reached pivot
positions q < j in increasing order, popped from a min-heap: position q
subtracts L column q times x at the row pivoted at q, and marks and
queues the rows it reaches.  Increasing position is a topological order
of that solve, because L column q holds only rows pivoted after q, so
every update into the row at position q comes from a smaller position
and is applied before q is popped.  The order is one and the same for
every column, so the rounding of the factors does not depend on the
sparsity of a column.

Row interchanges are bookkept through the permutation; no stored data
moves.  Factor entries are indexed by original row id internally and
mapped to pivot positions at the end.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .sparse_core import CscMatrix, Permutation


@dataclass
class IlupParams:
    """Dropping and pivoting controls.

    p bounds the kept entries per column in both triangular factors,
    tau is the magnitude drop tolerance, mu in (0, 1] the pivot
    threshold (1 = plain partial pivoting), and small the minimum
    admissible pivot magnitude.
    """

    p: int = 10
    tau: float = 0.0
    mu: float = 0.1
    small: float = 1e-10

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.tau < 0.0:
            raise ValueError("tau must be >= 0")
        if not 0.0 < self.mu <= 1.0:
            raise ValueError("mu must be in (0, 1]")
        if self.small <= 0.0:
            raise ValueError("small must be > 0")


@dataclass
class IlupFactors:
    """Output of ilup_factorize.

    row_perm maps pivot positions to original rows.  L1 is n x n unit
    lower triangular with an implicit diagonal, L2 holds the remaining
    m - n rows, U is n x n upper triangular with every diagonal stored.
    nmod counts pivots that had to be modified.
    """

    row_perm: Permutation
    L1: CscMatrix
    L2: CscMatrix
    U: CscMatrix
    nmod: int

    @property
    def nrows(self) -> int:
        return self.L1.nrows + self.L2.nrows

    @property
    def ncols(self) -> int:
        return self.U.ncols

    def validate(self, params: IlupParams | None = None):
        """Structural invariants; raises ValueError when violated."""
        n = self.U.ncols
        self.L1.validate()
        self.L2.validate()
        self.U.validate()
        self.row_perm.validate()
        if self.L1.nrows != n or self.L1.ncols != n or self.U.nrows != n:
            raise ValueError("inconsistent factor dimensions")
        if self.L2.ncols != n:
            raise ValueError("L2 column count mismatch")
        if self.L1.nnz and np.any(
            self.L1.row_idx <= np.repeat(np.arange(n), self.L1.column_counts())
        ):
            raise ValueError("L1 stores an entry on or above the diagonal")
        for j in range(n):
            rows, vals = self.U.column(j)
            if len(rows) == 0 or rows[-1] != j:
                raise ValueError(f"U missing diagonal in column {j}")
            if params is not None and abs(vals[-1]) < params.small:
                raise ValueError(f"U diagonal below small in column {j}")
        if params is not None:
            p, tau, mu = params.p, params.tau, params.mu
            lcounts = self.L1.column_counts() + self.L2.column_counts()
            if np.any(lcounts > p):
                raise ValueError("more than p entries kept in an L column")
            if np.any(self.U.column_counts() - 1 > p):
                raise ValueError("more than p entries kept in a U column")
            if tau > 0.0:
                for M in (self.L1, self.L2):
                    if M.nnz and np.abs(M.values).min() < tau:
                        raise ValueError("entry below tau kept in L")
                for j in range(n):
                    vals = self.U.column(j)[1]
                    if len(vals) > 1 and np.abs(vals[:-1]).min() < tau:
                        raise ValueError("entry below tau kept in U")
            bound = (1.0 / mu) * (1.0 + 1e-12)
            for M in (self.L1, self.L2):
                if M.nnz and np.abs(M.values).max() > bound:
                    raise ValueError("L entry exceeds the threshold-pivoting bound")
        return self


def choose_pivot(rows, values, row_counts, mu) -> int:
    """Pick the pivot row for one column.

    Candidates are the rows whose magnitude is within factor mu of the
    column maximum; among them the one with the smallest row count
    wins, ties going to the smallest row index.  Returns the chosen
    element of ``rows``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    row_counts = np.asarray(row_counts)
    if len(rows) == 0:
        raise ValueError("empty pivot column")
    mags = np.abs(values)
    cand = np.flatnonzero(mags >= mu * mags.max())
    # lexsort: primary key row_counts, secondary key row index
    best = cand[np.lexsort((rows[cand], row_counts[cand]))[0]]
    return int(rows[best])


def modify_pivot(j, n, col_inf_norm, small) -> float:
    """Replacement value for a vanishing pivot in column j (0-based).

    The replacement grows with the column index: a fraction
    10**(-2 (1 - (j+1)/n)) of the column's max-norm, floored at small.
    Always positive.
    """
    beta = 10.0 ** (-2.0 * (1.0 - (j + 1) / n))
    return max(beta * col_inf_norm, small)


def _dual_drop(ids, vals, p, tau):
    """Apply the dual dropping rule; returns entries sorted by id."""
    keep = (np.abs(vals) >= tau) & (vals != 0.0)
    ids, vals = ids[keep], vals[keep]
    if len(ids) > p:
        sel = np.lexsort((ids, -np.abs(vals)))[:p]
        ids, vals = ids[sel], vals[sel]
    order = np.argsort(ids)
    return ids[order], vals[order]


def ilup_factorize(A: CscMatrix, params: IlupParams | None = None) -> IlupFactors:
    """Incomplete LU of a scaled m x n matrix (m >= n) with pivoting.

    Never breaks down: a column whose active part vanishes, or whose
    selected pivot is smaller than params.small, gets a modified pivot
    instead (counted in nmod).  Deterministic: ties in pivoting and
    dropping are broken by index.  Raises ValueError for an empty or
    wide matrix and for a non-finite value.
    """
    if params is None:
        params = IlupParams()
    m, n = A.nrows, A.ncols
    if n < 1 or m < 1:
        raise ValueError("empty matrix")
    if m < n:
        raise ValueError(f"need nrows >= ncols, got {m} x {n}")
    if not np.all(np.isfinite(A.values)):
        raise ValueError("matrix has non-finite values")

    ptr, avals_all = A.col_ptr, A.values

    # current permutation: row_at[pos] = original row, pos_of = inverse
    row_at = np.arange(m, dtype=np.int64)
    pos_of = np.arange(m, dtype=np.int64)
    rc = np.bincount(A.row_idx, minlength=m)  # entries per row in columns >= j

    # per-column inf norms of A, used by pivot modification
    col_inf = np.zeros(n)
    nonempty = ptr[:-1] < ptr[1:]
    if A.nnz:
        col_inf[nonempty] = np.maximum.reduceat(np.abs(avals_all), ptr[:-1][nonempty])

    l_rows: list = [None] * n  # original row ids, post-drop
    l_vals: list = [None] * n
    u_rows: list = [None] * n  # pivot positions, diagonal last
    u_vals: list = [None] * n

    x = np.zeros(m)
    mark = np.zeros(m, dtype=bool)
    nmod = 0

    for j in range(n):
        arows, avals = A.column(j)
        x[arows] = avals
        mark[arows] = True
        pattern = [arows]
        # eliminate the reached pivot positions below j in increasing order
        heap = [q for q in pos_of[arows].tolist() if q < j]
        heapq.heapify(heap)
        u_pos_list, u_val_list = [], []
        while heap:
            q = heapq.heappop(heap)
            xu = x[row_at[q]]
            if xu == 0.0:
                continue
            u_pos_list.append(q)
            u_val_list.append(xu)
            lr = l_rows[q]
            x[lr] -= l_vals[q] * xu
            fresh = lr[~mark[lr]]
            if len(fresh):
                mark[fresh] = True
                pattern.append(fresh)
                for k in pos_of[fresh].tolist():
                    if k < j:
                        heapq.heappush(heap, k)
        u_sel_pos = np.asarray(u_pos_list, dtype=np.int64)
        u_sel_val = np.asarray(u_val_list)

        # dual drop in the U column (diagonal is added afterwards)
        u_keep_pos, u_keep_val = _dual_drop(u_sel_pos, u_sel_val, params.p, params.tau)

        # active part of the column: reached rows not yet pivotal
        pat = np.concatenate(pattern) if len(pattern) > 1 else pattern[0]
        cand = pat[pos_of[pat] >= j]
        cvals = x[cand]
        nz = cvals != 0.0
        cand, cvals = cand[nz], cvals[nz]

        if len(cand) == 0:
            pivot_orig = row_at[j]
            pivot_val = modify_pivot(j, n, col_inf[j], params.small)
            nmod += 1
        else:
            k_pos = choose_pivot(pos_of[cand], cvals, rc[cand], params.mu)
            pivot_orig = row_at[k_pos]
            pivot_val = x[pivot_orig]
            if abs(pivot_val) < params.small:
                pivot_val = modify_pivot(j, n, col_inf[j], params.small)
                nmod += 1
            keep = cand != pivot_orig
            cand, cvals = cand[keep], cvals[keep]

        # interchange: bring the pivot row to position j
        q = pos_of[pivot_orig]
        if q != j:
            other = row_at[j]
            row_at[j], row_at[q] = pivot_orig, other
            pos_of[pivot_orig], pos_of[other] = j, q

        # scale, then drop in the L column (tie-break on current position)
        if len(cand):
            kept_pos, kept_lv = _dual_drop(
                pos_of[cand], cvals / pivot_val, params.p, params.tau
            )
            l_rows[j] = row_at[kept_pos]
            l_vals[j] = kept_lv
        else:
            l_rows[j] = np.empty(0, dtype=np.int64)
            l_vals[j] = np.empty(0)

        u_rows[j] = np.append(u_keep_pos, j)
        u_vals[j] = np.append(u_keep_val, pivot_val)

        rc[arows] -= 1

        x[pat] = 0.0
        mark[pat] = False

    # assemble the factors in final pivot coordinates
    u_col = np.repeat(np.arange(n, dtype=np.int64), [len(r) for r in u_rows])
    U = CscMatrix.from_coo(n, n, np.concatenate(u_rows), u_col, np.concatenate(u_vals))

    l_col = np.repeat(np.arange(n, dtype=np.int64), [len(r) for r in l_rows])
    l_orig = np.concatenate(l_rows) if len(l_col) else np.empty(0, dtype=np.int64)
    l_pos = pos_of[l_orig] if len(l_col) else np.empty(0, dtype=np.int64)
    l_val = np.concatenate(l_vals) if len(l_col) else np.empty(0)
    top = l_pos < n
    L1 = CscMatrix.from_coo(n, n, l_pos[top], l_col[top], l_val[top])
    L2 = CscMatrix.from_coo(m - n, n, l_pos[~top] - n, l_col[~top], l_val[~top])

    return IlupFactors(
        row_perm=Permutation(row_at, pos_of),
        L1=L1,
        L2=L2,
        U=U,
        nmod=nmod,
    )
