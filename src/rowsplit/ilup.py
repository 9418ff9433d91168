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
mapped to pivot positions at the end, where numpy assembles L1, L2 and
U.  The work arrays (the column x, its marks, the permutation and the
row counts) and the stored L columns are Python lists of Python
scalars: a column holds few entries, so an update costs a few
interpreter steps per reached entry, not a numpy call per small array.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

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
        # each check is written so that NaN fails it
        if not self.p >= 1:
            raise ValueError("p must be >= 1")
        if not self.tau >= 0.0:
            raise ValueError("tau must be >= 0")
        if not 0.0 < self.mu <= 1.0:
            raise ValueError("mu must be in (0, 1]")
        if not (np.isfinite(self.small) and self.small > 0.0):
            raise ValueError("small must be finite and > 0")


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


def modify_pivot(j, n, col_inf_norm, small) -> float:
    """Replacement value for a vanishing pivot in column j (0-based).

    The replacement grows with the column index: a fraction
    10**(-2 (1 - (j+1)/n)) of the column's max-norm, floored at small.
    Always positive.
    """
    beta = 10.0 ** (-2.0 * (1.0 - (j + 1) / n))
    return max(beta * col_inf_norm, small)


def _dual_drop(pos, vals, p, tau):
    """Apply the dual dropping rule to a column held as two lists.

    Keeps the nonzero values of magnitude at least tau, then the p
    largest, ties going to the lower position.  Returns the kept
    positions and values, not necessarily in position order.
    """
    if tau == 0.0 and len(pos) <= p and 0.0 not in vals:
        return pos, vals
    pos, vals = np.array(pos, dtype=np.int64), np.array(vals)
    keep = (np.abs(vals) >= tau) & (vals != 0.0)
    pos, vals = pos[keep], vals[keep]
    if len(pos) > p:
        sel = np.lexsort((pos, -np.abs(vals)))[:p]
        pos, vals = pos[sel], vals[sel]
    return pos.tolist(), vals.tolist()


def ilup_factorize(A: CscMatrix, params: IlupParams | None = None) -> IlupFactors:
    """Incomplete LU of a scaled m x n matrix (m >= n) with pivoting.

    Never breaks down: a column whose active part vanishes, or whose
    selected pivot is smaller than params.small, gets a modified pivot
    instead (counted in nmod).  Deterministic: ties in pivoting and
    dropping are broken by index.  Raises ValueError for an empty or
    wide matrix, for a non-finite value, and for an elimination that
    overflows to a non-finite factor entry.
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
    p, tau, mu, small = params.p, params.tau, params.mu, params.small

    # per-column inf norms of A, used by pivot modification
    col_inf = np.zeros(n)
    nonempty = A.col_ptr[:-1] < A.col_ptr[1:]
    if A.nnz:
        col_inf[nonempty] = np.maximum.reduceat(np.abs(A.values), A.col_ptr[:-1][nonempty])
    col_inf = col_inf.tolist()
    rc = np.bincount(A.row_idx, minlength=m).tolist()  # entries per row in columns >= j
    ptr = A.col_ptr.tolist()

    # current permutation: row_at[pos] = original row, pos_of = inverse
    row_at = list(range(m))
    pos_of = list(range(m))
    l_cols: list = [None] * n  # (original row, value) pairs, post-drop
    u_rows, u_vals, u_counts = [], [], []  # U by columns, diagonal last in each
    x = [0.0] * m
    mark = [False] * m
    nmod = 0

    for j in range(n):
        arows = A.row_idx[ptr[j]:ptr[j + 1]].tolist()
        pattern = arows.copy()
        heap = []
        for r, v in zip(arows, A.values[ptr[j]:ptr[j + 1]].tolist()):
            x[r] = v
            mark[r] = True
            if pos_of[r] < j:
                heap.append(pos_of[r])
        heapify(heap)
        # eliminate the reached pivot positions below j in increasing order
        u_pos, u_val = [], []
        while heap:
            q = heappop(heap)
            xu = x[row_at[q]]
            if xu == 0.0:
                continue
            u_pos.append(q)
            u_val.append(xu)
            for r, lv in l_cols[q]:
                x[r] -= lv * xu
                if not mark[r]:
                    mark[r] = True
                    pattern.append(r)
                    if pos_of[r] < j:
                        heappush(heap, pos_of[r])

        # active part of the column: reached rows not yet pivotal; the
        # work lists are cleared in the same pass
        cand = []
        for r in pattern:
            if x[r] != 0.0 and pos_of[r] >= j:
                cand.append((r, x[r]))
            x[r] = 0.0
            mark[r] = False

        # pivot: among the rows within factor mu of the largest magnitude,
        # the fewest entries in columns >= j wins, then the lowest position.
        # Nothing is eligible only when lim is NaN; the NaN pivot then fails
        # the finiteness check on the factors.
        piv, pivot_val = row_at[j], 0.0
        if cand:
            lim = mu * max([abs(v) for _, v in cand])
            _, _, piv, pivot_val = min(
                ((rc[r], pos_of[r], r, v) for r, v in cand if abs(v) >= lim),
                default=(0, j, piv, lim),
            )
        if abs(pivot_val) < small:
            pivot_val = modify_pivot(j, n, col_inf[j], small)
            nmod += 1

        # interchange: bring the pivot row to position j
        q, other = pos_of[piv], row_at[j]
        row_at[j], row_at[q] = piv, other
        pos_of[piv], pos_of[other] = j, q

        # scale, then drop in the L column (tie-break on current position)
        kept, vals = _dual_drop([pos_of[r] for r, _ in cand if r != piv],
                                [v / pivot_val for r, v in cand if r != piv], p, tau)
        l_cols[j] = [(row_at[k], v) for k, v in zip(kept, vals)]
        kept, vals = _dual_drop(u_pos, u_val, p, tau)
        u_rows += kept + [j]
        u_vals += vals + [pivot_val]
        u_counts.append(len(kept) + 1)

        for r in arows:
            rc[r] -= 1

    # assemble the factors in final pivot coordinates
    u_vals = np.array(u_vals)
    l_counts = [len(col) for col in l_cols]
    l_row = np.fromiter((r for col in l_cols for r, _ in col), np.int64, sum(l_counts))
    l_val = np.fromiter((v for col in l_cols for _, v in col), np.float64, sum(l_counts))
    if not (np.isfinite(u_vals).all() and np.isfinite(l_val).all()):
        raise ValueError("elimination overflowed: a factor entry is not finite")
    l_pos = np.array(pos_of, dtype=np.int64)[l_row]
    l_col = np.repeat(np.arange(n), l_counts)
    top = l_pos < n
    return IlupFactors(
        row_perm=Permutation(np.array(row_at, dtype=np.int64), np.array(pos_of, dtype=np.int64)),
        L1=CscMatrix.from_coo(n, n, l_pos[top], l_col[top], l_val[top]),
        L2=CscMatrix.from_coo(m - n, n, l_pos[~top] - n, l_col[~top], l_val[~top]),
        U=CscMatrix.from_coo(n, n, np.array(u_rows, dtype=np.int64),
                             np.repeat(np.arange(n), u_counts), u_vals),
        nmod=nmod,
    )
