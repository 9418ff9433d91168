"""Dense reference implementations used to cross-check the sparse code.

These are deliberately literal: normal equations solved by dense
Cholesky, textbook partial-pivoting LU, the threshold-pivoting ILU's
rules on dense arrays, and the low-rank correction formula evaluated
exactly as written.  They are test fixtures, not
solvers, and refuse problems with more than a few hundred columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MAX_COLS = 200


@dataclass
class DenseLsSolution:
    x_true: np.ndarray
    residual: np.ndarray


def dense_lls_solve(A, b) -> DenseLsSolution:
    """Minimum-residual solution of min ||b - A x|| via the normal equations.

    One step of iterative refinement is applied to sharpen the solution.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.shape[1] > _MAX_COLS:
        raise ValueError("oracle limited to small problems")
    gram = A.T @ A
    L = np.linalg.cholesky(gram)  # raises LinAlgError if rank deficient

    def solve(rhs):
        return np.linalg.solve(L.T, np.linalg.solve(L, rhs))

    x = solve(A.T @ b)
    x += solve(A.T @ (b - A @ x))
    return DenseLsSolution(x_true=x, residual=b - A @ x)


def dense_lu_pp(A):
    """Partial-pivoting LU of a dense m x n matrix, m >= n.

    Returns (perm, L, U) with A[perm] = L @ U, L m x n unit lower
    trapezoidal and U n x n upper triangular.
    """
    A = np.asarray(A, dtype=np.float64)
    m, n = A.shape
    if m < n:
        raise ValueError("need m >= n")
    work = A.copy()
    perm = np.arange(m)
    for j in range(n):
        k = j + int(np.argmax(np.abs(work[j:, j])))
        if work[k, j] == 0.0:
            raise np.linalg.LinAlgError(f"zero column {j} during elimination")
        if k != j:
            work[[j, k]] = work[[k, j]]
            perm[[j, k]] = perm[[k, j]]
        work[j + 1:, j] /= work[j, j]
        work[j + 1:, j + 1:] -= np.outer(work[j + 1:, j], work[j, j + 1:])
    L = np.tril(work[:, :n], -1)
    L[np.arange(n), np.arange(n)] = 1.0
    U = np.triu(work[:n, :])
    return perm, L, U


def dense_woodbury_correction(A1, A2, r1, r2) -> np.ndarray:
    """Exact least-squares correction from the residual, evaluated densely.

    Uses the low-rank update identity on the two row blocks; the two
    equivalent closed forms are both evaluated and must agree, which
    guards the algebra itself.
    """
    A1 = np.asarray(A1, dtype=np.float64)
    A2 = np.asarray(A2, dtype=np.float64)
    r1 = np.asarray(r1, dtype=np.float64)
    r2 = np.asarray(r2, dtype=np.float64)
    if A1.shape[1] > _MAX_COLS:
        raise ValueError("oracle limited to small problems")
    if A2.shape[0] and A2.shape[1] != A1.shape[1]:
        raise ValueError("row blocks must share the column dimension")

    C1 = A1.T @ A1
    C1_inv = np.linalg.inv(C1)  # raises LinAlgError if singular
    z = A1.T @ r1 + (A2.T @ r2 if A2.shape[0] else 0.0)
    if A2.shape[0] == 0:
        return C1_inv @ z

    S = np.eye(A2.shape[0]) + A2 @ C1_inv @ A2.T
    S_inv = np.linalg.inv(S)
    delta = C1_inv @ (z - A2.T @ S_inv @ (A2 @ (C1_inv @ z)))
    # second form: correction written against the first block's data
    delta_b = C1_inv @ (A1.T @ r1 - A2.T @ (S_inv @ (A2 @ (C1_inv @ (A1.T @ r1)) - r2)))
    agreement = np.linalg.norm(delta - delta_b)
    scale = max(1.0, np.linalg.norm(delta))
    if agreement > 1e-11 * scale:
        raise AssertionError(f"correction forms disagree: {agreement / scale:.3e}")
    return delta


def dense_rowsplit_apply(L1, L2, U, r1, r2) -> np.ndarray:
    """U^{-1} (L1^T L1 + L2^T L2)^{-1} (L1^T r1 + L2^T r2), evaluated as written.

    The row-splitting preconditioner's operator on the factors P A ~
    (L1; L2) U: L1 unit lower triangular with its unit diagonal stored,
    L2 the remaining rows and U upper triangular, all dense.  r1 and r2
    may hold several right-hand sides as columns.  The arithmetic runs in
    the arguments' own dtype, so long double arguments give an
    extended-precision reference.  numpy.linalg takes no long double, so
    the normal matrix is summed from the outer products of the rows of
    (L1; L2), each over its nonzeros, and solved by a Cholesky
    factorization and substitutions written out here.  Cost O(n^3); there
    is no size cap.
    """
    L1, L2, U, r1, r2 = (np.asarray(v) for v in (L1, L2, U, r1, r2))
    dtype = np.result_type(L1, L2, U, r1, r2, np.float64)
    L1, L2, U, r1, r2 = (v.astype(dtype) for v in (L1, L2, U, r1, r2))
    n = U.shape[1]
    if L1.shape != (n, n) or U.shape != (n, n) or L2.shape[1:] != (n,):
        raise ValueError("factor shapes do not match")
    if r1.shape[:1] != (n,) or r2.shape[:1] != (L2.shape[0],) or r1.shape[1:] != r2.shape[1:]:
        raise ValueError("residual component lengths do not match the factors")

    C = np.zeros((n, n), dtype=dtype)  # K = L1^T L1 + L2^T L2, then its Cholesky factor
    for row in np.vstack([L1, L2]):
        nz = np.flatnonzero(row)
        C[np.ix_(nz, nz)] += np.outer(row[nz], row[nz])
    for j in range(n):
        if not C[j, j] > 0.0:
            raise np.linalg.LinAlgError("normal matrix is not positive definite")
        C[j:, j] /= np.sqrt(C[j, j])
        C[j + 1:, j + 1:] -= np.outer(C[j + 1:, j], C[j + 1:, j])
    x = L1.T @ r1 + L2.T @ r2
    for j in range(n):  # x <- C^{-1} x
        x[j] /= C[j, j]
        x[j + 1:] -= np.multiply.outer(C[j + 1:, j], x[j])
    for j in range(n - 1, -1, -1):  # x <- C^{-T} x
        x[j] = (x[j] - C[j + 1:, j] @ x[j + 1:]) / C[j, j]
    for j in range(n - 1, -1, -1):  # x <- U^{-1} x
        x[j] /= U[j, j]
        x[:j] -= np.multiply.outer(U[:j, j], x[j])
    return x


def dense_ilup(a, params):
    """Threshold-pivoting incomplete LU with dual dropping, on dense arrays.

    The rules of the sparse factorization, written out densely.  Column
    j is reduced by the columns q = 0..j-1 in order: the entry xu at the
    row pivoted at q is skipped when it is zero, otherwise it is the U
    entry (q, j) and x -= L[:, q] * xu.  The U entries then go through
    the dual drop (magnitude at least tau, then the p largest, ties to
    the lower position).  Among the rows not yet pivoted, those within
    factor mu of the largest magnitude are eligible; the fewest entries
    in columns >= j of the matrix wins, then the lowest position.  A
    vanishing column or a pivot below params.small is replaced by
    max(10**(-2 (1 - (j+1)/n)) * max|a[:, j]|, small).  The other rows,
    divided by the pivot, are dropped by the same rule keyed on their
    positions after the interchange.

    ``params`` supplies p, tau, mu and small.  Returns (perm, L1, L2, U,
    nmod) with perm[pos] the original row at pivot position pos, L1 the
    strictly lower n x n block, L2 the remaining m - n rows and U upper
    triangular, all dense.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if m < n:
        raise ValueError("need m >= n")
    if n > _MAX_COLS:
        raise ValueError("oracle limited to small problems")
    p, tau, mu, small = params.p, params.tau, params.mu, params.small

    def drop(pos, vals):
        kept = [i for i in range(len(pos)) if vals[i] != 0.0 and abs(vals[i]) >= tau]
        kept = sorted(kept, key=lambda i: (-abs(vals[i]), pos[i]))[:p]
        return sorted(kept, key=lambda i: pos[i])

    perm = np.arange(m)
    L = np.zeros((m, n))  # indexed by original row
    U = np.zeros((n, n))
    nmod = 0
    for j in range(n):
        x = a[:, j].copy()
        u_pos, u_val = [], []
        for q in range(j):
            xu = x[perm[q]]
            if xu == 0.0:
                continue
            u_pos.append(q)
            u_val.append(xu)
            x -= L[:, q] * xu
        for i in drop(u_pos, u_val):
            U[u_pos[i], j] = u_val[i]

        active = [q for q in range(j, m) if x[perm[q]] != 0.0]
        pivot_q = j
        replace = not active
        if active:
            mags = np.abs(x[perm[active]])
            eligible = [q for q, g in zip(active, mags) if g >= mu * mags.max()]
            counts = np.count_nonzero(a[:, j:], axis=1)
            pivot_q = min(eligible, key=lambda q: (counts[perm[q]], q))
            replace = abs(x[perm[pivot_q]]) < small
        pivot = x[perm[pivot_q]]
        if replace:
            beta = 10.0 ** (-2.0 * (1.0 - (j + 1) / n))
            pivot = max(beta * np.abs(a[:, j]).max(), small)
            nmod += 1
        U[j, j] = pivot
        perm[[j, pivot_q]] = perm[[pivot_q, j]]

        below = [q for q in range(j + 1, m) if x[perm[q]] != 0.0]
        vals = [x[perm[q]] / pivot for q in below]
        for i in drop(below, vals):
            L[perm[below[i]], j] = vals[i]

    return perm, L[perm[:n]], L[perm[n:]], U, nmod
