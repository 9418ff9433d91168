"""Workload definitions and the seeded problem generators.

Every input the library sees is made here from the benchmark's seed: the
matrix (for the generated workloads), the right-hand sides and the rows
appended after set-up.  The same seed gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ILLC1850 = Path("data") / "illc1850.mtx"

GRID_WEIGHT_SPREAD = 1.0  # edge weights log-uniform in [e^-1, e^1]
QUASI_EXTRA_ROWS = 50  # m = n + 50
QUASI_DENSE_ROWS = 5
QUASI_PER_COL = 6  # random sparse entries per column, beside the diagonal
QUASI_ROW_SPREAD = 1.5  # row weights log-uniform in [e^-1.5, e^1.5]
# Rows appended after set-up.  They are synthetic, not taken from recorded
# update traffic: 16 distinct random columns each, so that every row reaches
# most of U and the cost of one fold does not hinge on which columns a row
# happens to hit (with 4 entries the median fold time jumped between two
# modes from seed to seed).
APPENDED_ROWS = 48
APPENDED_ROW_NNZ = 16


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a problem source and the solver settings.

    Everything not named here is a library default.  max_iters is about
    twice the plain-CGLS iteration count on the workload, so the plain
    baseline is never capped.  pre_max_iters caps the preconditioned
    solves; it is lower only where max_iters preconditioned iterations
    would take longer than one run may.
    """

    name: str
    why: str
    s_mode: str
    p: int
    max_iters: int
    pre_max_iters: int

    def params(self) -> dict:
        return {
            "s_mode": self.s_mode,
            "p": self.p,
            "max_iters": self.max_iters,
            "pre_max_iters": self.pre_max_iters,
            "appended_rows": APPENDED_ROWS,
            "appended_row_nnz": APPENDED_ROW_NNZ,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="illc1850-dense",
            why="the one real matrix (1850x712);"
                " dense S dominates set-up and each apply, so dense-kernel changes show here",
            s_mode="dense",
            p=160,
            max_iters=1000,
            pre_max_iters=1000,
        ),
        Workload(
            name="grid-cg",
            why="ill-conditioned 50x50 grid gradient operator, implicit S by inner CG:"
                " triangular solves dominate and no dense Cholesky runs",
            s_mode="cg",
            p=10,
            max_iters=900,
            pre_max_iters=900,
        ),
        Workload(
            name="quasi-square-append",
            why="m = n + 50 with 5 dense rows:"
                " ILU dominates set-up, S is tiny, and appended rows exercise add_row",
            s_mode="dense",
            p=10,
            max_iters=14000,
            # At about 5.5 ms per preconditioned iteration, 14000 would take
            # 77 s; 3500 take about 20 s, as grid-cg's 900 do.
            pre_max_iters=3500,
        ),
    )
}


@dataclass
class Problem:
    """A least-squares matrix in coordinate form, plus its provenance.

    path is set for file workloads, whose matrix the library ingests
    itself; rows/cols/vals are then filled from an independent reader.
    dense_rows lists the rows the generator made dense.
    """

    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    dense_rows: np.ndarray
    path: Path | None = None

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def to_scipy(self):
        import scipy.sparse as sp

        return sp.csc_matrix((self.vals, (self.rows, self.cols)), shape=(self.nrows, self.ncols))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _dedupe(nrows, ncols, rows, cols):
    """Distinct (row, col) positions, sorted by row then column."""
    keys = np.unique(np.asarray(rows, dtype=np.int64) * ncols + np.asarray(cols, dtype=np.int64))
    return keys // ncols, keys % ncols


def grid_problem(seed: int, side: int = 50) -> Problem:
    """Weighted gradient (incidence) operator of a side x side grid.

    Each grid edge (i, j) gives the row w * (x_i - x_j), with log-uniform
    weights w (GRID_WEIGHT_SPREAD); one anchor row pins a seeded node,
    which removes the constant null vector.  m = 2 side (side - 1) + 1.
    """
    rng = _rng(seed, 1)
    idx = np.arange(side * side).reshape(side, side)
    tail = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    head = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    ne = len(tail)
    w = np.exp(rng.uniform(-GRID_WEIGHT_SPREAD, GRID_WEIGHT_SPREAD, ne))
    anchor = int(rng.integers(side * side))
    edge = np.arange(ne)
    rows = np.concatenate([edge, edge, [ne]])
    cols = np.concatenate([tail, head, [anchor]])
    vals = np.concatenate([w, -w, [1.0]])
    order = np.lexsort((cols, rows))
    return Problem(ne + 1, side * side, rows[order], cols[order], vals[order],
                   dense_rows=np.zeros(0, dtype=np.int64))


def quasi_square_problem(seed: int, n: int = 2000) -> Problem:
    """Random sparse m = n + QUASI_EXTRA_ROWS problem whose last rows are dense.

    Sparse part: every column j has an entry in row j and QUASI_PER_COL
    more in random sparse rows.  Each of the QUASI_DENSE_ROWS dense rows
    has n/2 entries in random columns.  Values are uniform(-1, 1) times a
    log-uniform row weight (QUASI_ROW_SPREAD), which column scaling does
    not undo.
    """
    rng = _rng(seed, 2)
    m = n + QUASI_EXTRA_ROWS
    sparse_m = m - QUASI_DENSE_ROWS
    rows = [np.arange(n), rng.integers(0, sparse_m, n * QUASI_PER_COL)]
    cols = [np.arange(n), np.repeat(np.arange(n), QUASI_PER_COL)]
    for k in range(QUASI_DENSE_ROWS):
        rows.append(np.full(n // 2, sparse_m + k))
        cols.append(rng.choice(n, n // 2, replace=False))
    r, c = _dedupe(m, n, np.concatenate(rows), np.concatenate(cols))
    weight = np.exp(rng.uniform(-QUASI_ROW_SPREAD, QUASI_ROW_SPREAD, m))
    vals = rng.uniform(-1.0, 1.0, len(r)) * weight[r]
    return Problem(m, n, r, c, vals, dense_rows=np.arange(sparse_m, m, dtype=np.int64))


def file_problem(root: Path) -> Problem:
    """illc1850 read by scipy, independently of rowsplit's reader."""
    import scipy.io

    path = root / ILLC1850
    a = scipy.io.mmread(str(path)).tocoo()
    order = np.lexsort((a.col, a.row))
    return Problem(a.shape[0], a.shape[1], a.row[order].astype(np.int64),
                   a.col[order].astype(np.int64), a.data[order].astype(np.float64),
                   dense_rows=np.zeros(0, dtype=np.int64), path=path)


def make_problem(workload: Workload, seed: int, root: Path) -> Problem:
    if workload.name == "illc1850-dense":
        return file_problem(root)
    if workload.name == "grid-cg":
        return grid_problem(seed)
    if workload.name == "quasi-square-append":
        return quasi_square_problem(seed)
    raise ValueError(f"unknown workload {workload.name}")


def appended_rows(seed: int, ncols: int):
    """APPENDED_ROWS rows (sorted distinct columns, values), and their rhs entries."""
    rng = _rng(seed, 3)
    rows = []
    for _ in range(APPENDED_ROWS):
        cols = np.sort(rng.choice(ncols, APPENDED_ROW_NNZ, replace=False)).astype(np.int64)
        rows.append((cols, rng.uniform(-1.0, 1.0, APPENDED_ROW_NNZ)))
    return rows, rng.uniform(-1.0, 1.0, APPENDED_ROWS)


def rhs_stream(seed: int, nrows: int):
    """Right-hand sides uniform(-1, 1), drawn as the CLI draws its one rhs.

    The first vector equals ``default_rng(seed).uniform(-1, 1, nrows)``,
    the rhs of ``rowsplit solve --seed seed``.
    """
    rng = np.random.default_rng(seed)
    while True:
        yield rng.uniform(-1.0, 1.0, nrows)
