"""The verifier can fail, and the generators are seeded and well posed."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from rsbench.harness import to_csc
from rsbench.verify import Verifier, verified
from rsbench.workloads import (APPENDED_ROW_NNZ, APPENDED_ROWS, appended_rows, grid_problem,
                               quasi_square_problem, rhs_stream)

GENERATORS = {
    "grid": grid_problem,
    "quasi-square": quasi_square_problem,
}
REDUCED = {
    "grid": lambda seed: grid_problem(seed, side=8),
    "quasi-square": lambda seed: quasi_square_problem(seed, n=200),
}


def _lsqr(verifier, b):
    """scipy's LSQR run well past the verifier's tolerance."""
    return spla.lsqr(verifier.A, b, atol=1e-12, btol=0.0, conlim=0.0, iter_lim=10_000)[0]


@pytest.fixture(scope="module")
def small():
    problem = REDUCED["grid"](3)
    return problem, Verifier(problem.to_scipy())


def test_verifier_rejects_zero_and_a_perturbed_answer(small):
    problem, verifier = small
    b = next(rhs_stream(3, problem.nrows))
    assert not verified(verifier.relgrad(np.zeros(problem.ncols), b))
    x = _lsqr(verifier, b)
    x[0] += 1e-3 * np.linalg.norm(x)
    assert not verified(verifier.relgrad(x, b))


def test_verifier_accepts_lsqr_and_lstsq(small):
    problem, verifier = small
    b = next(rhs_stream(3, problem.nrows))
    x = _lsqr(verifier, b)
    assert verified(verifier.relgrad(x, b))
    x_ls = np.linalg.lstsq(verifier.A.toarray(), b, rcond=None)[0]
    assert verified(verifier.relgrad(x_ls, b))


def test_verifier_rejects_non_finite_and_mis_sized_answers(small):
    problem, verifier = small
    b = next(rhs_stream(3, problem.nrows))
    assert verifier.relgrad(np.full(problem.ncols, np.nan), b) == np.inf
    assert verifier.relgrad(np.zeros(problem.ncols + 1), b) == np.inf


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_gives_identical_csc_arrays(name):
    a, b, c = (to_csc(GENERATORS[name](seed)) for seed in (7, 7, 8))
    for attr in ("col_ptr", "row_idx", "values"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr))
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_no_empty_column(name):
    A = to_csc(GENERATORS[name](5))
    assert np.all(A.column_counts() > 0)


@pytest.mark.parametrize("name", sorted(REDUCED))
@pytest.mark.parametrize("seed", [0, 1])
def test_reduced_instance_has_full_column_rank(name, seed):
    problem = REDUCED[name](seed)
    assert np.linalg.matrix_rank(problem.to_scipy().toarray()) == problem.ncols


def test_quasi_square_shape_and_dense_rows():
    problem = quasi_square_problem(2)
    A = problem.to_scipy().tocsr()
    assert problem.nrows == problem.ncols + 50
    assert list(problem.dense_rows) == list(range(problem.nrows - 5, problem.nrows))
    counts = np.diff(A.indptr)
    assert np.all(counts[problem.dense_rows] == problem.ncols // 2)
    assert counts[: problem.nrows - 5].max() < 20


def test_appended_rows_and_rhs_are_seeded():
    rows_a, tail_a = appended_rows(4, 100)
    rows_b, tail_b = appended_rows(4, 100)
    assert np.array_equal(tail_a, tail_b) and len(rows_a) == len(tail_a) == APPENDED_ROWS
    for (ca, va), (cb, vb) in zip(rows_a, rows_b):
        assert np.array_equal(ca, cb) and np.array_equal(va, vb)
        assert len(ca) == APPENDED_ROW_NNZ and np.all(np.diff(ca) > 0)
    first = next(rhs_stream(11, 30))
    assert np.array_equal(first, np.random.default_rng(11).uniform(-1.0, 1.0, 30))
