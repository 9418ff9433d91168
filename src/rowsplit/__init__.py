"""Sparse least-squares solving with row-splitting incomplete-LU preconditioners."""

from .ilup import IlupFactors, IlupParams, choose_pivot, ilup_factorize, modify_pivot
from .precond import (
    RowSplitPreconditioner,
    SMode,
    build_preconditioner,
    build_y_explicit,
)
from .solver import (
    CglsConfig,
    SolveReport,
    error_estimate,
    pcgls,
    solve_quasi_square_direct,
    stopping_ratio,
)
from .sparse_core import (
    ColumnScaling,
    CscMatrix,
    IngestInfo,
    MatrixMarketError,
    Permutation,
    column_scale,
    dense_cholesky_factorize,
    dense_cholesky_solve,
    matvec,
    matvec_transpose,
    power_method_norm2,
    read_matrix_market,
    read_matrix_market_ex,
    sparse_lower_solve,
    sparse_lower_solve_transpose,
    sparse_upper_solve,
    sparse_upper_solve_transpose,
)

__all__ = [
    "CglsConfig",
    "ColumnScaling",
    "CscMatrix",
    "IlupFactors",
    "IlupParams",
    "IngestInfo",
    "MatrixMarketError",
    "Permutation",
    "RowSplitPreconditioner",
    "SMode",
    "SolveReport",
    "build_preconditioner",
    "build_y_explicit",
    "choose_pivot",
    "column_scale",
    "dense_cholesky_factorize",
    "dense_cholesky_solve",
    "error_estimate",
    "ilup_factorize",
    "matvec",
    "matvec_transpose",
    "modify_pivot",
    "pcgls",
    "power_method_norm2",
    "read_matrix_market",
    "read_matrix_market_ex",
    "solve_quasi_square_direct",
    "sparse_lower_solve",
    "sparse_lower_solve_transpose",
    "sparse_upper_solve",
    "sparse_upper_solve_transpose",
    "stopping_ratio",
]

__version__ = "0.1.0"
