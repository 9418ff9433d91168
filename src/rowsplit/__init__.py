"""Sparse least-squares solving with row-splitting incomplete-LU preconditioners.

The package namespace holds the pipeline: ingest, column scaling, the
ILU, the preconditioner and the solvers.  Kernels such as the
triangular solves and the pivot rules live in their modules.
"""

from .ilup import IlupFactors, IlupParams, ilup_factorize
from .precond import RowSplitPreconditioner, SMode, build_preconditioner
from .solver import CglsConfig, SolveReport, pcgls, solve_quasi_square_direct
from .sparse_core import (
    ColumnScaling,
    CscMatrix,
    IngestInfo,
    MatrixMarketError,
    column_scale,
    power_method_norm2,
    read_matrix_market,
    read_matrix_market_ex,
)

__all__ = [
    "CglsConfig",
    "ColumnScaling",
    "CscMatrix",
    "IlupFactors",
    "IlupParams",
    "IngestInfo",
    "MatrixMarketError",
    "RowSplitPreconditioner",
    "SMode",
    "SolveReport",
    "build_preconditioner",
    "column_scale",
    "ilup_factorize",
    "pcgls",
    "power_method_norm2",
    "read_matrix_market",
    "read_matrix_market_ex",
    "solve_quasi_square_direct",
]

__version__ = "0.1.0"
