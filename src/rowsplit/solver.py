"""Preconditioned CGLS with an error-estimate stopping rule.

The solver never forms the normal matrix: each iteration costs one
product with A, one with A.T, and one preconditioner application fed
directly with the split residual.  Termination uses a delayed
lower-bound estimate of the squared energy-norm error: the sum of the
last d step decrements alpha_k * rho_k estimates the squared error of
the iterate d steps back, so convergence of iterate i is certified at
iteration i + d.  The reported iteration count is the certified
iterate, matching how the estimate is anchored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ilup import IlupParams, ilup_factorize
from .precond import RowSplitPreconditioner, SMode, build_preconditioner
from .sparse_core import CscMatrix, column_scale, matvec, matvec_transpose


@dataclass
class CglsConfig:
    """Solver controls; norm_A is the caller's spectral-norm estimate."""

    norm_A: float
    delta: float = 1e-10
    max_iters: int = 2000
    estimator_delay: int = 5

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not (np.isfinite(self.norm_A) and self.norm_A >= 0.0):
            raise ValueError("norm_A must be finite and >= 0")
        if not (np.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError("delta must be finite and > 0")
        if not self.estimator_delay >= 1:
            raise ValueError("estimator_delay must be >= 1")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class SolveReport:
    """Outcome of one pcgls run.

    converged reflects the error-estimate stopping rule.  The rule sums
    recent step decrements, so a run that stagnates (weak incomplete
    factors can do that) certifies even though little progress was
    made; gradient_norm_final, the final ||A^T r||, exposes that case:
    it is tiny for a genuinely solved problem and stays large under
    stagnation.  breakdown means the run stopped before the cap because
    no direction made progress, and no estimate certified it.
    """

    its: int
    converged: bool
    breakdown: bool
    ratio_pt_final: float
    ratio_pt_history: list[float] = field(default_factory=list)
    psize: int = 0
    nmod: int = 0
    residual_norm_final: float = 0.0
    gradient_norm_final: float = 0.0

    def to_dict(self) -> dict:
        return {
            "its": self.its,
            "converged": self.converged,
            "breakdown": self.breakdown,
            "ratio_pt": self.ratio_pt_final,
            "ratio_pt_history": list(self.ratio_pt_history),
            "psize": self.psize,
            "nmod": self.nmod,
            "residual_norm": self.residual_norm_final,
            "gradient_norm": self.gradient_norm_final,
        }


def error_estimate(window, d) -> float:
    """Delayed estimate of a squared energy-norm error.

    ``window`` holds (alpha_k, rho_k) pairs for the most recent
    completed iterations; the estimate for the iterate d steps back is
    the sum over the last d pairs.  Raises ValueError when fewer than d
    pairs are available.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    window = list(window)
    if len(window) < d:
        raise ValueError("estimate not yet defined: fewer than d iterations available")
    return float(sum(a * r for a, r in window[-d:]))


def stopping_ratio(estim, norm_A, x_norm, b_norm) -> float:
    """Backward-error style stopping quantity.

    The numerator is sqrt(estim) so that an estimate of a *squared*
    energy norm compares against the first-power denominator.
    """
    denom = norm_A * x_norm + b_norm
    if denom <= 0.0:
        raise ValueError("zero denominator in stopping ratio")
    if estim < 0.0:
        estim = 0.0
    return float(np.sqrt(estim) / denom)


def pcgls(
    A: CscMatrix,
    b,
    pre: RowSplitPreconditioner | None,
    cfg: CglsConfig,
    iterate_hook=None,
) -> tuple[np.ndarray, SolveReport]:
    """Left-preconditioned CGLS from a zero start.

    With pre=None this is plain CGLS.  Otherwise the preconditioned
    direction is computed from the residual split in pivot order, and
    rho = (A^T r, h) couples it with the true transposed residual.

    While rho stays positive this is the textbook recursion.  The
    residual-form application is not symmetric once the factors are
    incomplete, in either S mode, so rho can and does turn negative;
    the step then falls back to the exact line minimizer along the
    current direction, alpha = (z, p) / ||A p||^2, which coincides with
    the textbook step in the positive regime and keeps the residual
    non-increasing in general.  The estimator window stores the step
    decrement pair of whichever step was taken.

    Stops when the delayed error estimate drives the stopping ratio
    below cfg.delta, at the iteration cap, when the gradient A^T r
    vanishes exactly (which certifies the current iterate), or when no
    direction makes progress.  The last case tries the partial
    estimates of the windows that still hold at least one step, and
    reports breakdown when none of them certifies.  Raises ValueError
    when b has the wrong length or a non-finite entry.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.nrows,):
        raise ValueError("right-hand side length mismatch")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side has non-finite entries")
    n = A.ncols
    d = cfg.estimator_delay
    b_norm = float(np.linalg.norm(b))

    if pre is not None:
        if pre.factors.nrows != A.nrows or pre.n != n:
            raise ValueError("preconditioner does not match the matrix")
        perm = pre.factors.row_perm.perm

        def precondition(r):
            rp = r[perm]
            return pre.apply(rp[:n], rp[n:])

        psize, nmod = pre.psize, pre.factors.nmod
    else:
        precondition = None
        psize, nmod = 0, 0

    x = np.zeros(n)
    r = b.copy()
    z = matvec_transpose(A, r)

    alphas: list[float] = []
    sigmas: list[float] = []
    x_norms: list[float] = [0.0]
    history: list[float] = []

    converged = False
    its_certified = 0
    iters_run = 0

    if float(z @ z) == 0.0:
        # x = 0 is already stationary (b zero or orthogonal to range(A))
        return x, SolveReport(
            its=0,
            converged=True,
            breakdown=False,
            ratio_pt_final=0.0,
            ratio_pt_history=[0.0],
            psize=psize,
            nmod=nmod,
            residual_norm_final=b_norm,
            gradient_norm_final=0.0,
        )

    h = z if precondition is None else precondition(r)
    rho = float(z @ h)
    p = h.copy()
    stopped_early = False
    for it in range(cfg.max_iters):
        sigma = rho if rho > 0.0 else float(z @ p)
        if sigma == 0.0:
            # direction orthogonal to the gradient: retry along it once
            p = z.copy()
            sigma = float(z @ z)
            rho = sigma
        q = matvec(A, p)
        qq = float(q @ q)
        if qq <= 0.0 or sigma == 0.0:
            stopped_early = True
            break
        alpha = sigma / qq
        x += alpha * p
        r -= alpha * q
        alphas.append(alpha)
        sigmas.append(sigma)
        x_norms.append(float(np.linalg.norm(x)))
        iters_run = it + 1
        if iterate_hook is not None:
            iterate_hook(iters_run, x.copy())

        i = iters_run - d
        if i >= 0:
            estim = error_estimate(list(zip(alphas[i:], sigmas[i:])), d)
            ratio = stopping_ratio(estim, cfg.norm_A, x_norms[i], b_norm)
            history.append(ratio)
            if ratio <= cfg.delta:
                converged = True
                its_certified = i
                break

        z = matvec_transpose(A, r)
        if float(z @ z) == 0.0:
            # x is a least-squares solution: its error, and ratio, are 0
            history.append(0.0)
            converged = True
            its_certified = iters_run
            break
        h = z if precondition is None else precondition(r)
        rho_new = float(z @ h)
        p = h + (rho_new / rho) * p if rho != 0.0 else h.copy()
        rho = rho_new

    if stopped_early:
        # the process cannot continue; the missing window terms are at
        # the attainable-accuracy floor, so partial sums stay honest
        for i in range(max(0, iters_run - d + 1), iters_run):
            estim = float(sum(a * s for a, s in zip(alphas[i:], sigmas[i:])))
            ratio = stopping_ratio(estim, cfg.norm_A, x_norms[i], b_norm)
            history.append(ratio)
            if ratio <= cfg.delta:
                converged = True
                its_certified = i
                break

    its = its_certified if converged else iters_run
    final_residual = b - matvec(A, x)
    report = SolveReport(
        its=its,
        converged=converged,
        breakdown=stopped_early and not converged,
        ratio_pt_final=history[-1] if history else float("inf"),
        ratio_pt_history=history,
        psize=psize,
        nmod=nmod,
        residual_norm_final=float(np.linalg.norm(final_residual)),
        gradient_norm_final=float(np.linalg.norm(matvec_transpose(A, final_residual))),
    )
    return x, report


# ---------------------------------------------------------------------------
# Quasi-square direct path
# ---------------------------------------------------------------------------


def solve_quasi_square_direct(A: CscMatrix, b) -> np.ndarray:
    """Direct least-squares solution through a complete LU of the row split.

    Scales the columns, factorizes completely (no dropping), applies the
    dense-mode preconditioner to the permuted right-hand side, and
    unscales; with complete factors that one application is the exact
    least-squares solution.  With m > 2n the dense factor is that of
    G = I + Y^T Y, of order n.  Raises ValueError when b has the wrong
    length or a non-finite entry or when the coupling Gram's order
    min(m - n, n) exceeds DENSE_S_CAP, and LinAlgError when
    the factorization needed a pivot modification (rank deficiency).
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.nrows,):
        raise ValueError("right-hand side length mismatch")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side has non-finite entries")
    scaled, scaling = column_scale(A)
    factors = ilup_factorize(scaled, IlupParams(p=A.nrows, tau=0.0))
    if factors.nmod > 0:
        raise np.linalg.LinAlgError(
            f"{factors.nmod} modified pivots: matrix is numerically rank deficient"
        )
    pre = build_preconditioner(factors, SMode.DENSE_FACTOR)
    pb = b[factors.row_perm.perm]
    return scaling.unscale_solution(pre.apply(pb[:A.ncols], pb[A.ncols:]))
