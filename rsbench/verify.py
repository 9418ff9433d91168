"""Independent check of least-squares answers, using numpy and scipy only.

A solve is verified when the relative gradient of the user's system,
||A^T r|| / (||A||_2 ||r||) with r = b - A x, is at most TOLERANCE.  A is
the original, unscaled matrix and x the unscaled solution; nothing here
calls into rowsplit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

TOLERANCE = 1e-8


def verified(relgrad: float) -> bool:
    """The one acceptance test: a relative gradient at most TOLERANCE."""
    return relgrad <= TOLERANCE


def spectral_norm(A) -> float:
    """||A||_2 by ARPACK from a fixed start vector, so it is deterministic."""
    k = min(A.shape)
    if k < 3:
        return float(np.linalg.norm(A.toarray(), 2))
    return float(spla.svds(A, k=1, v0=np.ones(k), return_singular_vectors=False)[0])


class Verifier:
    """Relative-gradient test on one fixed matrix."""

    def __init__(self, A):
        self.A = sp.csc_matrix(A, dtype=np.float64)
        self.AT = self.A.T.tocsc()
        self.norm2 = spectral_norm(self.A)
        if not np.isfinite(self.norm2) or self.norm2 <= 0.0:
            raise ValueError("cannot verify against a zero or non-finite matrix")

    def relgrad(self, x, b) -> float:
        """||A^T r|| / (||A|| ||r||); inf for a non-finite or mis-sized x."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.A.shape[1],) or not np.all(np.isfinite(x)):
            return float("inf")
        r = b - self.A @ x
        g = float(np.linalg.norm(self.AT @ r))
        rn = float(np.linalg.norm(r))
        if g == 0.0:
            return 0.0
        return g / (self.norm2 * rn) if rn > 0.0 else float("inf")

    def lsqr(self, b, iter_lim: int):
        """scipy LSQR at the verifier's tolerance: returns (x, iterations).

        LSQR stops on ||A^T r|| <= atol ||A||_est ||r|| with its own
        estimates of both norms, ||A||_est <= ||A||_F, so atol is scaled by
        ||A||_2/||A||_F to aim that stop at the verifier's test.
        """
        atol = TOLERANCE * self.norm2 / spla.norm(self.A)
        out = spla.lsqr(self.A, b, atol=atol, btol=0.0, conlim=0.0, iter_lim=iter_lim)
        return out[0], int(out[2])
