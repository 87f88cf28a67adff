"""Dense SPD linear algebra: Cholesky with a jitter ladder, solves, log-det.

Everything is dense and delegated to LAPACK via numpy/scipy; the models
built on it typically have n <= 100 training points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .errors import SingularMatrixError

__all__ = [
    "CholFactor",
    "cholesky_with_jitter",
    "solve_spd",
    "logdet",
    "inverse_spd",
]

SYMMETRY_TOL = 1e-10
JITTER_MAX = 1e-2
# first rung of the ladder when the caller starts from exactly zero
JITTER_FLOOR = 1e-10


@dataclass(frozen=True)
class CholFactor:
    """Lower Cholesky factor of ``A + jitter_used * I``."""

    lower: np.ndarray
    jitter_used: float

    @property
    def n(self) -> int:
        return self.lower.shape[0]


def cholesky_with_jitter(A: np.ndarray, delta0: float = 0.0) -> CholFactor:
    """Factor ``A + delta * I`` with ``delta`` escalating from ``delta0``.

    ``delta`` starts at ``delta0`` and is multiplied by 10 after every
    failed attempt, up to ``1e-2``.  The escalation is deterministic, so a
    given matrix always records the same ``jitter_used``.

    Raises
    ------
    SingularMatrixError
        If ``delta0`` is negative or not finite, ``A`` is not symmetric
        within ``1e-10``, or no ladder rung succeeds.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SingularMatrixError(f"expected a square matrix, got {A.shape}")
    if A.size and not np.isfinite(A).all():
        raise SingularMatrixError("matrix contains non-finite entries")
    asym = float(np.max(np.abs(A - A.T))) if A.size else 0.0
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    if asym > SYMMETRY_TOL * max(1.0, scale):
        raise SingularMatrixError(
            f"matrix is not symmetric: max |A - A^T| entry is {asym:.3e}"
        )
    if not (math.isfinite(delta0) and delta0 >= 0):
        raise SingularMatrixError(f"delta0 must be finite and non-negative (got {delta0})")

    delta = float(delta0)
    while True:
        try:
            L = np.linalg.cholesky(A + delta * np.eye(A.shape[0]))
            return CholFactor(lower=L, jitter_used=delta)
        except np.linalg.LinAlgError:
            if delta >= JITTER_MAX:
                raise SingularMatrixError(
                    f"cholesky failed for {A.shape[0]}x{A.shape[0]} matrix even "
                    f"at jitter {JITTER_MAX:g}; max |A - A^T| entry is {asym:.3e}"
                ) from None
            delta = JITTER_FLOOR if delta == 0.0 else min(delta * 10.0, JITTER_MAX)


def solve_spd(F: CholFactor, b: np.ndarray) -> np.ndarray:
    """Solve ``(A + jitter * I) x = b`` from the factor, via two triangular solves."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != F.n:
        raise SingularMatrixError(
            f"right-hand side has length {b.shape[0]}, factor is {F.n}x{F.n}"
        )
    return cho_solve((F.lower, True), b)


def logdet(F: CholFactor) -> float:
    """Log-determinant of the factored matrix: ``2 sum(log(diag(L)))``."""
    return float(2.0 * np.sum(np.log(np.diag(F.lower))))


def inverse_spd(F: CholFactor) -> np.ndarray:
    """Dense inverse of the factored matrix."""
    return cho_solve((F.lower, True), np.eye(F.n))
