"""Dense SPD linear algebra: Cholesky with a jitter ladder, solves, log-det.

Everything is dense and delegated to LAPACK; the models built on it
typically have n <= 100 training points, where the fixed cost of a call
outweighs its arithmetic, so the helpers call the routines directly:

* :func:`cholesky_with_jitter` factors through ``np.linalg.cholesky``
  (LAPACK ``potrf`` behind numpy's wrapper).  scipy's ``dpotrf`` is
  cheaper to call, but numpy and scipy each bundle their own OpenBLAS,
  and on correlation matrices from n = 12 up (numpy 2.4, scipy 1.17) its
  factor differs from numpy's in the last bits; stored models and loss
  traces keep numpy's.
* :func:`solve_spd` and :func:`inverse_spd` call ``dpotrs`` from
  ``scipy.linalg.lapack``; the inverse solves against the identity.  This
  is what ``scipy.linalg.cho_solve`` does, without its argument checks,
  and gives the same bits.
* :func:`logdet` sums the logs of the factor's diagonal.

``scipy.linalg`` is imported inside :func:`_potrs`, on the first solve, not
with this module.  Loading it pulls in SciPy's array-API layer (among others
``numpy.testing`` and ``numpy.f2py``), which more than doubles the start-up
of a command that never factors a matrix, such as ``ppgp predict``.  Once
loaded, the import statement is a lookup in ``sys.modules``, under a
microsecond against the tens of microseconds of a solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    # A finite matrix equal to its transpose has max |A - A^T| = 0, which
    # passes the tolerance; only an asymmetric one needs the scans
    asym = 0.0
    if not (A == A.T).all():
        asym = float(np.max(np.abs(A - A.T)))
        if asym > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(A)))):
            raise SingularMatrixError(
                f"matrix is not symmetric: max |A - A^T| entry is {asym:.3e}"
            )
    if not (math.isfinite(delta0) and delta0 >= 0):
        raise SingularMatrixError(f"delta0 must be finite and non-negative (got {delta0})")

    delta = float(delta0)
    while True:
        shifted = A.copy()
        shifted.flat[:: A.shape[0] + 1] += delta      # A + delta * I
        try:
            L = np.linalg.cholesky(shifted)
            return CholFactor(lower=L, jitter_used=delta)
        except np.linalg.LinAlgError:
            if delta >= JITTER_MAX:
                raise SingularMatrixError(
                    f"cholesky failed for {A.shape[0]}x{A.shape[0]} matrix even "
                    f"at jitter {JITTER_MAX:g}; max |A - A^T| entry is {asym:.3e}"
                ) from None
            delta = JITTER_FLOOR if delta == 0.0 else min(delta * 10.0, JITTER_MAX)


def _potrs(F: CholFactor, b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
    """``dpotrs`` on the lower factor; an empty ``b`` returns an empty result."""
    if b.size == 0:
        # dpotrs rejects a 0 x 0 factor
        return np.empty(b.shape)
    from scipy.linalg.lapack import dpotrs   # loaded on first use; see the module docstring

    x, info = dpotrs(F.lower, b, lower=True, overwrite_b=overwrite_b)
    if info != 0:
        raise SingularMatrixError(f"dpotrs rejected argument {-info}")
    return x


def solve_spd(F: CholFactor, b: np.ndarray) -> np.ndarray:
    """Solve ``(A + jitter * I) x = b`` from the factor, via two triangular solves.

    ``b`` is a vector or a matrix of finite right-hand sides, with ``F.n``
    rows.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != F.n:
        raise SingularMatrixError(
            f"right-hand side has length {b.shape[0]}, factor is {F.n}x{F.n}"
        )
    if not np.isfinite(b).all():
        raise SingularMatrixError("right-hand side contains non-finite entries")
    return _potrs(F, b)


def logdet(F: CholFactor) -> float:
    """Log-determinant of the factored matrix: ``2 sum(log(diag(L)))``."""
    return float(2.0 * np.sum(np.log(np.diag(F.lower))))


def inverse_spd(F: CholFactor) -> np.ndarray:
    """Dense inverse of the factored matrix (column-major)."""
    return _potrs(F, np.eye(F.n, order="F"), overwrite_b=True)
