"""Plain Gaussian-process regression with a cached Cholesky factorization.

A fitted model stores the lower factor of ``K + delta * I`` and the weight
vector ``alpha = (K + delta I)^-1 Y``, so prediction is a dot product with
the cross-correlation vector.  Responses are centered by their sample mean
by default (the prior is mean zero and raw simulator outputs usually are
not); the mean is added back at prediction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, SingularMatrixError
from .kernels import MultivariateKernel
from .linalg import CholFactor, cholesky_with_jitter, logdet, solve_spd

__all__ = ["GpModel", "fit", "DEFAULT_NUGGET"]

DEFAULT_NUGGET = 1e-6


@dataclass(frozen=True)
class GpModel:
    """A fitted Gaussian-process regression model (immutable)."""

    design: np.ndarray
    responses: np.ndarray
    kernel: MultivariateKernel
    nugget: float
    center: bool
    center_mean: float
    chol: CholFactor = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    sigma2_hat: float = 0.0

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    def predict(self, X) -> np.ndarray:
        """Posterior-mean predictions at the rows of ``X`` (m x dim).

        The cross-correlations come from :meth:`MultivariateKernel.cross`
        in row blocks, so memory is O(m n) for ``r`` plus one bounded
        block, never an m x n x dim lag tensor.  The reduction is written
        as an explicit einsum so each output element is accumulated
        identically whatever the batch size; batch predictions match
        single-point predictions bit for bit.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        r = self.kernel.cross(X, self.design)
        return np.einsum("ij,j->i", r, self.alpha) + self.center_mean

    def p_squared(self, X) -> np.ndarray:
        """Normalized predictive variance ``1 - r^T (K + delta I)^-1 r``.

        Clamped below at zero; values at training sites are of order the
        nugget.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        r = self.kernel.cross(X, self.design)
        v = solve_spd(self.chol, r.T)
        p2 = 1.0 - np.einsum("ij,ji->i", r, v)
        return np.maximum(p2, 0.0)

    def log_likelihood(self) -> float:
        """The fitted objective ``Y^T (K + delta I)^-1 Y + log det(K + delta I)``.

        Uses the same (possibly centered) responses the weights were
        computed from; lower is better.
        """
        yc = self.responses - self.center_mean
        return float(yc @ self.alpha + logdet(self.chol))


def fit(
    design: np.ndarray,
    responses: np.ndarray,
    kernel: MultivariateKernel,
    nugget: float = DEFAULT_NUGGET,
    center: bool = True,
    validate_unit_cube: bool = True,
) -> GpModel:
    """Fit a GP to ``responses`` observed at the rows of ``design``.

    Parameters
    ----------
    design : ndarray, shape (n, d)
        Input sites.  Expected to lie in the unit cube; pass
        ``validate_unit_cube=False`` for inputs that are legitimately
        unbounded (e.g. linearly transformed coordinates).
    responses : ndarray, shape (n,)
        Observed outputs; must be finite.
    kernel : MultivariateKernel
        Correlation structure; ``kernel.dim`` must equal ``d``.
    nugget : float
        Diagonal inflation of the correlation matrix (also the starting
        rung of the jitter ladder should factorization fail).
    center : bool
        Subtract the response mean before fitting and add it back at
        prediction.  Disable for data that is already mean zero.
    """
    X = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.asarray(responses, dtype=float).reshape(-1)
    n, d = X.shape
    if n < 2:
        raise FitError(f"need at least 2 observations, got {n}")
    if y.shape[0] != n:
        raise FitError(f"got {n} design rows but {y.shape[0]} responses")
    if not np.all(np.isfinite(X)):
        raise FitError("design contains non-finite entries")
    if not np.all(np.isfinite(y)):
        raise FitError("responses contain non-finite entries")
    if kernel.dim != d:
        raise FitError(f"kernel dim {kernel.dim} does not match design dim {d}")
    if validate_unit_cube and (X.min() < 0.0 or X.max() > 1.0):
        raise FitError(
            "design rows must lie in the unit cube; pass "
            "validate_unit_cube=False for transformed inputs"
        )
    if nugget < 0:
        raise FitError("nugget must be non-negative")

    mean = float(np.mean(y)) if center else 0.0
    yc = y - mean
    K = kernel.gram(X)
    try:
        chol = cholesky_with_jitter(K, nugget)
    except SingularMatrixError as exc:
        raise FitError(f"correlation matrix could not be factored: {exc}") from exc
    alpha = solve_spd(chol, yc)
    sigma2 = max(float(yc @ alpha) / n, 0.0)
    return GpModel(
        design=X,
        responses=y,
        kernel=kernel,
        nugget=nugget,
        center=center,
        center_mean=mean,
        chol=chol,
        alpha=alpha,
        sigma2_hat=sigma2,
    )
