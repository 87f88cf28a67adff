"""Plain Gaussian-process regression with a lazily built Cholesky factor.

A fitted model stores the weight vector ``alpha = (K + delta I)^-1 Y`` and
the jitter ``delta`` its factorization reached, so the posterior mean at
``x`` is ``sum_j alpha_j k(x, x_j)``.  For isotropic and product kernels
that is a dot product with the cross-correlation vector; an additive kernel
is a mean of one-dimensional correlations, so its sum is taken per
coordinate and the coordinate sums are averaged.  The kernel prepares that
sum once per model (for a half-integer Matérn base, as sorted one-sided
sums over the design), and the model keeps it in memory only; model files
never hold it.  Nor do they hold the lower factor of ``K + delta I``, which
only the predictive variance and the likelihood read: the model rebuilds it
from the design on first use, starting the jitter ladder at ``delta``.  The
Gram matrix and the ladder are deterministic, so in one process the
rebuilt factor has the bits of the one ``fit`` solved with.
Responses are centered by their sample mean by default (the prior is mean
zero and raw simulator outputs usually are not); the mean is added back at
prediction time."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FitError, PpgpError, SingularMatrixError
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
    alpha: np.ndarray = field(repr=False)
    jitter_used: float

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    @cached_property
    def chol(self) -> CholFactor:
        """Lower factor of ``K + jitter_used * I``, built on first use and
        kept for the life of the model."""
        return cholesky_with_jitter(self.kernel.gram(self.design), self.jitter_used)

    @cached_property
    def _posterior_sum(self):
        """``X -> sum_j alpha_j k(X, x_j)``, prepared by the kernel on first
        use and kept for the life of the model."""
        return self.kernel._cross_dot_plan(self.design, self.alpha)

    def predict(self, X) -> np.ndarray:
        """Posterior-mean predictions at the rows of ``X`` (m x dim).

        ``sum_j alpha_j k(x, x_j)`` comes from the kernel, never from an
        m x n x dim lag tensor.  Isotropic and product kernels take a dot
        product with the m x n cross-correlations, in row blocks.  An
        additive kernel takes the sum per coordinate, then averages each
        row's sorted coordinate sums, so it builds no m x n matrix and its
        predictions do not depend on the order of the coordinates.  With a
        half-integer Matérn base the coordinate sums come from sorted
        one-sided sums over the design, built on the first call and reused,
        at a binary search and O(nu) operations per coordinate; other bases
        weight and sum the base values over the design in row blocks.
        Every row is computed identically whatever the batch size or memory
        layout of ``X``: batch predictions match single-point predictions
        bit for bit.
        """
        return self._posterior_sum(X) + self.center_mean

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


def _training_data(design, responses, error: type[PpgpError]):
    """``design`` (n x d) and ``responses`` (n) as float arrays; raises
    ``error`` unless n >= 2, the lengths agree and every entry is finite."""
    X = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.asarray(responses, dtype=float).reshape(-1)
    if len(X) < 2:
        raise error(f"need at least 2 observations, got {len(X)}")
    if len(y) != len(X):
        raise error(f"got {len(X)} design rows but {len(y)} responses")
    if not np.isfinite(X).all():
        raise error("design contains non-finite entries")
    if not np.isfinite(y).all():
        raise error("responses contain non-finite entries")
    return X, y


def fit(
    design: np.ndarray,
    responses: np.ndarray,
    kernel: MultivariateKernel,
    nugget: float = DEFAULT_NUGGET,
    center: bool = True,
) -> GpModel:
    """Fit a GP to ``responses`` observed at the rows of ``design``.

    Parameters
    ----------
    design : ndarray, shape (n, d)
        Input sites, which must lie in the unit cube.  The inner GP of a
        projection-pursuit model, on unbounded projected coordinates, comes
        from :func:`~ppgp.pursuit.train`'s best step, not from here.
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
    X, y = _training_data(design, responses, FitError)
    d = X.shape[1]
    if kernel.dim != d:
        raise FitError(f"kernel dim {kernel.dim} does not match design dim {d}")
    if X.min() < 0.0 or X.max() > 1.0:
        raise FitError("design rows must lie in the unit cube")
    if not (math.isfinite(nugget) and nugget >= 0):
        raise FitError(f"nugget must be finite and non-negative (got {nugget})")

    mean = float(np.mean(y)) if center else 0.0
    yc = y - mean
    K = kernel.gram(X)
    try:
        chol = cholesky_with_jitter(K, nugget)
    except SingularMatrixError as exc:
        raise FitError(f"correlation matrix could not be factored: {exc}") from exc
    return GpModel(
        design=X,
        responses=y,
        kernel=kernel,
        nugget=nugget,
        center=center,
        center_mean=mean,
        alpha=solve_spd(chol, yc),
        jitter_used=chol.jitter_used,
    )
