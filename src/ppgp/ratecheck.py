"""Empirical convergence-rate checks for GP interpolation.

Measures, as the design size n grows, the maximum predictive standard
deviation P(x) over a dense grid and the sup-norm prediction error on
exact prior sample paths.  Fitting ordinary least squares to the log-log
pairs gives the empirical decay exponent; theory predicts roughly n^-nu
for the additive structure against n^(-nu/d) isotropic, so for d >= 2
the additive slope should be clearly steeper.

Sample paths are drawn from the joint prior over design-plus-grid via an
eigendecomposition of the joint Gram matrix, with tiny negative
eigenvalues (rounding artifacts) clipped to zero.  A Cholesky of that
matrix would need a jitter that acts as white observation noise on the
path values and floors the measurable error, so it is avoided here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import randomized_lhs
from .errors import DomainError, SingularMatrixError
from .gp import fit
from .kernels import MultivariateKernel, matern

__all__ = [
    "CurveRow",
    "RateFit",
    "prior_draws",
    "sup_error_curve",
    "rate_fit",
    "THEORY_NUGGET",
]

# far below the default model nugget so P(x) is not floored by jitter
THEORY_NUGGET = 1e-10

_MAX_GRID = 4096


@dataclass(frozen=True)
class CurveRow:
    """One design size: deterministic max P(x) and mean sup prediction error."""

    n: int
    max_p: float
    sup_err: float


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r2: float


def _grid(d: int, budget: int) -> np.ndarray:
    per_dim = int(round(budget ** (1.0 / d)))
    while per_dim**d > budget:
        per_dim -= 1
    axes = [np.linspace(0.0, 1.0, per_dim)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def prior_draws(
    kernel: MultivariateKernel, points: np.ndarray, trials: int, seed: int
) -> np.ndarray:
    """Exact zero-mean prior samples at ``points``; returns (trials, N).

    Uses the eigendecomposition of the Gram matrix with negative
    eigenvalues clipped at zero.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    K = kernel.gram(points)
    try:
        w, V = np.linalg.eigh(K)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "joint Gram eigendecomposition failed; reduce the evaluation "
            "grid or the design size"
        ) from exc
    A = V * np.sqrt(np.clip(w, 0.0, None))
    z = np.random.default_rng(seed).standard_normal((trials, points.shape[0]))
    return z @ A.T


def sup_error_curve(
    structure: str,
    nu: float,
    d: int,
    n_list,
    trials: int = 2,
    seed: int = 0,
    *,
    grid_budget: int = _MAX_GRID,
    nugget: float = THEORY_NUGGET,
) -> list[CurveRow]:
    """Error-decay measurements over randomized-LHS designs of growing size.

    The kernel is the Matérn of smoothness ``nu`` at scale ``phi = 1``
    composed by ``structure``.  For each n: one seeded LHS design, the
    (deterministic) grid maximum of the predictive standard deviation
    P(x), and the average over ``trials`` exact prior draws of the
    sup-norm prediction error on the grid.  ``trials=0`` skips the draws
    (sup_err reported as nan).  ``d`` must lie in 1..3 and every n be at
    least 2.
    """
    if not 1 <= d <= 3:
        raise DomainError(f"rate checks support 1 <= d <= 3, got {d}")
    if grid_budget > _MAX_GRID:
        raise DomainError(f"grid budget capped at {_MAX_GRID}")
    n_list = [int(n) for n in n_list]
    if min(n_list, default=2) < 2:
        raise DomainError(f"rate checks need designs of at least 2 points, got {n_list}")
    grid = _grid(d, grid_budget)
    kernel = MultivariateKernel(base=matern(nu), structure=structure, dim=d)

    children = np.random.SeedSequence(seed).spawn(len(n_list))
    rows = []
    for n, child in zip(n_list, children):
        design_seed, draw_seed = (int(c.generate_state(1)[0]) for c in child.spawn(2))
        design = randomized_lhs(n, d, design_seed).points
        probe = fit(design, np.zeros(n), kernel, nugget=nugget, center=False)
        max_p = float(np.sqrt(np.max(probe.p_squared(grid))))

        sup_err = np.nan
        if trials > 0:
            joint = np.vstack([design, grid])
            samples = prior_draws(kernel, joint, trials, draw_seed)
            errs = []
            for s in samples:
                model = fit(design, s[:n], kernel, nugget=nugget, center=False)
                errs.append(np.max(np.abs(s[n:] - model.predict(grid))))
            sup_err = float(np.mean(errs))
        rows.append(CurveRow(n=n, max_p=max_p, sup_err=sup_err))
    return rows


def rate_fit(pairs) -> RateFit:
    """OLS fit of log(err) against log(n) over (n, err) pairs."""
    arr = np.asarray([(float(n), float(e)) for n, e in pairs], dtype=float)
    if arr.shape[0] < 2:
        raise DomainError("rate fit needs at least two (n, err) pairs")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise DomainError("rate fit needs finite positive n and err values")
    x = np.log(arr[:, 0])
    y = np.log(arr[:, 1])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r2=r2)
