"""Empirical convergence-rate checks for GP interpolation.

Measures, as the design size n grows, the maximum predictive standard
deviation P(x) over a dense grid and the sup-norm prediction error on
exact prior sample paths.  Fitting a least-squares line to the log-log
pairs gives the empirical decay exponent; theory predicts roughly n^-nu
for the additive structure against n^(-nu/d) isotropic, so for d >= 2
the additive slope should be clearly steeper.

Sample paths come from one joint prior draw over the grid plus every
design of the curve, through the pivoted Cholesky factor of the joint
Gram matrix (:func:`ppgp.linalg.pivoted_cholesky`).  That factor needs
no jitter, which would act as white observation noise on the path
values and floor the measurable error, and it has only as many columns
as the Gram has numerical rank.  Each design size is scored on its own
slice of those paths, so its paths are exact prior draws and all sizes
share the same random draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import randomized_lhs
from .errors import DomainError
from .gp import fit
from .kernels import MultivariateKernel, matern
from .linalg import pivoted_cholesky

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

    Each draw is ``F z`` for the pivoted Cholesky factor ``F`` of the
    Gram matrix and a standard normal ``z`` with one entry per column.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    F = pivoted_cholesky(kernel.gram(points))
    z = np.random.default_rng(seed).standard_normal((trials, F.shape[1]))
    return z @ F.T


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
    sup-norm prediction error on the grid.  The draws are made once, over
    the grid plus all the designs, and shared by every n.  ``trials=0``
    skips the draws (sup_err reported as nan).  ``d`` must lie in 1..3,
    every n be at least 2 and ``nugget`` be finite and non-negative.
    """
    if not 1 <= d <= 3:
        raise DomainError(f"rate checks support 1 <= d <= 3, got {d}")
    if grid_budget > _MAX_GRID:
        raise DomainError(f"grid budget capped at {_MAX_GRID}")
    n_list = [int(n) for n in n_list]
    if min(n_list, default=2) < 2:
        raise DomainError(f"rate checks need designs of at least 2 points, got {n_list}")
    if not (math.isfinite(nugget) and nugget >= 0):
        raise DomainError(f"nugget must be finite and non-negative (got {nugget})")
    grid = _grid(d, grid_budget)
    kernel = MultivariateKernel(base=matern(nu), structure=structure, dim=d)

    # child i seeds design i through its first grandchild and the last child
    # seeds the joint draw, so the designs, and max_p, do not depend on trials
    *design_children, draw_child = np.random.SeedSequence(seed).spawn(len(n_list) + 1)
    designs = [randomized_lhs(n, d, int(child.spawn(1)[0].generate_state(1)[0])).points
               for n, child in zip(n_list, design_children)]
    n_grid = grid.shape[0]
    if trials > 0:
        samples = prior_draws(kernel, np.vstack([grid, *designs]), trials,
                              int(draw_child.generate_state(1)[0]))
    rows = []
    start = n_grid
    for n, design in zip(n_list, designs):
        probe = fit(design, np.zeros(n), kernel, nugget=nugget, center=False)
        max_p = float(np.sqrt(np.max(probe.p_squared(grid))))

        sup_err = np.nan
        if trials > 0:
            errs = []
            for s in samples:
                model = fit(design, s[start:start + n], kernel, nugget=nugget, center=False)
                errs.append(np.max(np.abs(s[:n_grid] - model.predict(grid))))
            sup_err = float(np.mean(errs))
        start += n
        rows.append(CurveRow(n=n, max_p=max_p, sup_err=sup_err))
    return rows


def rate_fit(pairs) -> RateFit:
    """Least-squares line of log(err) against log(n) over (n, err) pairs,
    which need at least two distinct n."""
    arr = np.asarray([(float(n), float(e)) for n, e in pairs], dtype=float)
    if arr.shape[0] < 2:
        raise DomainError("rate fit needs at least two (n, err) pairs")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise DomainError("rate fit needs finite positive n and err values")
    if np.all(arr[:, 0] == arr[0, 0]):
        raise DomainError(f"rate fit needs at least two distinct n, got only {arr[0, 0]:g}")
    x, y = np.log(arr).T
    dx, dy = x - x.mean(), y - y.mean()
    slope = float(dx @ dy / (dx @ dx))
    intercept = float(y.mean() - slope * x.mean())
    ss_tot = float(dy @ dy)
    resid = dy - slope * dx
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return RateFit(slope=slope, intercept=intercept, r2=r2)
