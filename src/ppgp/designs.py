"""Experimental designs on the unit cube and their projection diagnostics.

Generators: Halton sequences (radical inverse in successive prime bases,
starting at index 1, no scrambling, so runs are bit-reproducible),
randomized Latin hypercubes (one point uniformly placed per axis stratum),
and plain uniform sampling.

Diagnostics: per-coordinate fill distance (how well a design's j-th
projection covers [0, 1]) and a polynomial-moment regularity check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Design",
    "GENERATORS",
    "halton",
    "randomized_lhs",
    "uniform_random",
    "marginal_fill_distance",
    "marginal_fill_distance_exact",
    "moment_matrix",
    "regularity_order",
    "distinct_within_points",
    "distinct_across_points",
]

_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


@dataclass(frozen=True)
class Design:
    """An n x d matrix of input sites in [0, 1]^d plus provenance."""

    points: np.ndarray
    generator: str
    seed: int | None = None

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def halton(n: int, d: int) -> Design:
    """First ``n`` Halton points in ``d`` dimensions (indices 1..n).

    Coordinate ``j`` of point ``i`` is the radical inverse of ``i`` in the
    ``j``-th prime base (2, 3, 5, ...).  Deterministic; ``d`` is limited by
    the built-in prime table to 25.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    if not 1 <= d <= len(_PRIMES):
        raise DomainError(f"halton supports 1 <= d <= {len(_PRIMES)}, got {d}")
    pts = np.empty((n, d))
    for j in range(d):
        base = _PRIMES[j]
        pts[:, j] = [_radical_inverse(i, base) for i in range(1, n + 1)]
    return Design(points=pts, generator="halton")


def randomized_lhs(n: int, d: int, seed: int) -> Design:
    """Randomized Latin hypercube: one uniform point per axis stratum.

    Per dimension, stratum order is a random permutation and the point is
    placed uniformly inside its cell: coordinate = (perm(i) + u_i) / n.
    Coordinates are therefore distinct across points in every dimension
    (with probability one) and every stratum [(i-1)/n, i/n) holds exactly
    one point.
    """
    if n < 1 or d < 1:
        raise DomainError("n and d must be at least 1")
    rng = np.random.default_rng(seed)
    pts = np.empty((n, d))
    for j in range(d):
        perm = rng.permutation(n)
        u = rng.random(n)
        pts[:, j] = (perm + u) / n
    return Design(points=pts, generator="randomized-lhs", seed=seed)


def uniform_random(n: int, d: int, seed: int) -> Design:
    """n i.i.d. uniform points in the unit cube."""
    if n < 1 or d < 1:
        raise DomainError("n and d must be at least 1")
    rng = np.random.default_rng(seed)
    return Design(points=rng.random((n, d)), generator="uniform-random", seed=seed)


# name -> generator(n, d, seed); Halton ignores the seed
GENERATORS = {
    "halton": lambda n, d, seed: halton(n, d),
    "randomized-lhs": randomized_lhs,
    "uniform-random": uniform_random,
}


def marginal_fill_distance(design: Design, j: int, grid: int = 10001) -> float:
    """Worst gap of the design's j-th coordinate projection, on a grid.

    Approximates sup over t in [0, 1] of the distance from t to the nearest
    j-th coordinate by maximizing over ``grid`` equispaced points; the
    approximation error is at most 1/(2 grid).  See
    :func:`marginal_fill_distance_exact` for the closed-form 1-d value.
    """
    coords = _check_coord(design, j)
    ts = np.linspace(0.0, 1.0, grid)
    dists = np.min(np.abs(ts[:, None] - coords[None, :]), axis=1)
    return float(np.max(dists))


def marginal_fill_distance_exact(design: Design, j: int) -> float:
    """Exact sup over [0, 1] of the distance to the nearest j-th coordinate."""
    coords = np.sort(_check_coord(design, j))
    gaps = [coords[0] - 0.0, 1.0 - coords[-1]]
    if coords.size > 1:
        gaps.append(float(np.max(np.diff(coords))) / 2.0)
    return float(max(gaps))


def _check_coord(design: Design, j: int) -> np.ndarray:
    if not 0 <= j < design.d:
        raise DomainError(f"coordinate index {j} out of range for d={design.d}")
    return design.points[:, j]


def moment_matrix(design: Design, m: int) -> np.ndarray:
    """The (m d + 1) x n matrix whose columns are (1, x1, .., x1^m, x2, ..)."""
    X = design.points
    n, d = X.shape
    rows = [np.ones(n)]
    for j in range(d):
        for p in range(1, m + 1):
            rows.append(X[:, j] ** p)
    return np.vstack(rows)


def regularity_order(design: Design, m: int) -> bool:
    """Whether the order-``m`` moment matrix has full row rank.

    A necessary condition is n >= m d + 1; short designs return False
    immediately.  Rank is decided by singular values against a tolerance
    of 1e-10 times the largest column norm.
    """
    if m < 1:
        raise DomainError("m must be at least 1")
    target = m * design.d + 1
    if design.n < target:
        return False
    V = moment_matrix(design, m)
    tol = 1e-10 * float(np.max(np.linalg.norm(V, axis=0)))
    svals = np.linalg.svd(V, compute_uv=False)
    return int(np.sum(svals > tol)) == target


def distinct_within_points(design: Design) -> bool:
    """Whether every point has pairwise-distinct entries (within a row)."""
    for row in design.points:
        if np.unique(row).size != design.d:
            return False
    return True


def distinct_across_points(design: Design) -> bool:
    """Whether every dimension has pairwise-distinct coordinates (across rows)."""
    for j in range(design.d):
        if np.unique(design.points[:, j]).size != design.n:
            return False
    return True
