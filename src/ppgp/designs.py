"""Experimental designs on the unit cube and their projection fill distance.

Generators: Halton sequences (radical inverse in successive prime bases,
starting at index 1, no scrambling, so runs are bit-reproducible),
randomized Latin hypercubes (one point uniformly placed per axis stratum),
and plain uniform sampling.

Diagnostic: per-coordinate fill distance, how well a design's j-th
projection covers [0, 1], in closed form and as a grid reference.
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
]

_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


@dataclass(frozen=True)
class Design:
    """An n x d matrix of input sites in [0, 1]^d, and nothing else.

    The generators return this wrapper only because ``perfbench`` reads
    ``.points`` from it; every function of the package takes the array.
    """

    points: np.ndarray


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
    return Design(points=pts)


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
    return Design(points=pts)


def uniform_random(n: int, d: int, seed: int) -> Design:
    """n i.i.d. uniform points in the unit cube."""
    if n < 1 or d < 1:
        raise DomainError("n and d must be at least 1")
    rng = np.random.default_rng(seed)
    return Design(points=rng.random((n, d)))


# name -> generator(n, d, seed); Halton ignores the seed
GENERATORS = {
    "halton": lambda n, d, seed: halton(n, d),
    "randomized-lhs": randomized_lhs,
    "uniform-random": uniform_random,
}


def marginal_fill_distance(points: np.ndarray, j: int) -> float:
    """Worst gap of the n x d design's j-th coordinate projection, on a grid.

    Approximates sup over t in [0, 1] of the distance from t to the nearest
    j-th coordinate by maximizing over 10001 equispaced points; the
    approximation error is at most 1/20002.  The reference that
    :func:`marginal_fill_distance_exact`, the closed-form 1-d value, is
    tested against.
    """
    coords = _check_coord(points, j)
    ts = np.linspace(0.0, 1.0, 10001)
    dists = np.min(np.abs(ts[:, None] - coords[None, :]), axis=1)
    return float(np.max(dists))


def marginal_fill_distance_exact(points: np.ndarray, j: int) -> float:
    """Exact sup over [0, 1] of the distance to the nearest j-th coordinate."""
    coords = np.sort(_check_coord(points, j))
    gaps = [coords[0] - 0.0, 1.0 - coords[-1]]
    if coords.size > 1:
        gaps.append(float(np.max(np.diff(coords))) / 2.0)
    return float(max(gaps))


def _check_coord(points: np.ndarray, j: int) -> np.ndarray:
    if not 0 <= j < points.shape[1]:
        raise DomainError(f"coordinate index {j} out of range for d={points.shape[1]}")
    return points[:, j]

