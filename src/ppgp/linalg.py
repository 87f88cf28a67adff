"""Dense SPD linear algebra: Cholesky with a jitter ladder, a pivoted
low-rank Cholesky, solves, log-det.

Every factorization in the package runs here: no other module calls
LAPACK or ``numpy.linalg``, or maps a LAPACK ``info`` code to an error.
Everything is dense and delegated to LAPACK; the models built on it
typically have n <= 100 training points, where the fixed cost of a call
outweighs its arithmetic, so the helpers call the routines directly:

* :func:`cholesky_with_jitter` factors a column-major copy of ``A + delta I``
  in place with ``dpotrf`` from ``scipy.linalg.lapack``.
* :func:`pivoted_cholesky` factors a positive semidefinite ``A`` with
  ``dpstrf`` from the same module, stopping at the numerical rank, so
  the factor needs no jitter.  The rate checks draw prior paths through
  it.  On 2 vCPUs, the 4246-point joint Gram of a default run (Matérn
  2.5, d = 2) factored in 0.3-0.6 s additive (rank 281) and 1.1 s
  isotropic (full rank), where numpy's ``eigh`` took 8.5 and 9.1 s; the
  factor reproduced the matrix within 1.1e-14, ``eigh`` within 1.1e-12.
  It rejects an indefinite ``A``, which ``dpstrf`` does not report.
* :func:`solve_spd` calls ``dpotrs`` from the same module.  This is what
  ``scipy.linalg.cho_solve`` does, without its argument checks, and gives
  the same bits.  The factor is column-major, so f2py passes it to
  ``dpotrs`` without a copy.
* :func:`inverse_spd` gives the lower triangle of the inverse, all that
  a training step reads; it is not public.  From :data:`POTRI_MIN_N`
  rows up it calls ``dpotri``, which inverts the factor in about n^3 / 3
  flops where ``dpotrs`` against the identity takes about 2 n^3.  On 2
  vCPUs (medians of 150-400 calls) ``dpotri`` took 1.4 ms against 2.9 ms
  at n = 300 and 0.35 against 0.41 ms at n = 160, but 0.19 against
  0.16 ms at n = 100, 65 against 45 us at n = 64 and 29 against 23 us at
  n = 32, and inside a training at small n it cost more than that.
  Below it, the inverse is ``L^-T L^-1``: ``dtrtri`` inverts the factor
  and ``dsyrk`` (``scipy.linalg.blas``, ``trans=1``) writes the lower
  triangle of the product.  At n = 32 that took 5 + 6 us on one thread,
  where ``dpotrs`` against the identity took 21.6 us at 1.99 CPU seconds
  per wall second, and 26 + 14 against 52 us at n = 64; the two agree
  within 8e-16 relative.
* :func:`logdet` sums the logs of the factor's diagonal.

The factor and the solves run in one library on purpose.  numpy and scipy
each bundle their own OpenBLAS, each with its own pool of worker threads
that spin while they wait for work, and both pools go parallel well below
the sizes a training reaches: over 300 calls on 2 vCPUs, numpy's
``cholesky`` and scipy's ``dpotrf`` each used 1.98 CPU seconds per wall
second at n = 400 (1.00 at n = 32), and ``dpotrs`` against the identity
1.49 at n = 32 and 1.98 at n = 400.  A training step that factors in
numpy and inverts in scipy keeps both pools spinning against each other.
With everything in scipy, one n = 400, M = 40 step of
:func:`ppgp.pursuit.loss_and_gradient` went from a median of 117 ms to
77 ms on that machine, and in a traced 20-epoch n = 400 training the
factor went from 6.2 to 2.6 ms a call and the inverse from 13.7 to
5.9 ms, with the same calls and the same lag count.  No thread count is
set: the gain is contention removed, not work skipped.  From n = 12 up
(numpy 2.4, scipy 1.17) scipy's factor differs from numpy's in the last
bits, so loss traces and stored models carry ``dpotrf``'s bits.

A small-n step wakes neither pool.  A probe of scipy 1.17's OpenBLAS on
2 vCPUs at every n from 2 to 127 found ``dpotrf``, ``dtrtri`` and
``dpotrs`` (one right-hand side) on the calling thread throughout, and
``dsyrk`` on it up to n = 75, parallel at 76-91 and 97-127.  So up to
75 rows every call on a step's path runs on one thread: whole
:func:`ppgp.pursuit.loss_and_gradient` steps at (n, d, M) = (32, 8, 35),
(40, 8, 35), (64, 8, 40), (64, 20, 59) and (75, 20, 70) used 1.00 CPU
second per wall second, where they used 1.95-1.98 while the inverse was
``dpotrs`` against the identity.

``scipy.linalg`` is imported inside the functions that call LAPACK, on
the first factor, not with this module.  Loading it pulls in SciPy's
array-API layer (among others ``numpy.testing`` and ``numpy.f2py``),
which more than doubles the start-up of a command that never factors a
matrix, such as ``ppgp predict``.  Once loaded, the import statement is
a lookup in ``sys.modules``, under a microsecond against the tens of
microseconds of a factor or a solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError

__all__ = [
    "CholFactor",
    "cholesky_with_jitter",
    "pivoted_cholesky",
    "solve_spd",
    "logdet",
]

SYMMETRY_TOL = 1e-10
JITTER_MAX = 1e-2
# first rung of the ladder when the caller starts from exactly zero
JITTER_FLOOR = 1e-10
# the pivoted factor stops once the largest remaining diagonal entry of
# the Schur complement is at most this
PIVOT_TOL = 1e-14
# inverse_spd inverts through dpotri from this many rows up, and below it
# through dtrtri and dsyrk, which are faster there (see the module docstring)
POTRI_MIN_N = 128


@dataclass(frozen=True)
class CholFactor:
    """Lower Cholesky factor of ``A + jitter_used * I``."""

    lower: np.ndarray
    jitter_used: float

    @property
    def n(self) -> int:
        return self.lower.shape[0]


def _lower_source(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Check that ``A`` is square, finite and symmetric within
    ``SYMMETRY_TOL``; return the array whose lower triangle LAPACK should
    read, and ``max |A - A^T|``.

    When ``A`` equals its transpose, ``A.T`` is the same matrix, and for a
    row-major ``A`` it is the column-major one, so a column-major copy of
    it is a plain copy, not a transposing one, and none is needed when
    LAPACK may overwrite it.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SingularMatrixError(f"expected a square matrix, got {A.shape}")
    if A.size and not np.isfinite(A).all():
        raise SingularMatrixError("matrix contains non-finite entries")
    # A finite matrix equal to its transpose has max |A - A^T| = 0, which
    # passes the tolerance; only an asymmetric one needs the scans
    if (A == A.T).all():
        return (A.T if A.flags.c_contiguous else A), 0.0
    asym = float(np.max(np.abs(A - A.T)))
    if asym > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(A)))):
        raise SingularMatrixError(
            f"matrix is not symmetric: max |A - A^T| entry is {asym:.3e}"
        )
    return A, asym


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
    src, asym = _lower_source(A)
    if not (math.isfinite(delta0) and delta0 >= 0):
        raise SingularMatrixError(f"delta0 must be finite and non-negative (got {delta0})")

    from scipy.linalg.lapack import dpotrf   # loaded on first use; see the module docstring

    delta = float(delta0)
    while True:
        shifted = np.array(src, order="F")
        shifted.flat[:: src.shape[0] + 1] += delta      # A + delta * I
        L, info = dpotrf(shifted, lower=1, clean=1, overwrite_a=1)
        if info < 0:
            raise SingularMatrixError(f"dpotrf rejected argument {-info}")
        if info == 0:
            return CholFactor(lower=L, jitter_used=delta)
        # info > 0: the leading minor of order info is not positive definite
        if delta >= JITTER_MAX:
            raise SingularMatrixError(
                f"cholesky failed for {src.shape[0]}x{src.shape[0]} matrix even "
                f"at jitter {JITTER_MAX:g}; max |A - A^T| entry is {asym:.3e}"
            )
        delta = JITTER_FLOOR if delta == 0.0 else min(delta * 10.0, JITTER_MAX)


def pivoted_cholesky(A: np.ndarray) -> np.ndarray:
    """Low-rank factor ``F`` (N x rank) of a positive semidefinite ``A``,
    with ``F @ F.T == A`` up to rounding and no jitter.

    ``dpstrf`` pivots on the largest remaining diagonal entry and stops
    once that entry is at most ``PIVOT_TOL``, so the rank is the number of
    pivots taken.  A rank below N (``info > 0``) is a result, not an
    error: the Gram matrix of a dense design is numerically singular,
    and the additive one of a default ``ppgp theory-check`` has rank 281
    of 4246.  ``dpstrf`` also stops early on an indefinite matrix, so the
    diagonal the factor leaves out, ``diag(A) - rowsum(F^2)``, is checked:
    a semidefinite ``A`` leaves at most ``PIVOT_TOL`` there, up to
    rounding, and any entry below ``-N PIVOT_TOL max|diag(A)|`` is an
    error.  An indefinite matrix whose remaining diagonal is zero, such
    as ``[[0, 1], [1, 0]]``, passes this check.

    ``A`` is used as workspace and may be overwritten; pass a copy to
    keep it.

    Raises
    ------
    SingularMatrixError
        If ``A`` is not square, finite and symmetric within ``1e-10``,
        ``dpstrf`` rejects an argument, or the left-out diagonal shows
        ``A`` to be indefinite.
    """
    src, _ = _lower_source(A)
    from scipy.linalg.lapack import dpstrf   # loaded on first use; see the module docstring

    n = src.shape[0]
    diag = src.diagonal().copy()                      # dpstrf overwrites it
    c, piv, rank, info = dpstrf(np.asfortranarray(src), tol=PIVOT_TOL, lower=1, overwrite_a=1)
    if info < 0:
        raise SingularMatrixError(f"dpstrf rejected argument {-info}")
    # dpstrf factors P^T A P = L L^T with P[piv[k] - 1, k] = 1, so A = (P L)(P L)^T,
    # and row k of L is row piv[k] - 1 of P L; c holds L below its diagonal
    F = np.empty((n, rank))
    F[piv - 1] = np.tril(c[:, :rank])
    worst = float(np.min(diag - np.einsum("ij,ij->i", F, F), initial=0.0))
    if worst < -n * PIVOT_TOL * float(np.max(np.abs(diag), initial=0.0)):
        raise SingularMatrixError(
            f"matrix is not positive semidefinite: a diagonal entry is "
            f"{worst:.3e} beyond the rank-{rank} factor"
        )
    return F


def solve_spd(F: CholFactor, b: np.ndarray) -> np.ndarray:
    """Solve ``(A + jitter * I) x = b`` from the factor, via two triangular solves.

    ``b`` is a vector or a matrix of finite right-hand sides, with ``F.n``
    rows; an empty ``b`` returns an empty result.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != F.n:
        raise SingularMatrixError(
            f"right-hand side has length {b.shape[0]}, factor is {F.n}x{F.n}"
        )
    if not np.isfinite(b).all():
        raise SingularMatrixError("right-hand side contains non-finite entries")
    if b.size == 0:
        # dpotrs rejects a 0 x 0 factor
        return np.empty(b.shape)
    from scipy.linalg.lapack import dpotrs   # loaded on first use; see the module docstring

    x, info = dpotrs(F.lower, b, lower=True)
    if info != 0:
        raise SingularMatrixError(f"dpotrs rejected argument {-info}")
    return x


def logdet(F: CholFactor) -> float:
    """Log-determinant of the factored matrix: ``2 sum(log(diag(L)))``."""
    return float(2.0 * np.sum(np.log(np.diag(F.lower))))


def inverse_spd(F: CholFactor) -> np.ndarray:
    """An n x n column-major array whose lower triangle, diagonal included,
    holds the inverse of the factored matrix (n >= 1).

    From :data:`POTRI_MIN_N` rows up ``dpotri`` writes that triangle;
    below it ``dsyrk`` writes the lower triangle of ``L^-T L^-1`` from
    ``dtrtri``'s ``L^-1``.  Neither fills the upper triangle with the
    inverse: read the lower triangle only.
    """
    from scipy.linalg.blas import dsyrk      # loaded on first use; see the module docstring
    from scipy.linalg.lapack import dpotri, dtrtri

    if F.n >= POTRI_MIN_N:
        inv, info = dpotri(F.lower, lower=1)
    else:
        # dpotrf's factor is clean above its diagonal, and so is L^-1
        inv, info = dtrtri(F.lower, lower=1)
        if info == 0:
            inv = dsyrk(1.0, inv, trans=1, lower=1)
    if info != 0:
        # info > 0 would be a zero on the factor's diagonal, which dpotrf
        # does not return
        raise SingularMatrixError(f"inverting the factor failed with info {info}")
    return inv
