"""One-dimensional correlation functions and their multivariate compositions.

The one-dimensional families are the Matérn correlation

    k(t) = s^nu K_nu(s) / (Gamma(nu) 2^(nu-1)),   s = 2 sqrt(nu) phi |t|,

with smoothness ``nu`` and scale ``phi`` (``K_nu`` is the modified Bessel
function of the second kind), and the Gaussian correlation
``exp(-t^2 / (2 phi^2))``.  Half-integer Matérn smoothness uses the exact
exponential-times-polynomial closed forms; other ``nu`` fall back to the
Bessel evaluation.  :meth:`Kernel1d.value_and_derivative` returns the
correlation and its lag derivative together, sharing one ``exp`` where the
closed forms allow.

The Bessel branch imports ``scipy.special`` on its first call, not this
module: no half-integer or Gaussian kernel needs it, and loading SciPy more
than doubles the start-up of a short command such as ``ppgp predict``.

Multivariate structures compose a single 1-d base correlation over the
coordinates of the lag ``x - y``:

* ``isotropic`` applies the base to the Euclidean norm of the lag,
* ``product`` multiplies the per-coordinate values,
* ``additive`` averages the per-coordinate values.

Additive and product reductions sort their per-coordinate values before
reducing, so permuting input coordinates reproduces bit-identical results.

:meth:`MultivariateKernel.cross` fills its m x n output in blocks of query
rows, each holding at most :data:`BLOCK_LAGS` lag entries, so memory is
O(m n + block) rather than O(m n dim).  Every entry is computed by the same
elementwise operations whatever the block, so the result does not depend on
the block size and a batch equals its rows taken one at a time, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Kernel1d",
    "MultivariateKernel",
    "matern",
    "gaussian",
    "STRUCTURES",
]

STRUCTURES = ("isotropic", "product", "additive")

# Lag entries (rows x n x dim) per block of MultivariateKernel.cross: each
# float64 temporary of a block is at most 128 KiB, small enough to stay in
# cache.
BLOCK_LAGS = 1 << 14

# exp(-s) * polynomial(s) coefficients for half-integer smoothness,
# lowest order first; s = 2 sqrt(nu) phi |t|
_HALF_INTEGER_POLY = {
    0.5: (1.0,),
    1.5: (1.0, 1.0),
    2.5: (1.0, 1.0, 1.0 / 3.0),
    3.5: (1.0, 1.0, 2.0 / 5.0, 1.0 / 15.0),
}


def _gaussian_at(t, phi):
    """Gaussian correlation ``exp(-t^2 / (2 phi^2))``, in one temporary."""
    # t*t overflows for astronomically large lags; exp of the resulting
    # -inf is the correct limit 0, so only the warning is suppressed.
    with np.errstate(over="ignore"):
        val = np.multiply(t, t, out=np.empty_like(t))
        np.negative(val, out=val)
        val /= 2.0 * phi * phi
        np.exp(val, out=val)
    return val


def _finite_lags(t) -> np.ndarray:
    """``t`` as a float array; a lag that is not finite is a domain error."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise DomainError("kernel lag must be finite")
    return t


def _matern_at(nu, s, e=None):
    """Matérn correlation of smoothness ``nu`` at scaled distance ``s >= 0``.

    ``e``, when given, is ``exp(-s)`` already computed by the caller; the
    Bessel form for general ``nu`` does not use it.  Callers run this
    inside ``np.errstate(invalid="ignore", over="ignore")``: for
    astronomically large lags ``s`` overflows, the polynomial with it,
    while the exponential underflows; the value is left as produced (nan)
    and treated as a numeric failure downstream.
    """
    coeffs = _HALF_INTEGER_POLY.get(nu)
    if coeffs is not None:
        # Horner's rule.  An overflowed s = inf must give nan, not the
        # limit 0.  From degree 1 on the chain starts at s * c_last, which
        # is inf there, and inf * exp(-inf) is nan; for finite s it has the
        # bits of (0 * s + c_last) * s.  Only the constant polynomial
        # (nu = 1/2) still needs the 0 * s start to carry the nan.
        if len(coeffs) == 1:
            poly = s * 0.0
            poly += coeffs[0]
        else:
            poly = s * coeffs[-1]
            poly += coeffs[-2]
            for c in reversed(coeffs[:-2]):
                poly *= s
                poly += c
        poly *= np.exp(-s) if e is None else e
        return poly
    # general smoothness via the Bessel form; the s -> 0 limit is 1
    from scipy.special import gamma, kv   # loaded on first use; see the module docstring

    val = s**nu * kv(nu, s) / (gamma(nu) * 2.0 ** (nu - 1.0))
    val = np.where(s == 0.0, 1.0, val)
    # kv underflows to 0 for large s, giving the correct limit, but the
    # ratio can round a hair above 1 near s = 0
    return np.minimum(val, 1.0)


def _normalizer_is_finite(nu: float) -> bool:
    """Whether the Bessel form's ``gamma(nu) * 2^(nu - 1)`` is a finite double.

    Computed with :mod:`math`, so that building a kernel loads no SciPy.
    """
    try:
        return math.isfinite(math.gamma(nu) * 2.0 ** (nu - 1.0))
    except OverflowError:
        return False


@dataclass(frozen=True)
class Kernel1d:
    """A one-dimensional correlation function.

    Parameters
    ----------
    family : str
        ``"matern"`` or ``"gaussian"``.
    nu : float, optional
        Smoothness of the Matérn family; must be positive and finite.
        Unused for the Gaussian family, which stores it as None.
    phi : float
        Scale parameter; must be positive and finite.  Defaults to 1.
    """

    family: str
    nu: float | None = None
    phi: float = 1.0

    def __post_init__(self):
        if self.family not in ("matern", "gaussian"):
            raise DomainError(f"unknown kernel family {self.family!r}")
        if self.family == "gaussian":
            object.__setattr__(self, "nu", None)
        elif self.nu is None or not (math.isfinite(self.nu) and self.nu > 0):
            raise DomainError("matern smoothness nu must be positive and finite")
        elif not _normalizer_is_finite(self.nu):
            raise DomainError(
                f"matern smoothness nu={self.nu!r} is out of range: the Bessel "
                "normalizer gamma(nu) * 2^(nu - 1) overflows"
            )
        if not (math.isfinite(self.phi) and self.phi > 0):
            raise DomainError("scale phi must be positive and finite")

    @property
    def differentiable(self) -> bool:
        """Whether :meth:`value_and_derivative` is available for this kernel."""
        return self.family == "gaussian" or self.nu > 1

    def _scaled(self, t):
        """Matérn's ``s = 2 sqrt(nu) phi |t|``, under the caller's errstate."""
        s = np.abs(t)
        s *= 2.0 * np.sqrt(self.nu) * self.phi
        return s

    def __call__(self, t):
        """Evaluate the correlation at lag(s) ``t``.

        Accepts scalars or arrays; returns the same shape.  Values lie in
        ``[0, 1]`` with ``k(0) = 1`` exactly.
        """
        t = _finite_lags(t)
        if self.family == "gaussian":
            out = _gaussian_at(t, self.phi)
        else:
            with np.errstate(invalid="ignore", over="ignore"):
                out = _matern_at(self.nu, self._scaled(t))
        return out if out.ndim else float(out)

    def value_and_derivative(self, t):
        """:meth:`__call__` and :meth:`derivative` at the same lags ``t``.

        The value is bit-identical to :meth:`__call__`.  Gaussian and
        half-integer Matérn kernels share one ``exp`` between the two
        outputs.  The Matérn derivative
        ``-(2 nu phi^2 t / (nu - 1)) k_{nu-1}(sqrt(nu / (nu - 1)) t)``
        evaluates the smoothness ``nu - 1`` correlation at the same scaled
        distance ``s``, so it requires ``nu > 1``.
        """
        t = _finite_lags(t)
        if t.ndim == 0:
            val, der = self.value_and_derivative(t.reshape(1))
            return float(val[0]), float(der[0])
        phi = self.phi
        # the temporaries are updated in place: this runs over every lag of
        # a training step
        if self.family == "gaussian":
            val = _gaussian_at(t, phi)
            der = t / (phi * phi)
            np.negative(der, out=der)
            der *= val
            return val, der
        nu = self.nu
        if not self.differentiable:
            raise DomainError(f"matern derivative requires nu > 1 (got nu={nu})")
        with np.errstate(invalid="ignore", over="ignore"):
            s = self._scaled(t)
            e = None
            if nu in _HALF_INTEGER_POLY or nu - 1.0 in _HALF_INTEGER_POLY:
                e = np.negative(s)
                np.exp(e, out=e)
            val = _matern_at(nu, s, e)
            der = _matern_at(nu - 1.0, s, e)
            der *= t
            der *= -2.0 * nu * phi**2 / (nu - 1.0)
        return val, der

    def derivative(self, t):
        """Derivative of :meth:`__call__` with respect to the lag.

        Odd function of ``t``: zero at the origin, negative for ``t > 0``.
        The second output of :meth:`value_and_derivative`.
        """
        return self.value_and_derivative(t)[1]


def matern(nu: float, phi: float = 1.0) -> Kernel1d:
    """Matérn correlation with smoothness ``nu`` and scale ``phi``."""
    return Kernel1d("matern", nu=nu, phi=phi)


def gaussian(phi: float = 1.0) -> Kernel1d:
    """Gaussian correlation with scale ``phi``."""
    return Kernel1d("gaussian", phi=phi)


@dataclass(frozen=True)
class MultivariateKernel:
    """A 1-d correlation composed over ``dim`` input coordinates.

    ``structure`` is one of ``"isotropic"``, ``"product"``, ``"additive"``.
    All structures return exactly 1 at zero lag.
    """

    base: Kernel1d
    structure: str
    dim: int

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise DomainError(f"unknown kernel structure {self.structure!r}")
        if self.dim < 1:
            raise DomainError("dim must be a positive integer")

    def gram(self, X: np.ndarray) -> np.ndarray:
        """Correlation matrix over the rows of ``X`` (shape n x dim)."""
        return self.cross(X, X)

    def cross(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Cross-correlation matrix: entry (i, j) is k(X[i], Z[j]).

        The rows of ``X`` are taken in blocks of ``BLOCK_LAGS // (n dim)``
        (at least one), so no m x n x dim lag tensor is built: memory is
        O(m n + BLOCK_LAGS).  Each entry goes through the same operations
        whatever its block, so the result is bit-identical to evaluating
        the rows of ``X`` one at a time.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if X.shape[1] != self.dim or Z.shape[1] != self.dim:
            raise DomainError(
                f"points must have {self.dim} columns, "
                f"got {X.shape[1]} and {Z.shape[1]}"
            )
        out = np.empty((X.shape[0], Z.shape[0]))
        step = max(1, BLOCK_LAGS // max(1, Z.shape[0] * self.dim))
        for start in range(0, X.shape[0], step):
            diffs = X[start:start + step, None, :] - Z[None, :, :]
            if self.structure == "isotropic":
                # a square that overflows leaves an infinite lag, which
                # the base kernel rejects; only the warning is suppressed
                with np.errstate(over="ignore"):
                    diffs *= diffs
                out[start:start + step] = self.base(np.sqrt(np.sum(diffs, axis=-1)))
            else:
                out[start:start + step] = self.combine(self.base(diffs))
        return out

    def combine(self, values: np.ndarray) -> np.ndarray:
        """Product or additive correlation from per-coordinate base values.

        ``values`` holds the base correlation of each coordinate along its
        last axis; they are sorted before the reduction, so the result does
        not depend on the order of the coordinates.  Not used by the
        isotropic structure, which applies the base to the lag norm.
        """
        vals = np.sort(values, axis=-1)
        if self.structure == "product":
            return np.prod(vals, axis=-1)
        return np.sum(vals, axis=-1) / self.dim
