"""One-dimensional correlation functions and their multivariate compositions.

The one-dimensional families are the Matérn correlation

    k(t) = s^nu K_nu(s) / (Gamma(nu) 2^(nu-1)),   s = 2 sqrt(nu) phi |t|,

with smoothness ``nu`` and scale ``phi`` (``K_nu`` is the modified Bessel
function of the second kind), and the Gaussian correlation
``exp(-t^2 / (2 phi^2))``.  Half-integer Matérn smoothness uses the exact
exponential-times-polynomial closed forms; other ``nu`` fall back to the
Bessel evaluation, and where that overflows (large ``nu``) to an upward
recurrence in the smoothness.  :meth:`Kernel1d.value_and_derivative` returns the
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

Permuting input coordinates reproduces additive and product results bit
for bit.  The product sorts its per-coordinate values before multiplying.
The additive mean sums them exactly in fixed point, as int64 multiples of
``2^-b`` (:meth:`MultivariateKernel.combine`); integer addition is
associative, so no order changes the sum and nothing needs sorting (the
idea behind reproducible summation, Demmel & Nguyen 2015).

:meth:`MultivariateKernel.cross` fills its m x n output in blocks of query
rows, each holding at most :data:`BLOCK_LAGS` lag entries, so memory is
O(m n + block) rather than O(m n dim).  Every entry is computed by the same
elementwise operations whatever the block, so the result does not depend on
the block size and a batch equals its rows taken one at a time, bit for bit.
:meth:`MultivariateKernel.gram` evaluates each unordered pair once and
mirrors it.

A GP's posterior mean needs only ``cross(X, Z) @ alpha``, and
:meth:`MultivariateKernel._cross_dot_plan` prepares it once per design and
weights.  An additive kernel is a mean over coordinates, so the sum is
taken per coordinate, before the mean, and no m x n matrix is built.  With
a half-integer Matérn base, ``k`` is ``exp(-s)`` times a polynomial of
degree ``q = nu - 1/2``, so each coordinate's sum splits at the query into
a left and a right sum over the sorted design, and each side is a
polynomial in the distance to the nearest design value, whose coefficients
are built once by a doubling scan (:class:`_OneSidedSums`; the
state-space structure of these kernels, Hartikainen & Särkkä 2010,
Foreman-Mackey et al. 2017).  A query then costs a binary search and
``O(q)`` operations per coordinate instead of a pass over the design.
Other additive bases sum the weighted base values over the design in the
row blocks of ``cross``.  The m dim weighted sums are arbitrary reals, so
their mean sorts them instead of using fixed point.
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

# The additive mean sums per-coordinate values in [0, 1] as int64 multiples
# of 2^-b with b = _FIXED_POINT_BITS - ceil(log2 dim), so a sum over dim
# coordinates stays at most 2^62, clear of int64 overflow.
_FIXED_POINT_BITS = 62

# A scaled distance from which exp(-s) is 0 in double precision (it is from
# about 745.2 on).  The one-sided sums clamp larger distances to it, so a
# distance whose polynomial would overflow gives 0, not inf * 0 = nan.
_EXP_UNDERFLOW = 800.0

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


def _matern_at(nu, s, e=None, out=None):
    """Matérn correlation of smoothness ``nu`` at scaled distance ``s >= 0``.

    ``e``, when given, is ``exp(-s)`` already computed by the caller; the
    Bessel form for general ``nu`` does not use it.  ``out``, when given,
    is an array of ``s``'s shape that receives the result, which is
    returned.  Callers run this inside
    ``np.errstate(invalid="ignore", over="ignore")``: for astronomically
    large lags ``s`` overflows, the polynomial with it, while the
    exponential underflows; the value is left as produced (nan) and
    treated as a numeric failure downstream.
    """
    coeffs = _HALF_INTEGER_POLY.get(nu)
    if coeffs is not None:
        # Horner's rule.  An overflowed s = inf must give nan, not the
        # limit 0.  From degree 1 on the chain starts at s * c_last, which
        # is inf there, and inf * exp(-inf) is nan; for finite s it has the
        # bits of (0 * s + c_last) * s.  Only the constant polynomial
        # (nu = 1/2) still needs the 0 * s start to carry the nan.
        if len(coeffs) == 1:
            poly = np.multiply(s, 0.0, out=out)
            poly += coeffs[0]
        else:
            poly = np.multiply(s, coeffs[-1], out=out)
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
    # at a tiny positive s, s^nu underflows to 0 where kv overflows, and the
    # product is nan; there the leading terms of the expansion at 0,
    # 1 - s^2 / (4 (nu - 1)) for nu > 1 and 1 otherwise, are exact to
    # rounding.
    tiny = np.isnan(val) & (s < 1.0)
    if tiny.any():
        limit = 1.0 - s * s / (4.0 * (nu - 1.0)) if nu > 1 else 1.0
        val = np.where(tiny, limit, val)
    # what is left not finite is inf where kv overflows at moderate s (large
    # nu) or s^nu at large s, or nan where s^nu overflows and kv underflows
    # to 0; the upward recurrence gives those entries, and stays nan only
    # where s^2 overflows
    bad = ~np.isfinite(val)
    if bad.any():
        val[bad] = _matern_upward(nu, s[bad])
    # kv underflows to 0 for large s, giving the correct limit, but the
    # ratio can round a hair above 1 near s = 0
    return np.minimum(val, 1.0, out=out)


def _matern_upward(nu, s):
    """Bessel-form Matérn correlation of smoothness ``nu`` at ``s > 0`` by
    the upward recurrence in the smoothness.

    The normalised values ``f_mu = s^mu K_mu(s) / (Gamma(mu) 2^(mu-1))``
    satisfy ``f_(mu+1) = f_mu + s^2 f_(mu-1) / (4 mu (mu - 1))``, from
    ``K_(mu+1) = K_(mu-1) + (2 mu / s) K_mu``.  The recurrence starts from
    the direct form at ``mu0 = nu - floor(nu)`` (1 for whole ``nu``) and
    ``mu0 + 1``, where neither ``s^mu`` nor ``K_mu`` overflows at the lags
    that overflow the direct form at ``nu``.  Every term is positive, so
    nothing cancels.  Where the start values underflow to 0 (``s`` from
    about 700) the result is 0; where ``s`` itself overflowed it stays nan.
    """
    from scipy.special import gamma, kv   # loaded on first use; see the module docstring

    mu = nu - math.floor(nu) or 1.0

    def direct(m):
        return s**m * kv(m, s) / (gamma(m) * 2.0 ** (m - 1.0))

    lower = direct(mu)
    if mu == nu:
        return lower
    upper = direct(mu + 1.0)
    s2 = s * s
    for k in range(1, round(nu - mu)):
        m = mu + k
        lower, upper = upper, upper + s2 * lower / (4.0 * m * (m - 1.0))
    return upper


def _normalizer_is_finite(nu: float) -> bool:
    """Whether the Bessel form's ``gamma(nu) * 2^(nu - 1)`` is a finite double.

    Computed with :mod:`math`, so that building a kernel loads no SciPy.
    """
    try:
        return math.isfinite(math.gamma(nu) * 2.0 ** (nu - 1.0))
    except OverflowError:
        return False


def _scale_constants_ok(nu: float | None, phi: float) -> bool:
    """Whether the doubles that carry ``phi`` into the arithmetic are usable.

    A Gaussian (``nu`` None) divides by ``2 phi^2``, its derivative by
    ``phi^2``; both must be finite and positive.  A Matérn kernel scales
    lags by ``2 sqrt(nu) phi``, which must be finite and positive, and for
    ``nu > 1`` its derivative multiplies by ``2 nu phi^2 / (nu - 1)``,
    which must be finite.  Computed with :mod:`math`, so that building a
    kernel loads no SciPy.
    """
    if nu is None:
        divisors = (phi * phi, 2.0 * phi * phi)
        return all(math.isfinite(c) and c > 0 for c in divisors)
    lag_scale = 2.0 * math.sqrt(nu) * phi
    derivative = 2.0 * nu * (phi * phi) / (nu - 1.0) if nu > 1 else 0.0
    return math.isfinite(lag_scale) and lag_scale > 0 and math.isfinite(derivative)


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
        if not _scale_constants_ok(self.nu, self.phi):
            raise DomainError(
                f"scale phi={self.phi!r} is out of range: the kernel's scale "
                "constant overflows or underflows"
            )

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
            val, der = self._value_and_derivative(t.reshape(1))
            return float(val[0]), float(der[0])
        return self._value_and_derivative(t)

    def _value_and_derivative(self, t: np.ndarray, out: np.ndarray | None = None):
        """The body of :meth:`value_and_derivative` at a float array ``t``
        of lags the caller has already found finite.

        ``out``, when given, is a float array of ``t``'s shape that receives
        the derivative, which is returned in its place: a training step
        writes it straight into its stored derivatives, with the bits of a
        call without ``out``.
        """
        phi = self.phi
        # the temporaries are updated in place: this runs over every lag of
        # a training step
        if self.family == "gaussian":
            val = _gaussian_at(t, phi)
            der = np.divide(t, phi * phi, out=out)
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
            der = _matern_at(nu - 1.0, s, e, out)
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

    def _points(self, X, Z) -> tuple[np.ndarray, np.ndarray]:
        """``X`` and ``Z`` as C-ordered float arrays of ``dim`` columns.

        C order keeps every reduction below on one path whatever the
        caller's layout: an F-ordered query would make numpy sum a block's
        axes in another order, and a batch would no longer match its rows.
        """
        X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)))
        Z = np.ascontiguousarray(np.atleast_2d(np.asarray(Z, dtype=float)))
        if X.shape[1] != self.dim or Z.shape[1] != self.dim:
            raise DomainError(
                f"points must have {self.dim} columns, "
                f"got {X.shape[1]} and {Z.shape[1]}"
            )
        return X, Z

    def _block_rows(self, n: int) -> int:
        """Query rows per block against ``n`` points: at most
        :data:`BLOCK_LAGS` lag entries, at least one row."""
        return max(1, BLOCK_LAGS // max(1, n * self.dim))

    def _block(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Correlations between the rows of ``X`` and of ``Z``, from the
        whole rows x n x dim lag tensor (callers keep it one block)."""
        diffs = X[:, None, :] - Z[None, :, :]
        if self.structure != "isotropic":
            return self.combine(self.base(diffs))
        # a square that overflows leaves an infinite lag, which the base
        # kernel rejects; only the warning is suppressed
        with np.errstate(over="ignore"):
            diffs *= diffs
        return self.base(np.sqrt(np.sum(diffs, axis=-1)))

    def gram(self, X: np.ndarray) -> np.ndarray:
        """Correlation matrix over the rows of ``X`` (shape n x dim).

        Bit-identical to ``cross(X, X)`` at about half its cost: each row
        block is evaluated against its own and the later rows only, and
        mirrored.  The base kernels are exactly even in the lag and every
        structure is exactly 1 at zero lag, so the mirror changes no bit.
        """
        X, _ = self._points(X, X)
        n = X.shape[0]
        out = np.empty((n, n))
        # blocks take more rows as fewer rows remain, so all but the last
        # hold close to BLOCK_LAGS lags; blocks that shrank row by row left
        # glibc's heap fragmented and raised the peak memory of the next
        # training step by about 0.5 MB at n = 400, M = 40
        start = 0
        while start < n:
            stop = start + self._block_rows(n - start)
            block = self._block(X[start:stop], X[start:])
            out[start:, start:stop] = block.T
            out[start:stop, start:] = block
            start = stop
        return out

    def cross(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Cross-correlation matrix: entry (i, j) is k(X[i], Z[j]).

        The rows of ``X`` are taken in blocks of ``BLOCK_LAGS // (n dim)``
        (at least one), so no m x n x dim lag tensor is built: memory is
        O(m n + BLOCK_LAGS).  Each entry goes through the same operations
        whatever its block, so the result is bit-identical to evaluating
        the rows of ``X`` one at a time.
        """
        X, Z = self._points(X, Z)
        out = np.empty((X.shape[0], Z.shape[0]))
        step = self._block_rows(Z.shape[0])
        for start in range(0, X.shape[0], step):
            out[start:start + step] = self._block(X[start:start + step], Z)
        return out

    def _cross_dot_plan(self, Z: np.ndarray, weights: np.ndarray):
        """A function ``X -> cross(X, Z) @ weights``, the posterior mean's
        sum over ``Z``, prepared once for repeated calls.

        The kernel alone picks the path.  An additive kernel with a
        half-integer Matérn base answers from sorted one-sided sums
        (:class:`_OneSidedSums`), built here; every other kernel calls
        :meth:`_cross_dot`.  Every path gives a batch the bits of its rows
        taken one at a time.
        """
        _, Z = self._points(Z, Z)
        if self.structure == "additive" and self.base.nu in _HALF_INTEGER_POLY:
            return _OneSidedSums(self, Z, weights)
        return lambda X: self._cross_dot(X, Z, weights)

    def _cross_dot(self, X: np.ndarray, Z: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``cross(X, Z) @ weights`` for a kernel without one-sided sums:
        an isotropic or product kernel, or an additive one with a Gaussian
        or Bessel-form Matérn base.

        An additive kernel is a mean over coordinates, so the sum is taken
        per coordinate first: in the row blocks of :meth:`cross`, the base
        values are weighted along the design axis and summed over it, and
        only each row's ``dim`` sums are sorted and averaged.  No m x n
        matrix is built, and the result agrees with
        ``cross(X, Z) @ weights`` to rounding.
        """
        X, Z = self._points(X, Z)
        if self.structure != "additive":
            return np.einsum("ij,j->i", self.cross(X, Z), weights)
        out = np.empty(X.shape[0])
        step = self._block_rows(Z.shape[0])
        # weights from a damaged model file can overflow the coordinate
        # sums; the result is left as produced, with no warning, as the
        # einsum of the other structures leaves it
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, X.shape[0], step):
                vals = self.base(X[start:start + step, None, :] - Z[None, :, :])
                out[start:start + step] = _sorted_mean(np.einsum("rjk,j->rk", vals, weights))
        return out

    def combine(self, values: np.ndarray) -> np.ndarray:
        """Product or additive correlation from per-coordinate base values.

        ``values`` holds the base correlation of each coordinate along its
        last axis, in ``[0, 1]`` or nan.  The result does not depend on the
        order of the coordinates, bit for bit.  The product sorts the values
        before multiplying.  The additive mean sums them exactly in fixed
        point: each value is scaled by ``2^b``, ``b = 62 - ceil(log2 dim)``,
        truncated to an int64 and summed, which no order can change, since
        integer addition is associative and ``dim 2^b <= 2^62`` cannot
        overflow; the sum is then divided by ``dim 2^b``.  Each entry is
        within ``2^-b`` of the exact mean before that last rounding, all
        ones give exactly 1, and a nan value makes its own entry nan.  Not
        used by the isotropic structure, which applies the base to the lag
        norm.
        """
        if self.structure == "product":
            return np.prod(np.sort(values, axis=-1), axis=-1)
        b = _FIXED_POINT_BITS - (self.dim - 1).bit_length()
        scaled = values * float(1 << b)
        # a nan value casts to an arbitrary integer; its entry is set to nan
        # below, so only the cast's warning is suppressed
        with np.errstate(invalid="ignore"):
            fixed = scaled.astype(np.int64)
        out = np.einsum("...k->...", fixed) / float(self.dim << b)
        if np.isnan(np.max(scaled, initial=0.0)):
            out = np.where(np.isnan(scaled).any(axis=-1), np.nan, out)[()]
        return out


def _sorted_mean(sums: np.ndarray) -> np.ndarray:
    """Mean of each row of coordinate sums, summed in sorted order.

    The weighted sums are arbitrary reals, so the mean is made independent
    of the coordinate order by sorting rather than by fixed point.
    """
    return np.sum(np.sort(sums, axis=-1), axis=-1) / sums.shape[-1]


def _carry_moments(L: np.ndarray, D: np.ndarray, h: int) -> None:
    """One step of the doubling scan over one-sided moments ``L`` (moment
    index first, scan position last): each position from ``h`` on adds the
    moments of the position ``h`` back, carried the scaled distance ``D``
    between the two.  Updates ``L`` in place.

    Moment ``i`` of a position is ``sum_j w_j exp(-D_j) D_j^i`` over the
    distances ``D_j`` to it; moving it ``D`` further turns each ``D_j`` into
    ``D + D_j``, so by the binomial theorem the carried moment ``i`` is
    ``exp(-D) sum_l C(i, l) D^(i - l) L_l``, taken here by Horner's rule in
    ``D``.  Moments are updated from the highest down, so each step reads
    only moments it has not yet updated.
    """
    E = np.exp(-D)
    for i in range(L.shape[0] - 1, -1, -1):
        carried = L[0, ..., :-h] * (D if i else E)
        for l in range(1, i + 1):
            carried += L[l, ..., :-h] * math.comb(i, l)
            carried *= D if l < i else E
        L[i, ..., h:] += carried


class _OneSidedSums:
    """``X -> cross(X, Z) @ weights`` for an additive kernel whose base is a
    half-integer Matérn correlation, from sorted one-sided sums.

    The base is ``k = exp(-s) sum_r c_r s^r`` with ``s = c |u - z|``,
    ``c = 2 sqrt(nu) phi`` and degree ``q = nu - 1/2``.  For one
    coordinate, let ``z_a`` be the last of the sorted design values at or
    below a query ``u`` (ties go left) and ``d = c (u - z_a)``.  Every
    ``z_j <= z_a`` lies ``d + D_j`` from ``u``, with ``D_j = c (z_a - z_j)``,
    so the binomial theorem gives

        sum_{j <= a} w_j k(u - z_j) = exp(-d) sum_p d^p P_p(a),
        P_p(a) = sum_i C(i + p, i) c_{i+p} L_i(a),
        L_i(a) = sum_{j <= a} w_j exp(-D_j) D_j^i,

    and the mirror image holds for the design values above ``u``, with
    ``d' = c (z_{a+1} - u)``.  The left moments ``L_i`` of every position
    come from a doubling scan: ``log2 n`` steps, each adding the moments
    ``h`` places back (:func:`_carry_moments`).  The right moments are the
    same scan over the mirrored design ``-z``.  Every factor the scan and
    the query multiply by is non-negative and every exponential is at most
    1, so the rounding error is of order ``eps sum_j |w_j k_j|``, as for a
    direct sum.

    Per side and coordinate, table column ``j + 1`` holds scan position
    ``j`` (the left side runs up the sorted design, the right side down
    it), and column 0 stands for an empty side: coefficients 0, an
    infinitely distant design value.  A branch-free binary search over the
    sorted design counts, for every entry of a block at once and exactly,
    the design values at or below the query, which gives both columns.
    Queries are taken in blocks of at most ``BLOCK_LAGS / 2`` entries over
    both sides, and each entry goes through the same elementwise operations
    whatever its block, so a batch equals its rows taken one at a time,
    bit for bit.
    """

    def __init__(self, kernel: MultivariateKernel, Z: np.ndarray, weights):
        coeffs = _HALF_INTEGER_POLY[kernel.base.nu]
        q = len(coeffs) - 1
        c = 2.0 * np.sqrt(kernel.base.nu) * kernel.base.phi
        n, dim = Z.shape
        self.kernel = kernel
        self.lo, self.hi = np.min(Z, axis=0), np.max(Z, axis=0)
        order = np.argsort(Z, axis=0, kind="stable")
        zs = np.take_along_axis(Z, order, axis=0).T
        ws = np.asarray(weights, dtype=float)[order].T
        # [moment, side, coordinate, column]; side 1 scans the mirror image
        # -z of the design upward, which is the design downward
        L = np.zeros((q + 1, 2, dim, n + 1))
        L[0, 0, :, 1:] = ws
        L[0, 1, :, 1:] = ws[:, ::-1]
        scan_z = np.stack([zs, -zs[:, ::-1]])
        # a damaged model file may hold non-finite design values or
        # weights; they leave non-finite tables, and __call__ rejects the
        # lags or leaves the sums as produced
        with np.errstate(over="ignore", invalid="ignore"):
            h = 1
            while h < n:
                D = scan_z[..., h:] - scan_z[..., :-h]
                D *= c
                np.minimum(D, _EXP_UNDERFLOW, out=D)
                _carry_moments(L[..., 1:], D, h)
                h *= 2
            # fold the moments into the coefficients P_p in place: P_p reads
            # L_0 .. L_{q-p}, so P_p (p >= 1) takes the place of L_{q-p+1},
            # which no later P reads, and P_0 that of L_0 last
            P0 = L[0] * coeffs[0]
            for i in range(1, q + 1):
                P0 += L[i] * coeffs[i]
            for p in range(1, q + 1):
                P = L[0] * coeffs[p]
                for i in range(1, q + 1 - p):
                    P += L[i] * (coeffs[i + p] * math.comb(i + p, i))
                L[q - p + 1] = P
            L[0] = P0
        self.coef = L.reshape(q + 1, -1)
        # places of P_q, P_{q-1}, ..., P_0, for Horner's rule
        self.horner = [*range(1, q + 1), 0]
        z_tab = np.empty((2, dim, n + 1))
        z_tab[0, :, 0], z_tab[1, :, 0] = -np.inf, np.inf
        z_tab[0, :, 1:] = zs
        z_tab[1, :, 1:] = zs[:, ::-1]
        self.z_tab = z_tab.reshape(-1)
        # the search runs over rows of N = 2^k > n values, padded with inf
        N = 1 << n.bit_length()
        search = np.full((dim, N), np.inf)
        search[:, :n] = zs
        self.search = search.reshape(-1)
        self.halves = [1 << k for k in reversed(range(n.bit_length()))]
        self.row0 = np.arange(dim) * N
        # a coordinate's search position row0 + a (a design values at or
        # below the query) maps to left column a and right column n - a
        col0 = np.arange(dim) * (n + 1)
        self.left_shift = self.row0 - col0
        self.right_base = dim * (n + 1) + col0 + n + self.row0
        # scales (z - u) to d on the left and to d' on the right
        self.scale = np.array([-c, c])[:, None, None]

    def __call__(self, X) -> np.ndarray:
        X, _ = self.kernel._points(X, X)
        m, dim = X.shape
        out = np.empty(m)
        if m == 0:
            return out
        with np.errstate(over="ignore", invalid="ignore"):
            # the largest lag of each coordinate is one of these two, so
            # every lag is finite exactly when both are
            span = np.maximum(np.max(X, axis=0) - self.lo, self.hi - np.min(X, axis=0))
            if not np.all(np.isfinite(span)):
                raise DomainError("kernel lag must be finite")
            # a block's (2, rows, dim) temporaries hold at most BLOCK_LAGS / 2
            # entries: with twice that, a warm process serving 1000-row
            # requests on an n = 40, dim = 35 model gave the freed blocks
            # back to the system after every request and took about 190
            # minor page faults per request instead of about 0
            step = max(1, BLOCK_LAGS // (4 * dim))
            for start in range(0, m, step):
                x = X[start:start + step]
                row = np.repeat(self.row0[None, :], x.shape[0], axis=0)
                for h in self.halves:
                    row += (self.search[h - 1:].take(row) <= x) * h
                col = np.empty((2, *x.shape), dtype=row.dtype)
                np.subtract(row, self.left_shift, out=col[0])
                np.subtract(self.right_base, row, out=col[1])
                d = self.z_tab.take(col)
                d -= x
                d *= self.scale
                np.minimum(d, _EXP_UNDERFLOW, out=d)
                acc = self.coef[self.horner[0]].take(col)
                for p in self.horner[1:]:
                    acc *= d
                    acc += self.coef[p].take(col)
                np.negative(d, out=d)
                acc *= np.exp(d, out=d)
                out[start:start + step] = _sorted_mean(acc[0] + acc[1])
        return out
