"""Tests for the one-dimensional and multivariate correlation kernels.

Hand values come from the closed-form half-integer expressions with
s = 2*sqrt(nu)*phi*|t|; general smoothness values are checked against an
independent arbitrary-precision Bessel evaluation (mpmath); derivatives
are checked against central finite differences of the kernel itself.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special

from ppgp import (
    DomainError,
    Kernel1d,
    MultivariateKernel,
    STRUCTURES,
    gaussian,
    kernel1d_from_config,
    matern,
)
from ppgp.kernels import BLOCK_LAGS


def matern_reference(nu, phi, t):
    """Arbitrary-precision Matern correlation, evaluated independently.

    Computes s^nu * K_nu(s) / (Gamma(nu) * 2^(nu-1)) with s = 2*sqrt(nu)*phi*|t|
    using mpmath, bypassing every code path of the package.
    """
    s = 2.0 * math.sqrt(nu) * phi * abs(t)
    if s == 0.0:
        return 1.0
    with mpmath.workdps(40):
        val = (
            mpmath.mpf(s) ** nu
            * mpmath.besselk(nu, s)
            / (mpmath.gamma(nu) * mpmath.mpf(2) ** (nu - 1))
        )
        return float(val)


def central_difference(k, t, h=1e-5):
    """Central finite difference of a 1D kernel at lag t."""
    return (k(t + h) - k(t - h)) / (2.0 * h)


class TestKernel1dValues:
    """Pointwise values of the 1D correlation families."""

    def test_zero_lag_is_exactly_one(self):
        """Every family returns exactly 1.0 at zero lag."""
        kernels = [
            matern(0.5),
            matern(1.5),
            matern(2.5),
            matern(3.5),
            matern(2.0),
            matern(4.0),
            gaussian(1.0),
            gaussian(0.5),
        ]
        for k in kernels:
            assert k(0.0) == 1.0

    def test_matern_half_is_exponential(self):
        """nu=1/2 collapses to exp(-sqrt(2)*|t|) at phi=1."""
        k = matern(0.5)
        for t in (0.1, 0.5, 1.0, 2.0, 3.0):
            expected = math.exp(-math.sqrt(2.0) * t)
            assert np.isclose(k(t), expected, rtol=1e-12)
        assert np.isclose(k(1.0), 0.2431167344342142, rtol=1e-12)

    def test_matern_three_halves_closed_form(self):
        """nu=3/2 equals (1+s)exp(-s) with s = sqrt(6)*|t|."""
        k = matern(1.5)
        for t in (0.2, 0.7, 1.3, 2.5):
            s = math.sqrt(6.0) * t
            assert np.isclose(k(t), (1.0 + s) * math.exp(-s), rtol=1e-12)

    def test_matern_five_halves_closed_form(self):
        """nu=5/2 equals (1+s+s^2/3)exp(-s) with s = sqrt(10)*|t|."""
        k = matern(2.5)
        s = math.sqrt(10.0)
        expected = (1.0 + s + s * s / 3.0) * math.exp(-s)
        assert np.isclose(k(1.0), expected, rtol=1e-12)
        for t in (0.1, 0.4, 1.7):
            s = math.sqrt(10.0) * t
            expected = (1.0 + s + s * s / 3.0) * math.exp(-s)
            assert np.isclose(k(t), expected, rtol=1e-12)

    def test_matern_seven_halves_closed_form(self):
        """nu=7/2 equals (1+s+2s^2/5+s^3/15)exp(-s) with s = sqrt(14)*|t|."""
        k = matern(3.5)
        for t in (0.3, 0.9, 2.0):
            s = math.sqrt(14.0) * t
            expected = (1.0 + s + 2.0 * s * s / 5.0 + s**3 / 15.0) * math.exp(-s)
            assert np.isclose(k(t), expected, rtol=1e-12)

    def test_gaussian_values(self):
        """Gaussian family is exp(-t^2/(2*phi^2))."""
        assert np.isclose(gaussian(0.5)(0.5), math.exp(-0.5), rtol=1e-15)
        assert np.isclose(gaussian(1.0)(1.0), math.exp(-0.5), rtol=1e-15)
        assert np.isclose(gaussian(2.0)(1.0), math.exp(-0.125), rtol=1e-15)

    def test_phi_scales_the_lag(self):
        """Matern at phi=2 equals the phi=1 kernel at a doubled lag."""
        k1 = matern(2.5, phi=1.0)
        k2 = matern(2.5, phi=2.0)
        for t in (0.2, 0.8, 1.5):
            assert np.isclose(k2(t), k1(2.0 * t), rtol=1e-12)

    def test_general_nu_matches_mpmath_oracle(self):
        """Bessel-branch values agree with an independent mpmath evaluation."""
        for nu in (0.8, 1.2, 2.0, 3.0, 4.0, 4.2):
            k = matern(nu)
            for t in (0.05, 0.3, 1.0, 2.4, 3.0):
                expected = matern_reference(nu, 1.0, t)
                assert np.isclose(k(t), expected, rtol=1e-10), (
                    f"nu={nu}, t={t}: {k(t)} vs mpmath {expected}"
                )

    def test_general_nu_respects_phi(self):
        """Bessel branch honours the range parameter phi."""
        for phi in (0.5, 2.0):
            k = matern(4.0, phi=phi)
            for t in (0.2, 1.1):
                expected = matern_reference(4.0, phi, t)
                assert np.isclose(k(t), expected, rtol=1e-10)

    def test_half_integer_closed_form_agrees_with_bessel_route(self):
        """Closed-form nu=5/2 matches an explicit K_nu evaluation.

        The two routes share no code: the closed form is a polynomial times
        an exponential, the oracle calls scipy's modified Bessel function.
        """
        k = matern(2.5)
        nu = 2.5
        for t in np.linspace(0.1, 3.0, 12):
            s = 2.0 * math.sqrt(nu) * t
            bessel = s**nu * scipy.special.kv(nu, s) / (
                scipy.special.gamma(nu) * 2.0 ** (nu - 1.0)
            )
            assert np.isclose(k(t), bessel, rtol=1e-12)

    def test_bounded_and_even(self):
        """|k(t)| <= 1 and k(t) == k(-t) over many random lags."""
        rng = np.random.default_rng(11)
        lags = rng.uniform(-5.0, 5.0, size=1000)
        for k in (matern(0.5), matern(2.5), matern(4.0), gaussian(0.7)):
            for t in lags:
                v = k(t)
                assert -1.0 <= v <= 1.0
                assert v == k(-t)

    def test_vectorized_evaluation_matches_scalar(self):
        """Array input returns elementwise scalar values."""
        k = matern(2.5)
        ts = np.array([-1.2, -0.3, 0.0, 0.4, 2.0])
        vals = k(ts)
        assert vals.shape == ts.shape
        for t, v in zip(ts, vals):
            assert v == k(float(t))

    def test_construction_rejects_bad_parameters(self):
        """nu <= 0, phi <= 0, non-finite nu or phi, unknown families are rejected."""
        with pytest.raises(DomainError):
            matern(0.0)
        with pytest.raises(DomainError):
            matern(-1.0)
        with pytest.raises(DomainError):
            matern(2.5, phi=0.0)
        with pytest.raises(DomainError):
            gaussian(-0.5)
        with pytest.raises(DomainError):
            Kernel1d(family="cubic")
        with pytest.raises(DomainError):
            Kernel1d(family="matern", nu=None)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                matern(bad)
            with pytest.raises(DomainError):
                matern(2.5, phi=bad)
            with pytest.raises(DomainError):
                gaussian(bad)

    def test_non_finite_lag_rejected(self):
        """Evaluating at nan or inf raises a domain error."""
        k = matern(2.5)
        with pytest.raises(DomainError):
            k(float("nan"))
        with pytest.raises(DomainError):
            k(float("inf"))

    def test_extreme_finite_lag_warns_nothing(self):
        """A lag near the float limit gives the documented limits silently.

        The Matérn scaled distance overflows to inf and the value is nan
        (a numeric failure for the caller to handle); the Gaussian is 0.
        """
        t = np.array([1e308, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (matern(2.5), matern(2.2), matern(1.5, phi=3.0)):
                assert np.isnan(k(t)).all(), f"nu={k.nu}"
                val, der = k.value_and_derivative(t)
                assert np.isnan(val).all() and np.isnan(der).all()
            assert np.array_equal(gaussian(0.5)(t), [0.0, 0.0])

    def test_config_round_trip(self):
        """as_config followed by kernel1d_from_config reproduces the kernel."""
        for k in (matern(2.5, phi=0.7), gaussian(1.3), matern(4.0)):
            k2 = kernel1d_from_config(k.as_config())
            assert k2.family == k.family
            assert k2.nu == k.nu
            assert k2.phi == k.phi
            assert k2(0.37) == k(0.37)


class TestKernel1dDerivative:
    """Derivative of the 1D correlation with respect to the lag."""

    def test_zero_at_origin(self):
        """The derivative of an even function is exactly 0 at t=0."""
        for k in (matern(2.5), matern(1.5), matern(4.0), gaussian(0.5)):
            assert k.derivative(0.0) == 0.0

    def test_gaussian_hand_value(self):
        """Gaussian phi=1 at t=0.5 gives -0.5*exp(-0.125)."""
        k = gaussian(1.0)
        expected = -0.5 * math.exp(-0.125)
        assert np.isclose(k.derivative(0.5), expected, rtol=1e-12)
        assert np.isclose(expected, -0.44124845129229767, rtol=1e-12)

    def test_derivative_is_odd(self):
        """d/dt of an even kernel flips sign with t."""
        rng = np.random.default_rng(3)
        for k in (matern(2.5), gaussian(1.0)):
            for t in rng.uniform(0.05, 3.0, size=200):
                assert k.derivative(-t) == -k.derivative(t)
                assert k.derivative(t) < 0.0

    def test_matern_point_finite_difference_tight(self):
        """nu=5/2, t=0.3: analytic derivative within rel 1e-6 of FD."""
        k = matern(2.5)
        fd = central_difference(k, 0.3)
        an = k.derivative(0.3)
        assert abs(an - fd) <= 1e-6 * abs(fd)

    def test_finite_difference_grid_all_families(self):
        """FD (step 1e-5) matches analytic within rel 1e-4 on t in [-3,3].

        Lags with |t| < 1e-3 are excluded; there the symmetric difference
        loses accuracy against a derivative that vanishes linearly.
        """
        grid = np.arange(-3.0, 3.0 + 1e-9, 0.1)
        grid = grid[np.abs(grid) >= 1e-3]
        kernels = [gaussian(phi) for phi in (0.5, 1.0, 2.0)]
        kernels += [
            matern(nu, phi=phi)
            for nu in (1.5, 2.5, 3.5)
            for phi in (0.5, 1.0, 2.0)
        ]
        kernels += [matern(2.0), matern(4.2)]
        for k in kernels:
            for t in grid:
                fd = central_difference(k, float(t))
                an = k.derivative(float(t))
                denom = max(abs(fd), abs(an), 1e-12)
                assert abs(an - fd) / denom <= 1e-4, (
                    f"{k.family} nu={k.nu} phi={k.phi} t={t}: {an} vs {fd}"
                )

    def test_vectorized_derivative_matches_scalar(self):
        """Array lags give elementwise derivatives."""
        k = matern(2.5)
        ts = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        vals = k.derivative(ts)
        for t, v in zip(ts, vals):
            assert v == k.derivative(float(t))

    def test_value_and_derivative_match_separate_calls(self):
        """The paired evaluation gives __call__'s values bit for bit.

        The derivative shares the value's scaled lag, so it agrees with the
        separate form to rounding; scalars come back as floats.
        """
        ts = np.linspace(-3.0, 3.0, 61)
        kernels = [matern(nu, phi=0.7) for nu in (1.5, 2.5, 3.5, 2.0, 4.2, 4.5)]
        kernels.append(gaussian(0.7))
        for k in kernels:
            val, der = k.value_and_derivative(ts)
            assert np.array_equal(val, k(ts)), f"{k.family} nu={k.nu}"
            assert np.array_equal(der, k.derivative(ts))
            v0, d0 = k.value_and_derivative(0.4)
            assert type(v0) is float and type(d0) is float
            assert v0 == k(0.4) and d0 == k.derivative(0.4)

    def test_low_smoothness_rejected(self):
        """Matern with nu <= 1 has no usable lag derivative."""
        for nu in (0.5, 1.0):
            k = matern(nu)
            assert not k.differentiable
            with pytest.raises(DomainError):
                k.derivative(0.3)

    def test_differentiable_flag(self):
        """Gaussian and nu>1 Matern advertise differentiability."""
        assert gaussian(1.0).differentiable
        assert matern(1.5).differentiable
        assert matern(4.2).differentiable
        assert not matern(0.5).differentiable


class TestMultivariateKernel:
    """Isotropic, product, and additive compositions."""

    def test_structures_constant(self):
        """The advertised structure names are the three supported ones."""
        assert set(STRUCTURES) == {"isotropic", "product", "additive"}

    def test_one_at_zero_lag_all_structures(self):
        """eval(x, x) is exactly 1 for every structure."""
        rng = np.random.default_rng(0)
        x = rng.uniform(size=4)
        for structure in STRUCTURES:
            mk = MultivariateKernel(base=matern(2.5), structure=structure, dim=4)
            assert mk(x, x) == 1.0

    def test_additive_is_mean_of_coordinates(self):
        """Additive value equals the mean of per-coordinate 1D values."""
        rng = np.random.default_rng(1)
        base = matern(2.5)
        mk = MultivariateKernel(base=base, structure="additive", dim=5)
        for _ in range(50):
            x = rng.uniform(size=5)
            y = rng.uniform(size=5)
            expected = np.mean([base(float(t)) for t in x - y])
            assert np.isclose(mk(x, y), expected, rtol=1e-14)

    def test_additive_zero_coordinate_hand_value(self):
        """d=2 lag (0, t) gives (1 + k(t))/2."""
        base = matern(2.5)
        mk = MultivariateKernel(base=base, structure="additive", dim=2)
        for t in (0.2, 0.6, 1.1):
            x = np.array([0.3, 0.1 + t])
            y = np.array([0.3, 0.1])
            assert np.isclose(mk(x, y), 0.5 * (1.0 + base(t)), rtol=1e-14)

    def test_product_identical_coordinates(self):
        """d=3 lag (t, t, t) gives k(t)**3."""
        base = matern(2.5)
        mk = MultivariateKernel(base=base, structure="product", dim=3)
        for t in (0.15, 0.5, 0.9):
            x = np.full(3, 0.05) + t
            y = np.full(3, 0.05)
            assert np.isclose(mk(x, y), base(t) ** 3, rtol=1e-13)

    def test_product_is_product_of_coordinates(self):
        """Product value equals the product of per-coordinate 1D values."""
        rng = np.random.default_rng(2)
        base = gaussian(0.8)
        mk = MultivariateKernel(base=base, structure="product", dim=4)
        for _ in range(50):
            x = rng.uniform(size=4)
            y = rng.uniform(size=4)
            expected = np.prod([base(float(t)) for t in x - y])
            assert np.isclose(mk(x, y), expected, rtol=1e-13)

    def test_isotropic_uses_euclidean_norm(self):
        """Isotropic value is the base kernel at the Euclidean distance."""
        rng = np.random.default_rng(3)
        base = matern(2.5)
        mk = MultivariateKernel(base=base, structure="isotropic", dim=3)
        for _ in range(50):
            x = rng.uniform(size=3)
            y = rng.uniform(size=3)
            assert np.isclose(
                mk(x, y), base(float(np.linalg.norm(x - y))), rtol=1e-13
            )

    def test_symmetry_over_random_pairs(self):
        """eval(x, y) == eval(y, x) bitwise on 1000 random pairs."""
        rng = np.random.default_rng(4)
        kernels = [
            MultivariateKernel(base=matern(2.5), structure=s, dim=3)
            for s in STRUCTURES
        ]
        for _ in range(1000):
            x = rng.uniform(size=3)
            y = rng.uniform(size=3)
            for mk in kernels:
                assert mk(x, y) == mk(y, x)

    def test_gram_positive_definite_with_small_nugget(self):
        """Gram + 1e-8*I factors for all structures at n <= 50."""
        rng = np.random.default_rng(5)
        for structure in STRUCTURES:
            for d, n in ((2, 30), (3, 50), (5, 20)):
                mk = MultivariateKernel(base=matern(2.5), structure=structure, dim=d)
                X = rng.uniform(size=(n, d))
                K = mk.gram(X)
                assert np.array_equal(K, K.T)
                np.linalg.cholesky(K + 1e-8 * np.eye(n))

    def test_gram_matches_pairwise_eval(self):
        """gram(X)[i, j] equals eval(x_i, x_j)."""
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(7, 3))
        for structure in STRUCTURES:
            mk = MultivariateKernel(base=matern(2.5), structure=structure, dim=3)
            K = mk.gram(X)
            for i in range(7):
                for j in range(7):
                    assert K[i, j] == mk(X[i], X[j])

    def test_cross_matches_pairwise_eval(self):
        """cross(A, B)[i, j] equals eval(a_i, b_j)."""
        rng = np.random.default_rng(7)
        A = rng.uniform(size=(4, 2))
        B = rng.uniform(size=(6, 2))
        for structure in STRUCTURES:
            mk = MultivariateKernel(base=gaussian(0.9), structure=structure, dim=2)
            R = mk.cross(A, B)
            assert R.shape == (4, 6)
            for i in range(4):
                for j in range(6):
                    assert R[i, j] == mk(A[i], B[j])

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_row_blocks_change_no_value(self, structure):
        """cross over many row blocks equals cross row by row, bit for bit.

        Shapes: several full blocks ending on a partial one, and an
        ``n * dim`` above the block budget, where every block is one row.
        """
        rng = np.random.default_rng(9)
        for n, dim in ((10, 7), (BLOCK_LAGS // 6 + 1, 6)):
            rows = max(1, BLOCK_LAGS // (n * dim))
            m = 3 * rows + rows // 2 + 1
            X = rng.uniform(size=(m, dim))
            Z = rng.uniform(size=(n, dim))
            mk = MultivariateKernel(base=matern(2.5, phi=0.8),
                                    structure=structure, dim=dim)
            R = mk.cross(X, Z)
            assert R.shape == (m, n)
            by_row = np.vstack([mk.cross(X[i:i + 1], Z) for i in range(m)])
            assert np.array_equal(R, by_row)

    def test_coordinate_permutation_bit_identical(self):
        """Permuting input coordinates leaves additive/product values bitwise equal.

        The per-coordinate values are sorted before the final reduction, so
        the floating-point sum and product see the same operand order.
        """
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(20, 6))
        perm = rng.permutation(6)
        for structure in ("additive", "product"):
            mk = MultivariateKernel(base=matern(2.5), structure=structure, dim=6)
            K = mk.gram(X)
            K_perm = mk.gram(X[:, perm])
            assert np.array_equal(K, K_perm)
        # The isotropic norm accumulates squares in coordinate order, so it
        # is only permutation-invariant up to round-off, not bitwise.
        mk = MultivariateKernel(base=matern(2.5), structure="isotropic", dim=6)
        assert np.allclose(mk.gram(X), mk.gram(X[:, perm]), rtol=1e-12)

    def test_dim_mismatch_rejected(self):
        """Vectors of the wrong length raise a domain error."""
        mk = MultivariateKernel(base=matern(2.5), structure="additive", dim=3)
        with pytest.raises(DomainError):
            mk(np.zeros(2), np.zeros(2))
        with pytest.raises(DomainError):
            mk.gram(np.zeros((4, 2)))

    def test_bad_structure_rejected(self):
        """Unknown structure names are rejected at construction."""
        with pytest.raises(DomainError):
            MultivariateKernel(base=matern(2.5), structure="radial", dim=2)
        with pytest.raises(DomainError):
            MultivariateKernel(base=matern(2.5), structure="additive", dim=0)
