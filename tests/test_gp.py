"""Tests for plain Gaussian-process regression.

Oracles: direct-inverse likelihood computations with numpy, dense-grid
maxima for the predictive standard deviation, and paired fits on
functions with known additive or interactive structure.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from ppgp import (
    DEFAULT_NUGGET,
    FitError,
    ModelSpec,
    MultivariateKernel,
    TrainConfig,
    by_name,
    cholesky_with_jitter,
    fit,
    gaussian,
    halton,
    make_model,
    matern,
    randomized_lhs,
    rmse_absolute,
    transform,
    uniform_random,
)
from ppgp import kernels
from ppgp.kernels import BLOCK_LAGS
from ppgp.modelio import dumps_model, loads_model


def iso_kernel(d, nu=2.5):
    return MultivariateKernel(base=matern(nu), structure="isotropic", dim=d)


def add_kernel(d, nu=2.5):
    return MultivariateKernel(base=matern(nu), structure="additive", dim=d)


def prod_kernel(d, nu=2.5):
    return MultivariateKernel(base=matern(nu), structure="product", dim=d)


class TestFitBasics:
    """Construction, validation, and the cached solve."""

    def test_zero_response_predicts_zero_everywhere(self):
        """n=2, Y=(0,0): alpha is zero and so is every prediction."""
        X = np.array([[0.0], [1.0]])
        m = fit(X, np.zeros(2), iso_kernel(1))
        assert np.array_equal(m.alpha, np.zeros(2))
        grid = np.linspace(0.0, 1.0, 17).reshape(-1, 1)
        assert np.array_equal(m.predict(grid), np.zeros(17))

    def test_two_point_interpolation(self):
        """d=1, x={0,1}, Y=(1,2): prediction at 0 is 1 within 1e-3."""
        X = np.array([[0.0], [1.0]])
        m = fit(X, np.array([1.0, 2.0]), iso_kernel(1))
        assert abs(m.predict(np.array([[0.0]]))[0] - 1.0) <= 1e-3
        assert abs(m.predict(np.array([[1.0]]))[0] - 2.0) <= 1e-3

    def test_interpolation_bound_spread_designs(self):
        """max |predict(x_i) - y_i| <= 1e-3 max|Y| at the default nugget.

        Random responses are only representable by kernels whose span is
        unrestricted (isotropic, product); the additive kernel is checked
        on exactly additive data, the only data it can interpolate.
        """
        rng = np.random.default_rng(0)
        cases = [
            (iso_kernel(2), halton(20, 2).points),
            (iso_kernel(3), halton(50, 3).points),
            (iso_kernel(5), randomized_lhs(35, 5, 1).points),
            (prod_kernel(3), randomized_lhs(25, 3, 2).points),
            (prod_kernel(5), randomized_lhs(35, 5, 1).points),
        ]
        for kernel, X in cases:
            Y = rng.uniform(-2.0, 2.0, size=X.shape[0])
            m = fit(X, Y, kernel)
            err = np.max(np.abs(m.predict(X) - Y))
            assert err <= 1e-3 * np.max(np.abs(Y)), (
                f"{kernel.structure} n={X.shape[0]}: interpolation error {err}"
            )
        fn = by_name("additive-sine")
        X = randomized_lhs(30, 5, 0).points
        Y = fn.eval_unit(X)
        m = fit(X, Y, add_kernel(5))
        err = np.max(np.abs(m.predict(X) - Y))
        assert err <= 1e-3 * np.max(np.abs(Y))

    def test_constant_response_reproduced(self):
        """Y = c everywhere: predictions inside the hull stay within 1e-3 c.

        With centering the fit is exact (the centered responses vanish);
        without centering the nugget leaves a small dent.
        """
        X = np.linspace(0.0, 1.0, 10).reshape(-1, 1)
        Y = np.full(10, 7.0)
        grid = np.linspace(0.0, 1.0, 101).reshape(-1, 1)
        m = fit(X, Y, iso_kernel(1), center=True)
        assert np.array_equal(m.predict(grid), np.full(101, 7.0))
        m0 = fit(X, Y, iso_kernel(1), center=False)
        assert np.max(np.abs(m0.predict(grid) - 7.0)) <= 1e-3 * 7.0

    def test_far_extrapolation_returns_prior_mean(self):
        """Correlations vanish far away, so predictions revert to the mean."""
        X = halton(12, 2).points
        Y = 5.0 + np.sin(2.0 * np.pi * X[:, 0])
        far = np.array([[60.0, -45.0]])
        m = fit(X, Y, iso_kernel(2), center=True)
        assert np.isclose(m.predict(far)[0], m.center_mean, atol=1e-8)
        m0 = fit(X, Y, iso_kernel(2), center=False)
        assert m0.center_mean == 0.0
        assert abs(m0.predict(far)[0]) <= 1e-8

    def test_single_point_rejected(self):
        """n = 1 is not enough to fit."""
        with pytest.raises(FitError):
            fit(np.array([[0.5]]), np.array([1.0]), iso_kernel(1))

    def test_non_finite_responses_rejected(self):
        """nan or inf responses are rejected before factorization."""
        X = np.array([[0.0], [1.0]])
        with pytest.raises(FitError):
            fit(X, np.array([1.0, np.nan]), iso_kernel(1))
        with pytest.raises(FitError):
            fit(X, np.array([np.inf, 0.0]), iso_kernel(1))

    def test_dim_mismatch_rejected(self):
        """Design width must match the kernel dimension."""
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(FitError):
            fit(X, np.array([0.0, 1.0]), iso_kernel(3))

    def test_unit_cube_validation_and_bypass(self):
        """Rows below or above [0,1]^d are rejected, and fit takes no flag
        that bypasses the check."""
        X = np.array([[0.2, 0.3], [1.7, 0.5], [0.4, 0.9]])
        Y = np.array([1.0, 2.0, 3.0])
        for design in (X, X - 1.0):
            with pytest.raises(FitError, match="unit cube"):
                fit(design, Y, iso_kernel(2))
        with pytest.raises(TypeError):
            fit(X, Y, iso_kernel(2), validate_unit_cube=False)

    def test_negative_nugget_rejected(self):
        """A negative, NaN or infinite nugget is a fit error, not a silent
        repair."""
        X = np.array([[0.0], [1.0]])
        for nugget in (-1e-6, float("nan"), float("inf")):
            with pytest.raises(FitError, match="nugget"):
                fit(X, np.array([0.0, 1.0]), iso_kernel(1), nugget=nugget)

    def test_duplicate_rows_still_fit_via_jitter(self):
        """Coincident design points force jitter escalation, not failure."""
        X = np.array([[0.25], [0.25], [0.75]])
        Y = np.array([1.0, 1.0, 2.0])
        m = fit(X, Y, iso_kernel(1))
        assert m.chol.jitter_used >= DEFAULT_NUGGET
        assert np.all(np.isfinite(m.predict(X)))


class TestPredictiveVariance:
    """The normalized variance P^2 and its bounds."""

    def test_p_squared_bounds(self):
        """0 <= P^2 <= 1 + 10 delta everywhere."""
        X = halton(15, 2).points
        Y = np.sin(2.0 * np.pi * X[:, 0]) + X[:, 1]
        m = fit(X, Y, iso_kernel(2))
        pts = uniform_random(400, 2, 3).points
        p2 = m.p_squared(pts)
        assert np.all(p2 >= 0.0)
        assert np.all(p2 <= 1.0 + 10.0 * m.nugget)

    def test_p_squared_near_zero_at_training_sites(self):
        """P^2 at the design itself is at most 10 delta."""
        X = halton(20, 3).points
        Y = X.sum(axis=1)
        m = fit(X, Y, add_kernel(3))
        assert np.max(m.p_squared(X)) <= 10.0 * m.nugget

    def test_variance_far_away_equals_sigma2(self):
        """r(x) ~ 0 far from the data, so p^2 tends to 1 and the kriging
        variance sigma^2 p^2 to sigma^2."""
        X = halton(10, 1).points
        Y = 1.0 + X[:, 0] ** 2
        m = fit(X, Y, iso_kernel(1))
        far = np.array([[80.0]])
        assert np.isclose(m.p_squared(far)[0], 1.0, rtol=1e-8)

    def test_variance_is_clamped_not_negative(self):
        """Round-off at training sites is clamped to zero, never negative."""
        X = np.linspace(0.0, 1.0, 30).reshape(-1, 1)
        Y = np.ones(30) + X[:, 0]
        m = fit(X, Y, iso_kernel(1), nugget=1e-10)
        p2 = m.p_squared(X)
        assert np.all(p2 >= 0.0)

    def test_max_p_decreases_with_doubled_design(self):
        """1D equispaced: max P over a dense grid shrinks from n=5 to n=10."""
        grid = np.linspace(0.0, 1.0, 2001).reshape(-1, 1)
        maxima = []
        for n in (5, 10):
            X = ((2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)).reshape(-1, 1)
            m = fit(X, np.zeros(n), iso_kernel(1), center=False, nugget=1e-10)
            maxima.append(float(np.sqrt(np.max(m.p_squared(grid)))))
        assert maxima[1] < maxima[0]


class TestLogLikelihood:
    """The objective l = Y^T (K + dI)^{-1} Y + logdet(K + dI)."""

    def test_identity_gram_two_points(self):
        """Two points whose correlation is negligible make K = I; Y=(1,1)
        gives l = 2.  At phi = 20 the off-diagonal entry is about 5e-25."""
        X = np.array([[0.0], [1.0]])
        Y = np.array([1.0, 1.0])
        kernel = MultivariateKernel(base=matern(2.5, 20.0), structure="isotropic", dim=1)
        m = fit(X, Y, kernel, nugget=0.0, center=False)
        assert np.isclose(m.log_likelihood(), 2.0, atol=1e-8)

    def test_quadratic_term_scales_with_c_squared(self):
        """Scaling Y by c scales l - logdet by exactly c^2."""
        X = halton(8, 2).points
        Y = np.cos(2.0 * np.pi * X[:, 1])
        m1 = fit(X, Y, iso_kernel(2), center=False)
        logdet_term = m1.log_likelihood() - float(Y @ m1.alpha)
        for c in (2.0, -3.0, 0.5):
            mc = fit(X, c * Y, iso_kernel(2), center=False)
            quad1 = m1.log_likelihood() - logdet_term
            quadc = mc.log_likelihood() - logdet_term
            assert np.isclose(quadc, c * c * quad1, rtol=1e-12)

    def test_matches_direct_inverse_oracle(self):
        """Random 8-point problems agree with an explicit-inverse evaluation."""
        rng = np.random.default_rng(7)
        for trial in range(8):
            X = uniform_random(8, 2, trial).points
            Y = rng.normal(size=8)
            m = fit(X, Y, iso_kernel(2), center=False)
            K = m.kernel.gram(X) + m.chol.jitter_used * np.eye(8)
            oracle = float(Y @ np.linalg.inv(K) @ Y) + float(
                np.linalg.slogdet(K)[1]
            )
            assert np.isclose(m.log_likelihood(), oracle, rtol=1e-8)


class TestLazyFactor:
    """A model stores no n x n array: its Cholesky factor is built from the
    design on first use, with the bits of the factor fit solved with."""

    def test_factor_is_built_on_first_use(self):
        X = halton(12, 3).points
        m = fit(X, X.sum(axis=1), add_kernel(3))
        assert "chol" not in vars(m)
        assert {f.name for f in dataclasses.fields(m)}.isdisjoint({"chol", "sigma2_hat"})
        expected = cholesky_with_jitter(m.kernel.gram(X), m.nugget)
        assert m.chol.lower.tobytes() == expected.lower.tobytes()
        assert m.chol.jitter_used == expected.jitter_used == m.jitter_used
        assert m.chol is m.chol

    def test_escalated_ladder_rebuilds_the_same_factor(self):
        """Duplicated rows and nugget 0 push the ladder past its first rung;
        the factor started at the recorded rung has the same bits."""
        X = np.repeat(halton(6, 2).points, 2, axis=0)
        m = fit(X, X[:, 0] - X[:, 1], iso_kernel(2), nugget=0.0)
        assert m.jitter_used > 0.0
        expected = cholesky_with_jitter(m.kernel.gram(X), 0.0)
        assert expected.jitter_used == m.jitter_used
        assert m.chol.lower.tobytes() == expected.lower.tobytes()
        assert m.chol.jitter_used == m.jitter_used


class TestStructureSeparation:
    """Kernel structure should match function structure."""

    def test_isotropic_beats_additive_on_interaction(self):
        """f = xy + x^2 has a pure interaction; additive kernels miss it."""
        fn = by_name("xy-plus-x2")
        X = uniform_random(25, 2, 0).points
        Y = fn.eval_unit(X)
        Xt = uniform_random(400, 2, 1).points
        Yt = fn.eval_unit(Xt)
        iso = fit(X, Y, iso_kernel(2))
        add = fit(X, Y, add_kernel(2))
        err_iso = rmse_absolute(iso.predict(Xt), Yt)
        err_add = rmse_absolute(add.predict(Xt), Yt)
        assert err_iso * 2.0 <= err_add

    def test_additive_beats_isotropic_on_additive_function(self):
        """Sum of coordinate sines: additive structure wins by 5x or more."""
        fn = by_name("additive-sine")
        X = randomized_lhs(30, 5, 0).points
        Y = fn.eval_unit(X)
        Xt = uniform_random(400, 5, 1).points
        Yt = fn.eval_unit(Xt)
        iso = fit(X, Y, iso_kernel(5))
        add = fit(X, Y, add_kernel(5))
        err_iso = rmse_absolute(iso.predict(Xt), Yt)
        err_add = rmse_absolute(add.predict(Xt), Yt)
        assert err_add * 5.0 <= err_iso


class TestPermutationInvariance:
    """Coordinate relabeling must not change structured predictions."""

    def test_predictions_bit_identical_under_permutation(self):
        """Additive and product fits commute with coordinate permutations,
        at 2, 4 and 9 inputs.

        ``Xt[:, perm]`` is F-ordered.  numpy sums 8 or more values along a
        contiguous axis pairwise and along a strided one in sequence, so at
        9 inputs the two agree only because the kernel makes the points
        C-ordered first.
        """
        rng = np.random.default_rng(9)
        for d, perm in ((4, np.array([2, 0, 3, 1])), (2, np.array([1, 0])),
                        (9, np.array([4, 8, 0, 6, 2, 7, 1, 5, 3]))):
            X = uniform_random(18, d, 2).points
            Y = rng.normal(size=18)
            Xt = uniform_random(50, d, 3).points
            for structure in ("additive", "product"):
                kernel = MultivariateKernel(base=matern(2.5), structure=structure, dim=d)
                m = fit(X, Y, kernel)
                mp = fit(X[:, perm], Y, kernel)
                assert np.array_equal(m.predict(Xt), mp.predict(Xt[:, perm])), (d, structure)

    def test_batch_predict_equals_single_predicts(self):
        """predict on a matrix equals one-row predicts, bitwise,
        also for a batch spanning several row blocks of cross, and for an
        F-ordered batch of 9 inputs, whose layout would otherwise change the
        order of numpy's sums."""
        for d, seed in ((3, 4), (9, 6)):
            X = halton(12, d).points
            Y = X[:, 0] + 2.0 * X[:, 1] ** 2 + np.sin(X[:, 2])
            rows_per_block = BLOCK_LAGS // (12 * d)
            batches = (uniform_random(40, d, seed).points,
                       uniform_random(3 * rows_per_block + 5, d, seed + 1).points)
            if d == 9:
                batches = (np.asfortranarray(batches[1]),)
            for kernel in (add_kernel(d), prod_kernel(d), iso_kernel(d)):
                m = fit(X, Y, kernel)
                for Xt in batches:
                    batch = m.predict(Xt)
                    singles = np.array([m.predict(x[None, :])[0] for x in Xt])
                    assert np.array_equal(batch, singles), (d, kernel.structure)


class TestAdditivePredictPath:
    """Additive kernels predict from per-coordinate sums over the design,
    not from the m x n cross-correlation matrix."""

    @pytest.mark.parametrize("method", ["gp-add", "ppgpr"])
    @pytest.mark.parametrize("base", [matern(1.5), matern(2.5), matern(3.5), matern(2.2),
                                      gaussian(0.5)],
                             ids=["matern1.5", "matern2.5", "matern3.5", "matern2.2",
                                  "gaussian"])
    def test_matches_the_cross_correlation_product(self, method, base):
        """Predictions equal ``cross(X, Z) @ alpha + mean`` to rounding: within
        1e-12 of ``|cross| @ |alpha| + |mean|``, the size of the terms summed.

        Borehole responses are O(10-100) with a mean that cancels most of the
        sum, so the bound is relative to the terms, not to the prediction.
        """
        U = halton(24, 8).points
        spec = ModelSpec(method, base, TrainConfig(eta=1e-8, epochs=3, M=10))
        model = make_model(spec, U, by_name("borehole").eval_unit(U))
        gp = model if method == "gp-add" else model.inner
        Xt = uniform_random(200, 8, 3).points
        Z = Xt if method == "gp-add" else transform(model.W, Xt)
        R = gp.kernel.cross(Z, gp.design)
        expected = R @ gp.alpha + gp.center_mean
        scale = np.abs(R) @ np.abs(gp.alpha) + abs(gp.center_mean)
        assert np.all(np.abs(model.predict(Xt) - expected) <= 1e-12 * scale)


    def test_sorted_sums_are_built_once_per_model_and_never_saved(self, monkeypatch):
        """A half-integer additive model builds its one-sided sums on the
        first predict and reuses them; the model file is the same text
        before and after, and a loaded model builds its own."""
        builds = []
        init = kernels._OneSidedSums.__init__

        def counting_init(self, *args):
            builds.append(1)
            init(self, *args)

        monkeypatch.setattr(kernels._OneSidedSums, "__init__", counting_init)
        U = halton(20, 3).points
        model = fit(U, U[:, 0] + np.sin(3.0 * U[:, 1]), add_kernel(3))
        text = dumps_model(model)
        Xt = uniform_random(30, 3, 5).points
        first = model.predict(Xt)
        assert np.array_equal(model.predict(Xt), first)
        model.predict(Xt[:1])
        assert len(builds) == 1
        assert dumps_model(model) == text
        loaded = loads_model(text)
        assert loaded.predict(Xt).tobytes() == first.tobytes()
        assert len(builds) == 2

    @pytest.mark.parametrize("base", [gaussian(0.5), matern(2.2)], ids=["gaussian", "matern2.2"])
    def test_other_bases_predict_from_the_row_blocks(self, base):
        """Gaussian and Bessel-form additive models keep the row-block
        sums of the lag tensor, bit for bit."""
        U = halton(20, 3).points
        kernel = MultivariateKernel(base=base, structure="additive", dim=3)
        model = fit(U, U[:, 0] + np.sin(3.0 * U[:, 1]), kernel)
        Xt = uniform_random(30, 3, 5).points
        expected = kernel._cross_dot(Xt, model.design, model.alpha) + model.center_mean
        assert model.predict(Xt).tobytes() == expected.tobytes()

class TestPredictMemory:
    """predict works in row blocks, never on an m x n x dim tensor."""

    def test_peak_traced_memory_of_500_point_predict(self):
        """n=400, M=40 additive model: one 500-point predict stays <= 16 MB.

        The whole 500 x 400 x 40 lag tensor alone would be 61 MB.
        """
        rng = np.random.default_rng(11)
        X = uniform_random(400, 40, 12).points
        m = fit(X, rng.normal(size=400), add_kernel(40))
        Xt = uniform_random(500, 40, 13).points
        tracemalloc.start()
        try:
            pred = m.predict(Xt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(pred))
        assert peak <= 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
