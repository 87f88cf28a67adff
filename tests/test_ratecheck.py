"""Tests for the empirical convergence-rate checks."""

import numpy as np
import pytest

from ppgp import (
    THEORY_NUGGET,
    DomainError,
    MultivariateKernel,
    fit,
    matern,
    prior_draws,
    randomized_lhs,
    rate_fit,
    sup_error_curve,
)


class TestRateFit:
    """Log-log OLS slope recovery on synthetic curves."""

    def test_exact_quadratic_decay(self):
        ns = np.array([10, 20, 40, 80, 160])
        fitres = rate_fit(zip(ns, ns**-2.0))
        assert np.isclose(fitres.slope, -2.0, atol=1e-10)
        assert np.isclose(fitres.intercept, 0.0, atol=1e-10)
        assert fitres.r2 > 1.0 - 1e-12

    def test_scaled_power_law(self):
        """err = 3 n^-1.5 gives slope -1.5 and intercept log 3."""
        ns = np.array([5, 10, 50, 100])
        fitres = rate_fit(zip(ns, 3.0 * ns**-1.5))
        assert np.isclose(fitres.slope, -1.5, atol=1e-10)
        assert np.isclose(fitres.intercept, np.log(3.0), atol=1e-10)

    def test_constant_curve_has_zero_slope(self):
        fitres = rate_fit([(10, 0.7), (20, 0.7), (40, 0.7)])
        assert np.isclose(fitres.slope, 0.0, atol=1e-10)
        assert fitres.r2 == 1.0

    def test_noisy_curve_reports_imperfect_r2(self):
        pairs = [(10, 1e-1), (20, 3e-2), (40, 9e-3), (80, 4e-3)]
        fitres = rate_fit(pairs)
        assert fitres.r2 < 1.0
        assert -2.0 < fitres.slope < -1.0

    def test_matches_numpy_polyfit(self):
        """The closed-form line is the least-squares line numpy fits."""
        pairs = [(10, 1e-1), (20, 3e-2), (40, 9e-3), (80, 4e-3), (160, 2.5e-3)]
        fitres = rate_fit(pairs)
        x, y = np.log(np.array(pairs)).T
        slope, intercept = np.polyfit(x, y, 1)
        assert fitres.slope == pytest.approx(slope, rel=1e-12)
        assert fitres.intercept == pytest.approx(intercept, rel=1e-12)

    def test_too_few_pairs_rejected(self):
        with pytest.raises(DomainError):
            rate_fit([(10, 0.5)])
        # pairs that share one n leave the slope undefined
        with pytest.raises(DomainError, match="distinct n"):
            rate_fit([(10, 0.5), (10, 0.25), (10, 0.125)])

    def test_nonpositive_values_rejected(self):
        with pytest.raises(DomainError):
            rate_fit([(10, 0.5), (20, 0.0)])
        with pytest.raises(DomainError):
            rate_fit([(10, 0.5), (-20, 0.1)])
        with pytest.raises(DomainError):
            rate_fit([(10, 0.5), (20, np.nan)])


class TestPriorDraws:
    """Exact sampling from the joint prior."""

    def test_shape_and_determinism(self):
        kernel = MultivariateKernel(base=matern(2.5, 0.7), structure="additive",
                                    dim=2)
        pts = randomized_lhs(6, 2, seed=0).points
        a = prior_draws(kernel, pts, trials=4, seed=9)
        b = prior_draws(kernel, pts, trials=4, seed=9)
        assert a.shape == (4, 6)
        assert np.array_equal(a, b)

    def test_empirical_covariance_matches_gram(self):
        """10000 draws at 5 sites reproduce the Gram matrix to 0.05."""
        kernel = MultivariateKernel(base=matern(2.5, 0.5), structure="additive",
                                    dim=2)
        pts = randomized_lhs(5, 2, seed=3).points
        K = kernel.gram(pts)
        draws = prior_draws(kernel, pts, trials=10000, seed=0)
        assert np.max(np.abs(draws.mean(axis=0))) < 0.05
        emp = draws.T @ draws / draws.shape[0]
        assert np.max(np.abs(emp - K)) < 0.05


class TestSupErrorCurve:
    """The error-decay driver."""

    def test_theory_nugget_does_not_floor_uncertainty(self):
        """With the tiny nugget, P at the design sites stays at jitter level."""
        kernel = MultivariateKernel(base=matern(2.5, 1.0), structure="additive",
                                    dim=2)
        for n in (10, 20, 40):
            X = randomized_lhs(n, 2, seed=n).points
            model = fit(X, np.zeros(n), kernel, nugget=THEORY_NUGGET,
                        center=False)
            assert np.max(model.p_squared(X)) <= 10.0 * THEORY_NUGGET

    def test_deterministic_rows(self):
        a = sup_error_curve("additive", 2.5, 1, [8, 16], trials=0, seed=4,
                            grid_budget=128)
        b = sup_error_curve("additive", 2.5, 1, [8, 16], trials=0, seed=4,
                            grid_budget=128)
        assert [r.n for r in a] == [8, 16]
        for ra, rb in zip(a, b):
            assert ra.max_p == rb.max_p
            assert np.isnan(ra.sup_err) and np.isnan(rb.sup_err)

    def test_curves_decrease_with_design_size(self):
        """max_p is deterministic and strictly falls; the sampled sup
        error wobbles between adjacent sizes, so only the endpoints are
        compared."""
        rows = sup_error_curve("additive", 2.5, 1, [8, 16, 32, 64], trials=3,
                               seed=0, grid_budget=256)
        max_p = [r.max_p for r in rows]
        sup = [r.sup_err for r in rows]
        assert all(a > b for a, b in zip(max_p, max_p[1:]))
        assert all(np.isfinite(v) for v in sup)
        assert sup[-1] < 0.25 * sup[0]

    def test_dimension_cap(self):
        with pytest.raises(DomainError):
            sup_error_curve("additive", 2.5, 4, [10, 20])

    def test_zero_dimensions_or_one_point_rejected(self):
        with pytest.raises(DomainError, match="1 <= d <= 3"):
            sup_error_curve("additive", 2.5, 0, [10, 20])
        with pytest.raises(DomainError, match="at least 2"):
            sup_error_curve("additive", 2.5, 1, [1, 4])
        for nugget in (-1.0, np.nan, np.inf):
            with pytest.raises(DomainError, match="nugget must be finite"):
                sup_error_curve("additive", 2.5, 1, [4, 8], nugget=nugget)

    def test_grid_budget_cap(self):
        with pytest.raises(DomainError):
            sup_error_curve("additive", 2.5, 2, [10, 20], grid_budget=10000)

    def test_grid_budget_rounds_down_to_a_square(self):
        """In 2-d a budget of 24 rounds sqrt(24) to 5 per axis, whose 25
        points exceed it, so the grid steps down to 4 x 4: the rows equal
        those of a budget of exactly 16."""
        rows = [sup_error_curve("additive", 2.5, 2, [4, 8], trials=1, seed=0,
                                grid_budget=budget) for budget in (24, 16)]
        assert rows[0] == rows[1]
        assert rows[0] != sup_error_curve("additive", 2.5, 2, [4, 8], trials=1, seed=0,
                                          grid_budget=25)

    def test_additive_rate_beats_isotropic_in_2d(self):
        """Structure-aware decay: additive sup error falls clearly faster.

        For a twice-differentiable base kernel in d = 2 the additive
        exponent should approach -nu while the isotropic one is dragged
        toward -nu/d, so the fitted slopes should sit well apart.
        """
        ns = [10, 20, 40, 80]
        add = sup_error_curve("additive", 2.5, 2, ns, trials=3, seed=0,
                              grid_budget=1024)
        iso = sup_error_curve("isotropic", 2.5, 2, ns, trials=3, seed=0,
                              grid_budget=1024)
        add_fit = rate_fit([(r.n, r.sup_err) for r in add])
        iso_fit = rate_fit([(r.n, r.sup_err) for r in iso])
        assert add_fit.slope <= iso_fit.slope - 0.5
        assert add_fit.slope < -1.5
