"""Tests for design generators and diagnostics.

Oracles: radical-inverse values computed by hand, exact sorted-gap fill
distances on [0, 1], and stratum membership checks straight from the
Latin-hypercube definition.
"""

import numpy as np
import pytest

from ppgp import (
    DomainError,
    GENERATORS,
    halton,
    marginal_fill_distance,
    marginal_fill_distance_exact,
    randomized_lhs,
    uniform_random,
)


class TestHalton:
    """The radical-inverse sequence in successive prime bases."""

    def test_base_two_hand_values(self):
        """First four base-2 radical inverses: 1/2, 1/4, 3/4, 1/8."""
        D = halton(4, 1)
        expected = np.array([[0.5], [0.25], [0.75], [0.125]])
        assert np.array_equal(D.points, expected)

    def test_two_dimensional_hand_values(self):
        """n=2, d=2 uses bases 2 and 3: ((1/2, 1/3), (1/4, 2/3))."""
        D = halton(2, 2)
        expected = np.array([[0.5, 1.0 / 3.0], [0.25, 2.0 / 3.0]])
        assert np.allclose(D.points, expected, rtol=1e-15)

    def test_entries_strictly_inside_unit_interval(self):
        """Starting at index 1 keeps every coordinate in (0, 1)."""
        D = halton(200, 25)
        assert np.all(D.points > 0.0)
        assert np.all(D.points < 1.0)

    def test_deterministic(self):
        """Repeated calls are bit-identical."""
        assert np.array_equal(halton(50, 7).points, halton(50, 7).points)

    def test_dimension_bound(self):
        """Only 25 prime bases are tabled."""
        with pytest.raises(DomainError):
            halton(10, 26)

    def test_bad_counts_rejected(self):
        """n and d must be positive."""
        with pytest.raises(DomainError):
            halton(0, 2)
        with pytest.raises(DomainError):
            halton(5, 0)

    def test_design_metadata(self):
        """The record is its n x d points; the generator is registered."""
        D = halton(12, 3)
        assert D.points.shape == (12, 3)
        assert "halton" in GENERATORS


class TestRandomizedLhs:
    """One point per axis stratum, uniformly placed within the cell."""

    def test_stratum_occupancy(self):
        """floor(n * coord) hits each stratum exactly once per dimension."""
        D = randomized_lhs(20, 5, 0)
        for j in range(5):
            strata = np.floor(D.points[:, j] * 20).astype(int)
            assert sorted(strata) == list(range(20))

    def test_seed_reproducibility(self):
        """The same seed reproduces the design exactly."""
        assert np.array_equal(
            randomized_lhs(15, 4, 42).points, randomized_lhs(15, 4, 42).points
        )
        assert not np.array_equal(
            randomized_lhs(15, 4, 42).points, randomized_lhs(15, 4, 43).points
        )

    def test_entries_in_unit_cube(self):
        """All coordinates live in [0, 1)."""
        D = randomized_lhs(30, 3, 7)
        assert np.all(D.points >= 0.0)
        assert np.all(D.points < 1.0)

    def test_hundred_seeds_stratum_and_fill_distance(self):
        """100 seeds at (n=20, d=5): stratum property and h_j <= 2/n.

        The fill-distance oracle is the exact sorted-gap computation, so
        the 2/n bound is checked without grid error.
        """
        n, d = 20, 5
        for seed in range(100):
            D = randomized_lhs(n, d, seed)
            for j in range(d):
                strata = np.floor(D.points[:, j] * n).astype(int)
                assert sorted(strata) == list(range(n))
                assert marginal_fill_distance_exact(D.points, j) <= 2.0 / n

    def test_coordinates_distinct_across_points(self):
        """Each dimension's coordinates are pairwise distinct."""
        D = randomized_lhs(25, 4, 3)
        for j in range(4):
            assert np.unique(D.points[:, j]).size == 25


class TestUniformRandom:
    """Plain seeded uniform draws."""

    def test_reproducible_and_in_cube(self):
        """Seeded draws repeat exactly and stay in [0, 1)."""
        D1 = uniform_random(40, 6, 5)
        D2 = uniform_random(40, 6, 5)
        assert np.array_equal(D1.points, D2.points)
        assert np.all(D1.points >= 0.0)
        assert np.all(D1.points < 1.0)


class TestMarginalFillDistance:
    """Worst-case gap of a coordinate projection on [0, 1]."""

    def test_single_point_at_half(self):
        """One point at 0.5 has fill distance 0.5."""
        pts = np.array([[0.5]])
        assert marginal_fill_distance_exact(pts, 0) == 0.5
        grid_value = marginal_fill_distance(pts, 0)
        assert abs(grid_value - 0.5) <= 1.0 / (2.0 * 10001)

    def test_equispaced_centers(self):
        """Points at (2i-1)/(2n) give fill distance exactly 1/(2n)."""
        for n in (4, 9, 16):
            pts = ((2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)).reshape(-1, 1)
            assert np.isclose(marginal_fill_distance_exact(pts, 0), 1.0 / (2 * n),
                              rtol=1e-12)

    def test_grid_approximation_matches_exact(self):
        """Grid and exact versions agree within the documented grid error."""
        for seed in range(10):
            pts = randomized_lhs(12, 3, seed).points
            for j in range(3):
                exact = marginal_fill_distance_exact(pts, j)
                approx = marginal_fill_distance(pts, j)
                assert abs(approx - exact) <= 1.0 / (2.0 * 10001) + 1e-12

    def test_monotone_under_point_addition(self):
        """Adding points never increases the fill distance."""
        rng = np.random.default_rng(2)
        pts = rng.uniform(size=(4, 2))
        bigger = np.vstack([pts, rng.uniform(size=(6, 2))])
        for j in range(2):
            assert (
                marginal_fill_distance_exact(bigger, j)
                <= marginal_fill_distance_exact(pts, j)
            )

    def test_boundary_gaps_count(self):
        """Distance to 0 and 1 matters: a cluster at 0.9 has h = 0.9."""
        pts = np.array([[0.9], [0.92]])
        assert np.isclose(marginal_fill_distance_exact(pts, 0), 0.9, rtol=1e-12)

    def test_bad_dimension_index(self):
        """An out-of-range column index raises."""
        pts = halton(5, 2).points
        with pytest.raises(DomainError):
            marginal_fill_distance_exact(pts, 2)

