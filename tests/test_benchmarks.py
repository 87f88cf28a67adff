"""Tests for the benchmark functions and their range handling.

The fixture values below were produced by an independent one-off script
that transcribed each published formula symbol by symbol with plain
scalar arithmetic; they pin the implementation against transcription
slips.  The physical inputs reach the functions through ``eval_unit`` at
``u = (x - lo) / (hi - lo)``.
"""

import numpy as np
import pytest

from ppgp import BENCHMARKS, DomainError, by_name


def unit(fn, x):
    """Unit-cube coordinates of the physical point ``x``."""
    lo, hi = fn.ranges[:, 0], fn.ranges[:, 1]
    return (np.asarray(x, dtype=float) - lo) / (hi - lo)


# (inputs, expected value) triples per function, first entry at the range
# midpoints, the others at interior off-center points.
BOREHOLE_FIXTURES = [
    ((0.1, 25050.0, 89335.0, 1005.0, 89.55, 760.0, 1400.0, 10950.0),
     59.875391710416025),
    ((0.06, 1000.0, 70000.0, 950.0, 80.0, 720.0, 1200.0, 10000.0),
     21.63750515290768),
    ((0.14, 40000.0, 110000.0, 1100.0, 110.0, 800.0, 1600.0, 12000.0),
     137.38980530732587),
]

OTL_FIXTURES = [
    ((100.0, 47.5, 1.75, 1.85, 0.725, 175.0), 5.31061694218833),
    ((60.0, 30.0, 1.0, 1.5, 0.5, 100.0), 5.239765159481248),
    ((140.0, 65.0, 2.5, 2.2, 1.1, 250.0), 5.391686460026187),
]

WING_FIXTURES = [
    ((175.0, 260.0, 8.0, 0.0, 30.5, 0.75, 0.13, 4.25, 2100.0, 0.0525),
     267.6246925704357),
    ((160.0, 230.0, 7.0, -5.0, 20.0, 0.6, 0.1, 3.0, 1800.0, 0.03),
     191.7156597281892),
    ((190.0, 290.0, 9.5, 8.0, 40.0, 0.9, 0.16, 5.5, 2400.0, 0.07),
     366.7272897917848),
]


class TestTranscriptionOracles:
    """Fixture values from the independent transcription script."""

    def test_borehole_values(self):
        fn = by_name("borehole")
        for x, expected in BOREHOLE_FIXTURES:
            got = fn.eval_unit(unit(fn, x))[0]
            assert np.isclose(got, expected, rtol=1e-12), f"{x}: {got}"

    def test_otl_circuit_values(self):
        fn = by_name("otl-circuit")
        for x, expected in OTL_FIXTURES:
            got = fn.eval_unit(unit(fn, x))[0]
            assert np.isclose(got, expected, rtol=1e-12), f"{x}: {got}"

    def test_wing_weight_values(self):
        fn = by_name("wing-weight")
        for x, expected in WING_FIXTURES:
            got = fn.eval_unit(unit(fn, x))[0]
            assert np.isclose(got, expected, rtol=1e-12), f"{x}: {got}"

    def test_midpoint_matches_unit_half(self):
        """eval_unit at u = 0.5 gives the fixture value at the midpoints."""
        for name, fixtures in (
            ("borehole", BOREHOLE_FIXTURES),
            ("otl-circuit", OTL_FIXTURES),
            ("wing-weight", WING_FIXTURES),
        ):
            fn = by_name(name)
            u = np.full(fn.dim, 0.5)
            assert np.isclose(fn.eval_unit(u)[0], fixtures[0][1], rtol=1e-12)


class TestRangesAndValidation:
    """Input ranges and domain checking."""

    def test_borehole_ranges(self):
        """The eight documented (lo, hi) pairs, exactly."""
        fn = by_name("borehole")
        expected = np.array([
            [0.05, 0.15],
            [100.0, 50000.0],
            [63070.0, 115600.0],
            [900.0, 1110.0],
            [63.1, 116.0],
            [700.0, 820.0],
            [1120.0, 1680.0],
            [9855.0, 12045.0],
        ])
        assert np.array_equal(fn.ranges, expected)

    def test_all_ranges_strictly_ordered(self):
        """lo < hi in every coordinate of every function."""
        for name in BENCHMARKS:
            fn = by_name(name)
            assert np.all(fn.ranges[:, 0] < fn.ranges[:, 1])

    def test_out_of_range_names_the_coordinate(self):
        """A violation reports the function, row, column and value."""
        fn = by_name("borehole")
        U = np.full((3, 8), 0.5)
        U[2, 3] = 1.25
        with pytest.raises(DomainError) as exc:
            fn.eval_unit(U)
        msg = str(exc.value)
        assert "borehole" in msg
        assert "input 3 = 1.25" in msg and "row 2" in msg

    def test_unit_corner_values(self):
        """u = 0 and u = 1 are admitted and map to the lo and hi corners."""
        for name in ("borehole", "otl-circuit", "wing-weight"):
            fn = by_name(name)
            lo, hi = fn.ranges[:, 0], fn.ranges[:, 1]
            assert np.array_equal(fn.to_physical(np.zeros(fn.dim))[0], lo)
            assert np.allclose(fn.to_physical(np.ones(fn.dim))[0], hi,
                               rtol=1e-15, atol=0.0)
            corners = np.vstack([np.zeros(fn.dim), np.ones(fn.dim)])
            assert np.all(np.isfinite(fn.eval_unit(corners)))

    def test_unit_input_outside_cube_rejected(self):
        """eval_unit validates [0, 1]^d."""
        fn = by_name("borehole")
        u = np.full(8, 0.5)
        u[3] = 1.2
        with pytest.raises(DomainError):
            fn.eval_unit(u)

    def test_wrong_dimension_rejected(self):
        """A vector of the wrong length raises a domain error naming the function."""
        fn = by_name("otl-circuit")
        with pytest.raises(DomainError, match="otl-circuit takes 6 inputs, got 5"):
            fn.eval_unit(np.full(5, 0.5))

    def test_unknown_name_lists_available(self):
        """Lookup failure shows what names exist."""
        with pytest.raises(DomainError) as exc:
            by_name("rosenbrock")
        assert "borehole" in str(exc.value)


class TestUnitPhysicalConsistency:
    """The affine map and its inverse."""

    def test_round_trip_on_random_points(self):
        """to_physical maps the cube's interior into the box's, and the
        inverse affine map recovers u to 1e-12."""
        rng = np.random.default_rng(0)
        for name in BENCHMARKS:
            fn = by_name(name)
            U = rng.uniform(0.05, 0.95, size=(1000, fn.dim))
            X = fn.to_physical(U)
            assert np.all((X > fn.ranges[:, 0]) & (X < fn.ranges[:, 1]))
            assert np.allclose(unit(fn, X), U, atol=1e-12)

    def test_batch_matches_single(self):
        """Row-wise evaluation equals one-at-a-time evaluation."""
        fn = by_name("wing-weight")
        rng = np.random.default_rng(1)
        U = rng.uniform(0.1, 0.9, size=(25, 10))
        batch = fn.eval_unit(U)
        singles = np.array([fn.eval_unit(u)[0] for u in U])
        assert np.array_equal(batch, singles)


class TestToyFunctions:
    """The interaction toy and the exactly additive function."""

    def test_xy_plus_x2_hand_values(self):
        """f(1, 1) = 2 at the range boundary; f(0, y) = 0 for all y."""
        fn = by_name("xy-plus-x2")
        assert np.array_equal(fn.ranges, np.array([[-1.0, 1.0], [-1.0, 1.0]]))
        assert fn.eval_unit(unit(fn, [1.0, 1.0]))[0] == 2.0
        for y in (-0.8, -0.2, 0.4, 0.9):
            assert fn.eval_unit(unit(fn, [0.0, y]))[0] == 0.0
        assert fn.eval_unit(unit(fn, [0.5, -0.4]))[0] == 0.5 * -0.4 + 0.25

    def test_additive_sine_is_exactly_additive(self):
        """f(x) equals the sum of its coordinate slices at baseline zero."""
        fn = by_name("additive-sine")
        assert fn.dim == 5
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(size=5)
            total = fn.eval_unit(x)[0]
            slices = 0.0
            for j in range(5):
                e = np.zeros(5)
                e[j] = x[j]
                slices += fn.eval_unit(e)[0]
            assert np.isclose(total, slices, atol=1e-12)

    def test_additive_sine_formula(self):
        """Direct check of sum of sin(2 pi x_j)."""
        fn = by_name("additive-sine")
        x = np.array([0.1, 0.25, 0.4, 0.6, 0.85])
        assert np.isclose(
            fn.eval_unit(x)[0], float(np.sum(np.sin(2.0 * np.pi * x))),
            rtol=1e-14,
        )
