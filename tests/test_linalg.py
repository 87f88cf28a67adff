"""Tests for the dense SPD linear algebra helpers.

Oracles: hand 2x2 Cholesky factors, eigenvalue decompositions computed
directly with numpy, and residual norms of reconstructed systems.
"""

import math

import numpy as np
import pytest

from ppgp import (
    SingularMatrixError,
    cholesky_with_jitter,
    inverse_spd,
    logdet,
    solve_spd,
)


def random_spd(rng, n):
    """A well-conditioned random SPD matrix (M^T M + I)."""
    M = rng.normal(size=(n, n))
    return M.T @ M + np.eye(n)


class TestCholeskyWithJitter:
    """Factorization with escalating diagonal inflation."""

    def test_identity_needs_no_jitter(self):
        """A = I factors as L = I with jitter 0."""
        f = cholesky_with_jitter(np.eye(4), 0.0)
        assert np.array_equal(f.lower, np.eye(4))
        assert f.jitter_used == 0.0

    def test_two_by_two_hand_factor(self):
        """[[1, .5], [.5, 1]] factors to [[1, 0], [.5, sqrt(.75)]]."""
        A = np.array([[1.0, 0.5], [0.5, 1.0]])
        f = cholesky_with_jitter(A, 0.0)
        expected = np.array([[1.0, 0.0], [0.5, math.sqrt(0.75)]])
        assert np.allclose(f.lower, expected, rtol=1e-15)

    def test_rank_deficient_escalates_jitter(self):
        """ones(3,3) is rank 1; the ladder must add diagonal mass.

        Eigenvalue oracle: ones(3,3) has eigenvalues (3, 0, 0), so the
        factored matrix must be ones + delta*I with delta >= 1e-8.
        """
        A = np.ones((3, 3))
        f = cholesky_with_jitter(A, 1e-8)
        assert f.jitter_used >= 1e-8
        recon = f.lower @ f.lower.T
        assert np.allclose(recon, A + f.jitter_used * np.eye(3), atol=1e-12)
        eigs = np.linalg.eigvalsh(A + f.jitter_used * np.eye(3))
        assert np.all(eigs > 0.0)

    def test_reconstruction_invariant(self):
        """L L^T = A + jitter*I within relative Frobenius 1e-10."""
        rng = np.random.default_rng(0)
        for n in (2, 5, 10, 25):
            A = random_spd(rng, n)
            f = cholesky_with_jitter(A, 0.0)
            target = A + f.jitter_used * np.eye(n)
            err = np.linalg.norm(f.lower @ f.lower.T - target)
            assert err <= 1e-10 * np.linalg.norm(target)
            assert np.all(np.diag(f.lower) > 0.0)

    def test_jitter_is_deterministic(self):
        """The same input always records the same jitter."""
        A = np.ones((3, 3))
        f1 = cholesky_with_jitter(A, 1e-8)
        f2 = cholesky_with_jitter(A, 1e-8)
        assert f1.jitter_used == f2.jitter_used
        assert np.array_equal(f1.lower, f2.lower)

    def test_asymmetric_input_rejected(self):
        """Asymmetry beyond tolerance raises and names the violation."""
        A = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(SingularMatrixError) as exc:
            cholesky_with_jitter(A, 0.0)
        assert "symmetr" in str(exc.value).lower()

    def test_hopeless_matrix_fails_at_ladder_top(self):
        """A negative definite matrix exhausts the jitter ladder."""
        with pytest.raises(SingularMatrixError):
            cholesky_with_jitter(-np.eye(3), 0.0)

    def test_negative_delta0_rejected(self):
        """The starting jitter must be finite and non-negative."""
        for delta0 in (-1e-6, math.nan, math.inf):
            with pytest.raises(SingularMatrixError):
                cholesky_with_jitter(np.eye(3), delta0)


class TestSolves:
    """Triangular and SPD solves."""

    def test_identity_solve(self):
        """Solving with I returns b unchanged."""
        f = cholesky_with_jitter(np.eye(3), 0.0)
        b = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(solve_spd(f, b), b)

    def test_diagonal_solve_hand_value(self):
        """diag(2, 4) with b = (2, 4) gives (1, 1)."""
        f = cholesky_with_jitter(np.diag([2.0, 4.0]), 0.0)
        x = solve_spd(f, np.array([2.0, 4.0]))
        assert np.allclose(x, np.ones(2), rtol=1e-14)

    def test_residual_bound_random_spd(self):
        """||(A + delta I) x - b|| <= 1e-8 ||b|| on random 10x10 systems."""
        rng = np.random.default_rng(1)
        for _ in range(20):
            A = random_spd(rng, 10)
            b = rng.normal(size=10)
            f = cholesky_with_jitter(A, 0.0)
            x = solve_spd(f, b)
            resid = np.linalg.norm((A + f.jitter_used * np.eye(10)) @ x - b)
            assert resid <= 1e-8 * np.linalg.norm(b)

    def test_round_trip_recovers_x(self):
        """solve(chol(A), A x) returns x within rel 1e-8."""
        rng = np.random.default_rng(2)
        for n in (3, 8, 15):
            A = random_spd(rng, n)
            x = rng.normal(size=n)
            f = cholesky_with_jitter(A, 0.0)
            x_hat = solve_spd(f, A @ x)
            assert np.linalg.norm(x_hat - x) <= 1e-8 * np.linalg.norm(x)

    def test_solve_matrix_right_hand_side(self):
        """A matrix of right-hand sides is solved column by column."""
        rng = np.random.default_rng(3)
        A = random_spd(rng, 6)
        B = rng.normal(size=(6, 4))
        f = cholesky_with_jitter(A, 0.0)
        X = solve_spd(f, B)
        assert X.shape == (6, 4)
        for j in range(4):
            assert np.allclose(X[:, j], solve_spd(f, B[:, j]), rtol=1e-12)

    def test_dim_mismatch_rejected(self):
        """A right-hand side of the wrong length raises."""
        f = cholesky_with_jitter(np.eye(3), 0.0)
        with pytest.raises(SingularMatrixError):
            solve_spd(f, np.ones(4))


class TestLogdetAndInverse:
    """Log-determinants and explicit inverses from a factor."""

    def test_identity_logdet_zero(self):
        """logdet(I) = 0 exactly."""
        f = cholesky_with_jitter(np.eye(5), 0.0)
        assert logdet(f) == 0.0

    def test_diag_e_e2_gives_three(self):
        """diag(e, e^2) has log-determinant 1 + 2 = 3."""
        f = cholesky_with_jitter(np.diag([math.e, math.e**2]), 0.0)
        assert np.isclose(logdet(f), 3.0, rtol=1e-12)

    def test_matches_eigenvalue_oracle(self):
        """Random 8x8 SPD: logdet equals sum of log eigenvalues."""
        rng = np.random.default_rng(4)
        for _ in range(10):
            A = random_spd(rng, 8)
            f = cholesky_with_jitter(A, 0.0)
            oracle = float(np.sum(np.log(np.linalg.eigvalsh(A))))
            assert np.isclose(logdet(f), oracle, rtol=1e-8)

    def test_inverse_spd(self):
        """A @ inverse(A) is the identity within 1e-10."""
        rng = np.random.default_rng(5)
        A = random_spd(rng, 7)
        f = cholesky_with_jitter(A, 0.0)
        inv = inverse_spd(f)
        assert np.allclose(A @ inv, np.eye(7), atol=1e-10)
        assert np.allclose(inv, inv.T, atol=1e-12)
