"""Tests for the dense SPD linear algebra helpers.

Oracles: hand 2x2 Cholesky factors, eigenvalue decompositions computed
directly with numpy, residual norms of reconstructed systems, and the
bits of scipy's ``dpotrf``, ``dpotri`` and ``scipy.linalg.cho_solve``; the
pivoted factor is checked by reconstructing the matrix it factors.
"""

import math

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf, dpotri, dpstrf

from ppgp import (
    MultivariateKernel,
    SingularMatrixError,
    cholesky_with_jitter,
    logdet,
    matern,
    pivoted_cholesky,
    randomized_lhs,
    solve_spd,
)
from ppgp.linalg import PIVOT_TOL, POTRI_MIN_N, inverse_spd


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

    def test_non_finite_right_hand_side_rejected(self):
        """A nan or inf right-hand side raises instead of solving to nan."""
        f = cholesky_with_jitter(np.eye(3), 0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(SingularMatrixError, match="non-finite"):
                solve_spd(f, np.array([1.0, bad, 0.0]))


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
        """The lower triangle of inverse(A), mirrored, times A is the
        identity within 1e-10."""
        rng = np.random.default_rng(5)
        A = random_spd(rng, 7)
        f = cholesky_with_jitter(A, 0.0)
        lower = np.tril(inverse_spd(f))
        inv = lower + np.tril(lower, -1).T
        assert np.allclose(A @ inv, np.eye(7), atol=1e-10)


class TestLapackPathBits:
    """The helpers reproduce the bits of the scipy routines they stand in
    for: ``dpotrf(A + delta I, lower=1, clean=1)`` for the factor,
    ``scipy.linalg.cho_solve`` for the solves, and ``cho_solve`` or
    ``dpotri`` for the inverse.  The accuracy of the factor and of the
    inverse is checked directly too, against rounding-error bounds, not
    through agreement with another library."""

    SIZES = (1, 5, 32, 40, 100)

    @staticmethod
    def factor(n):
        """A Matérn correlation matrix and its factor at nugget 1e-6; from
        n = 32 on, numpy's cholesky factors these in other bits than
        scipy's dpotrf."""
        rng = np.random.default_rng(n)
        A = MultivariateKernel(matern(2.5), "additive", 8).gram(rng.random((n, 8)))
        return A, cholesky_with_jitter(A, 1e-6), rng

    @pytest.mark.parametrize("n", SIZES)
    def test_factor_matches_scipy_dpotrf(self, n):
        """The lower factor is dpotrf's factor of A + delta I, bit for bit,
        and reproduces A + delta I within (n + 1) eps max |A|: the Cholesky
        backward error plus the rounding of the product L L^T."""
        A, f, _ = self.factor(n)
        shifted = A + 1e-6 * np.eye(n)
        expected, info = dpotrf(shifted, lower=1, clean=1)
        assert info == 0
        assert f.jitter_used == 1e-6
        assert f.lower.tobytes() == expected.tobytes()
        err = np.max(np.abs(f.lower @ f.lower.T - shifted))
        assert err <= (n + 1) * np.finfo(float).eps * np.max(np.abs(A))

    @pytest.mark.parametrize("n", SIZES)
    def test_solves_match_cho_solve(self, n):
        """Vector, matrix and column-major right-hand sides."""
        _, f, rng = self.factor(n)
        B = rng.normal(size=(n, 3))
        for b in (B[:, 0], B, np.asfortranarray(B)):
            got = solve_spd(f, b)
            expected = cho_solve((f.lower, True), b)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", SIZES + (POTRI_MIN_N, 200))
    def test_inverse_is_a_lower_triangle_mirrored(self, n):
        """The lower triangle of the result is that of cho_solve against
        the identity below POTRI_MIN_N rows and of dpotri from there up,
        bit for bit; and that triangle, mirrored here into the inverse X,
        keeps A X - I within n eps ||A||_inf ||X||_inf, the size of the
        rounding errors of the inverse and its product (measured at most
        0.5 of it).  The upper triangle is not the inverse's and is not
        read."""
        A, f, _ = self.factor(n)
        result = inverse_spd(f)
        if n < POTRI_MIN_N:
            expected = cho_solve((f.lower, True), np.eye(n))
        else:
            expected, info = dpotri(f.lower, lower=1)
            assert info == 0
        lower = np.tril(np.ones((n, n), dtype=bool))
        assert result[lower].tobytes() == expected[lower].tobytes()
        inv = np.where(lower, result, result.T)
        shifted = A + 1e-6 * np.eye(n)
        residual = np.max(np.abs(shifted @ inv - np.eye(n)))
        norms = np.max(np.abs(shifted).sum(axis=1)) * np.max(np.abs(inv).sum(axis=1))
        assert residual <= n * np.finfo(float).eps * norms

    def test_symmetric_input_is_left_unchanged(self):
        """The jitter goes on a copy's diagonal; the caller's matrix stays."""
        A, _, _ = self.factor(5)
        before = A.copy()
        cholesky_with_jitter(A, 1e-3)
        assert A.tobytes() == before.tobytes()

    def test_empty_factor(self):
        """A 0 x 0 factor solves to shape (0,) and has log-determinant 0."""
        f = cholesky_with_jitter(np.empty((0, 0)), 1e-6)
        assert solve_spd(f, np.empty(0)).shape == (0,)
        assert logdet(f) == 0.0


class TestPivotedCholesky:
    """The jitter-free low-rank factor that theory-check draws through."""

    @staticmethod
    def gram(structure, d, n):
        X = randomized_lhs(n, d, seed=n).points
        return MultivariateKernel(matern(2.5), structure, d).gram(X)

    @pytest.mark.parametrize("structure, d, n, full_rank", [
        ("additive", 1, 600, False),
        ("isotropic", 2, 400, True),
    ])
    def test_factor_reproduces_gram(self, structure, d, n, full_rank):
        """F F^T reproduces K within N eps: a clipped eigendecomposition
        misses by about 1e-12 at N = 4246, above that bound's 9.4e-13.
        The 1-d Matérn Gram of 600 points is numerically rank-deficient,
        so the factor has fewer columns than rows."""
        K = self.gram(structure, d, n)
        F = pivoted_cholesky(K.copy())
        assert F.shape[0] == n
        assert (F.shape[1] == n) == full_rank
        assert np.max(np.abs(F @ F.T - K)) <= n * np.finfo(float).eps

    def test_exact_low_rank(self):
        """ones(3, 3) is u u^T with u = (1, 1, 1): one column, exact."""
        F = pivoted_cholesky(np.ones((3, 3)))
        assert F.shape == (3, 1)
        assert np.array_equal(F @ F.T, np.ones((3, 3)))

    def test_empty_matrix(self):
        assert pivoted_cholesky(np.empty((0, 0))).shape == (0, 0)

    @pytest.mark.parametrize("A", [-np.eye(3), np.diag([1.0, -1.0])],
                             ids=["negative-definite", "indefinite"])
    def test_indefinite_input_rejected(self, A):
        """dpstrf stops at rank 0 and 1 on these without an error; the
        diagonal left out of the factor shows the negative direction."""
        with pytest.raises(SingularMatrixError, match="not positive semidefinite"):
            pivoted_cholesky(A.copy())

    def test_rank_deficient_gram_keeps_its_rank(self):
        """The indefiniteness check leaves a semidefinite Gram of numerical
        rank below N alone: the factor has dpstrf's rank."""
        K = self.gram("additive", 1, 600)
        rank = dpstrf(np.asfortranarray(K), tol=PIVOT_TOL, lower=1)[2]
        assert 0 < rank < 600
        assert pivoted_cholesky(K.copy()).shape == (600, rank)

    @pytest.mark.parametrize("A", [
        np.array([[1.0, 0.2], [0.3, 1.0]]),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.array([[1.0, 0.0], [0.0, np.inf]]),
        np.ones((2, 3)),
    ], ids=["asymmetric", "nan", "inf", "not-square"])
    def test_bad_input_rejected(self, A):
        """The same checks as cholesky_with_jitter, with the same error."""
        with pytest.raises(SingularMatrixError):
            pivoted_cholesky(A)
        with pytest.raises(SingularMatrixError):
            cholesky_with_jitter(A, 0.0)
