"""Tests for projection-pursuit GP training.

The central oracle is a central finite difference of the likelihood
objective with respect to each weight entry; structural checks reduce
the model to a plain additive GP or to hand-computable matrices.
"""

import time
import tracemalloc

import numpy as np
import pytest

from ppgp import (
    DomainError,
    MultivariateKernel,
    TrainConfig,
    TrainingError,
    by_name,
    cholesky_with_jitter,
    default_node_count,
    fit,
    gaussian,
    halton,
    init_weights,
    logdet,
    loss_and_gradient,
    matern,
    solve_spd,
    train,
    transform,
    uniform_random,
)


def finite_difference_gradient(W, X, Y, kernel1d, nugget=1e-6, h=6e-4):
    """Richardson-extrapolated central differences of the objective.

    Two central quotients at h and h/2 combine to cancel the h^2
    truncation term.  The objective goes through a factorization whose
    conditioning amplifies roundoff, so a single very small step would
    trade truncation error for noise instead of removing it.
    """
    def central(step):
        G = np.zeros_like(W)
        for k in range(W.shape[0]):
            for j in range(W.shape[1]):
                Wp = W.copy()
                Wp[k, j] += step
                lp, _ = loss_and_gradient(Wp, X, Y, kernel1d, nugget)
                Wm = W.copy()
                Wm[k, j] -= step
                lm, _ = loss_and_gradient(Wm, X, Y, kernel1d, nugget)
                G[k, j] = (lp - lm) / (2.0 * step)
        return G

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def gradient_relative_error(W, X, Y, kernel1d):
    """Max-norm relative disagreement between analytic and FD gradients."""
    _, G = loss_and_gradient(W, X, Y, kernel1d)
    G_fd = finite_difference_gradient(W, X, Y, kernel1d)
    return float(np.max(np.abs(G - G_fd)) / np.max(np.abs(G_fd)))


class TestInitAndTransform:
    """Weight initialization and the linear projection."""

    def test_init_deterministic(self):
        """(d=3, M=5, seed=7) run twice gives identical matrices."""
        W1 = init_weights(3, 5, 7)
        W2 = init_weights(3, 5, 7)
        assert W1.shape == (5, 3)
        assert np.array_equal(W1, W2)

    def test_init_one_by_one(self):
        """(d=1, M=1) is a finite 1x1 matrix."""
        W = init_weights(1, 1, 0)
        assert W.shape == (1, 1)
        assert np.isfinite(W[0, 0])

    def test_init_column_variance_near_one_over_d(self):
        """Law of large numbers: column variance ~ 1/d within 20% at M=10000."""
        d = 4
        W = init_weights(d, 10000, 123)
        variances = W.var(axis=0)
        assert np.all(variances >= 0.8 / d)
        assert np.all(variances <= 1.2 / d)

    def test_init_different_seeds_differ(self):
        """Distinct seeds give distinct draws."""
        assert not np.array_equal(init_weights(2, 3, 0), init_weights(2, 3, 1))

    def test_transform_identity(self):
        """W = I leaves X unchanged bit for bit."""
        X = uniform_random(9, 3, 0).points
        assert np.array_equal(transform(np.eye(3), X), X)

    def test_transform_zero(self):
        """W = 0 maps everything to the origin."""
        X = uniform_random(5, 2, 1).points
        assert np.array_equal(transform(np.zeros((4, 2)), X), np.zeros((5, 4)))

    def test_transform_hand_value(self):
        """W = [[1, .5], [0, 1]] sends (1, 1) to (1.5, 1)."""
        W = np.array([[1.0, 0.5], [0.0, 1.0]])
        T = transform(W, np.array([[1.0, 1.0]]))
        assert np.allclose(T, np.array([[1.5, 1.0]]), rtol=1e-15)

    def test_transform_dim_mismatch(self):
        """Column counts must agree."""
        with pytest.raises(DomainError):
            transform(np.eye(3), np.zeros((4, 2)))

    def test_default_node_count(self):
        """max(1, min(n - 5, 5 d)) at a few corners."""
        assert default_node_count(40, 8) == 35
        assert default_node_count(8, 1) == 3
        assert default_node_count(6, 5) == 1
        assert default_node_count(3, 2) == 1
        assert default_node_count(100, 4) == 20


class TestLossAndGradient:
    """The objective and its analytic gradient."""

    def test_spec_instance_matches_finite_differences(self):
        """6-point, d=2, M=3 instance: rel err <= 1e-4 (observed ~1e-11)."""
        rng = np.random.default_rng(0)
        X = uniform_random(6, 2, 0).points
        Y = rng.normal(size=6)
        W = init_weights(2, 3, 1)
        assert gradient_relative_error(W, X, Y, matern(2.5)) <= 1e-4

    def test_twenty_random_instances_both_families(self):
        """>= 20 random (n <= 8, d <= 3, M <= 5) instances, both families.

        Matern 2.0 takes the Bessel route for both the value and the
        derivative (smoothness 1.0 is not a half-integer).
        """
        rng = np.random.default_rng(42)
        checked = 0
        for trial in range(10):
            n = int(rng.integers(4, 9))
            d = int(rng.integers(1, 4))
            M = int(rng.integers(1, 6))
            X = uniform_random(n, d, trial).points
            Y = rng.normal(size=n)
            W = init_weights(d, M, trial + 100)
            for kernel1d in (matern(2.5), gaussian(1.0), matern(2.0)):
                assert gradient_relative_error(W, X, Y, kernel1d) <= 1e-4, (
                    f"trial {trial} {kernel1d.family} nu={kernel1d.nu}: "
                    "gradient mismatch"
                )
                checked += 1
        assert checked >= 20

    def test_zero_response_leaves_trace_term_only(self):
        """Y = 0 kills the quadratic term: loss is the log-determinant."""
        X = uniform_random(7, 2, 3).points
        Y = np.zeros(7)
        W = init_weights(2, 4, 0)
        kernel1d = matern(2.5)
        loss, G = loss_and_gradient(W, X, Y, kernel1d)
        K = MultivariateKernel(base=kernel1d, structure="additive", dim=4).gram(
            transform(W, X)
        )
        chol = cholesky_with_jitter(K, 1e-6)
        assert np.isclose(loss, logdet(chol), rtol=1e-12)
        G_fd = finite_difference_gradient(W, X, Y, kernel1d)
        assert np.max(np.abs(G - G_fd)) <= 1e-4 * np.max(np.abs(G_fd))

    def test_duplicate_rows_match_manual_average(self):
        """A W with two equal rows reproduces the plain 1/M-average loss.

        Oracle: build the Gram matrix by explicitly averaging the base
        correlation across the M projected lags, factor it, and assemble
        the objective by hand.  The package sorts the per-node values
        before averaging, so the two sums differ in the last ulps, which
        the near-singular solve amplifies to ~1e-11 relative; any wrong
        node weighting would show up at the 1e-1 level.
        """
        rng = np.random.default_rng(5)
        X = uniform_random(8, 2, 4).points
        Y = rng.normal(size=8)
        kernel1d = matern(2.5)
        W = init_weights(2, 3, 9)
        W = np.vstack([W, W[1]])  # M = 4 with rows 1 and 3 identical
        loss, _ = loss_and_gradient(W, X, Y, kernel1d)

        M = W.shape[0]
        T = transform(W, X)
        K = np.zeros((8, 8))
        for k in range(M):
            lag = T[:, k][:, None] - T[:, k][None, :]
            K += kernel1d(lag)
        K /= M
        chol = cholesky_with_jitter(K, 1e-6)
        manual = float(Y @ solve_spd(chol, Y) + logdet(chol))
        assert np.isclose(loss, manual, rtol=1e-8)

    def test_row_permutation_invariance(self):
        """Permuting the rows of W permutes the gradient and fixes the loss."""
        rng = np.random.default_rng(6)
        X = uniform_random(7, 3, 5).points
        Y = rng.normal(size=7)
        W = init_weights(3, 5, 2)
        perm = np.array([3, 0, 4, 1, 2])
        l1, G1 = loss_and_gradient(W, X, Y, matern(2.5))
        l2, G2 = loss_and_gradient(W[perm], X, Y, matern(2.5))
        assert l1 == l2
        assert np.array_equal(G1[perm], G2)

    def test_non_differentiable_kernel_rejected(self):
        """Matern nu <= 1 cannot drive weight training."""
        X = uniform_random(5, 2, 0).points
        Y = np.ones(5)
        W = init_weights(2, 2, 0)
        for nu in (0.5, 1.0):
            with pytest.raises(DomainError):
                loss_and_gradient(W, X, Y, matern(nu))

    def test_non_finite_weights_are_numeric_failure(self):
        """nan weights raise the numeric error the trainer treats as divergence."""
        from ppgp import SingularMatrixError

        X = uniform_random(5, 2, 0).points
        Y = np.ones(5)
        W = np.full((3, 2), np.nan)
        with pytest.raises(SingularMatrixError):
            loss_and_gradient(W, X, Y, matern(2.5))

    def test_non_finite_nugget_is_numeric_failure(self):
        """A nan nugget is rejected by the factorization, not passed to scipy."""
        from ppgp import SingularMatrixError

        X = halton(6, 2).points
        W = init_weights(2, 3, 0)
        with pytest.raises(SingularMatrixError, match="delta0"):
            loss_and_gradient(W, X, np.ones(6), matern(2.5), nugget=float("nan"))

    def test_overflowing_projection_is_numeric_failure(self):
        """Finite weights whose projections or lags overflow are a numeric failure."""
        from ppgp import SingularMatrixError

        X = halton(8, 2).points
        Y = np.ones(8)
        with pytest.raises(SingularMatrixError):
            loss_and_gradient(np.full((3, 2), 1.5e308), X, Y, matern(2.5))
        # every projection is finite, but x_0 - x_1 is not
        X2 = np.array([[1.0], [-1.0], [0.0]])
        with pytest.raises(SingularMatrixError):
            loss_and_gradient(np.array([[1e308]]), X2, np.ones(3), gaussian(1.0))

    def test_misshapen_responses_are_a_domain_error(self):
        """A Y that is not one response per row of X is bad input, not the
        numeric failure the trainer would record as divergence."""
        X = halton(6, 2).points
        W = init_weights(2, 3, 0)
        for Y in (np.ones(5), np.ones((6, 2)), np.array([1.0, 2, 3, 4, 5, np.nan])):
            with pytest.raises(DomainError):
                loss_and_gradient(W, X, Y, matern(2.5))
        # a column of n responses is still one per row
        assert loss_and_gradient(W, X, np.ones((6, 1)), matern(2.5))[0] == (
            loss_and_gradient(W, X, np.ones(6), matern(2.5))[0]
        )

    def test_cached_pair_indices_follow_n(self):
        """Calls that alternate n reuse each n's pair indices and give the
        bits of a first call; the shared index arrays are read-only."""
        from ppgp.pursuit import _pair_indices

        rng = np.random.default_rng(8)
        cases = {}
        for n in (7, 12):
            X = uniform_random(n, 3, n).points
            Y = rng.normal(size=n)
            W = init_weights(3, 4, n)
            _pair_indices.cache_clear()
            cases[n] = (X, Y, W, loss_and_gradient(W, X, Y, matern(2.5)))
        _pair_indices.cache_clear()
        for n in (7, 12, 7):
            X, Y, W, (loss, grad) = cases[n]
            again, grad_again = loss_and_gradient(W, X, Y, matern(2.5))
            assert again == loss and grad_again.tobytes() == grad.tobytes()
        assert _pair_indices.cache_info().hits == 1
        for index in _pair_indices(7):
            with pytest.raises(ValueError):
                index[0] = 1


class TestTrainConfig:
    """Hyperparameter validation."""

    def test_rejects_bad_values(self):
        """Negative eta, M < 1, epochs < 1 are construction errors."""
        with pytest.raises(DomainError):
            TrainConfig(eta=-1e-9, epochs=10, M=3)
        with pytest.raises(DomainError):
            TrainConfig(eta=1e-9, epochs=10, M=0)
        with pytest.raises(DomainError):
            TrainConfig(eta=1e-9, epochs=0, M=3)
        for eta in (np.nan, np.inf):
            with pytest.raises(DomainError):
                TrainConfig(eta=eta, epochs=10, M=3)
        for nugget in (-1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                TrainConfig(eta=1e-9, epochs=10, M=3, nugget=nugget)

    def test_non_finite_early_stop_rel_rejected(self):
        """A nan threshold never stops early and inf always stops at the
        first window, so neither is a usable setting."""
        for rel in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match="early_stop_rel"):
                TrainConfig(eta=1e-9, epochs=10, M=3, early_stop_rel=rel)

    def test_eta_zero_allowed(self):
        """eta = 0 is a valid degenerate configuration (no updates)."""
        cfg = TrainConfig(eta=0.0, epochs=5, M=2)
        assert cfg.eta == 0.0
        assert cfg.early_stop_rel == 0.04


class TestTrain:
    """The gradient-descent loop."""

    def test_eta_zero_reduces_to_additive_gp(self):
        """eta=0 with W=I and M=d is exactly a plain additive GP."""
        fn = by_name("additive-sine")
        X = halton(20, 5).points
        Y = fn.eval_unit(X)
        cfg = TrainConfig(eta=0.0, epochs=3, M=5)
        m = train(X, Y, matern(2.5), cfg, W0=np.eye(5))
        assert np.array_equal(m.W, np.eye(5))
        gp = fit(X, Y, MultivariateKernel(base=matern(2.5), structure="additive", dim=5))
        Xt = uniform_random(100, 5, 7).points
        assert np.array_equal(m.predict(Xt), gp.predict(Xt))
        losses = [l for _, l in m.trace]
        assert all(l == losses[0] for l in losses)
        assert m.best_epoch == 0

    def test_descent_with_small_enough_eta(self):
        """Halving eta at most 10 times finds monotone improvement by epoch 10."""
        rng = np.random.default_rng(8)
        X = uniform_random(12, 2, 6).points
        Y = np.sin(2.0 * np.pi * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.normal(size=12)
        eta = 1e-2
        for _ in range(11):
            cfg = TrainConfig(eta=eta, epochs=10, M=4, seed=3, early_stop_rel=0.0)
            m = train(X, Y, matern(2.5), cfg)
            losses = [l for _, l in m.trace]
            if not m.diverged and len(losses) == 11 and losses[10] < losses[0]:
                break
            eta *= 0.5
        else:
            pytest.fail("no eta in 10 halvings achieved descent")
        assert losses[10] < losses[0]

    def test_best_epoch_never_worse_than_initial(self):
        """trace[best] <= trace[0], and best_epoch indexes the trace minimum."""
        fn = by_name("borehole")
        X = halton(25, 8).points
        Y = fn.eval_unit(X)
        cfg = TrainConfig(eta=1e-7, epochs=60, M=15, seed=0, early_stop_rel=0.0)
        m = train(X, Y, matern(2.5), cfg)
        losses = [l for _, l in m.trace]
        assert losses[m.best_epoch] <= losses[0]
        assert losses[m.best_epoch] == min(losses)

    def test_interpolation_at_training_sites(self):
        """The refitted inner GP nearly interpolates the training data."""
        fn = by_name("otl-circuit")
        X = halton(20, 6).points
        Y = fn.eval_unit(X)
        cfg = TrainConfig(eta=1e-8, epochs=40, M=15, seed=1)
        m = train(X, Y, matern(2.5), cfg)
        assert np.max(np.abs(m.predict(X) - Y)) <= 1e-3 * np.max(np.abs(Y))

    def test_determinism(self):
        """Same data, config, and seed give identical traces and predictions."""
        fn = by_name("borehole")
        X = halton(15, 8).points
        Y = fn.eval_unit(X)
        cfg = TrainConfig(eta=1e-8, epochs=25, M=8, seed=5)
        m1 = train(X, Y, matern(2.5), cfg)
        m2 = train(X, Y, matern(2.5), cfg)
        assert m1.trace == m2.trace
        assert np.array_equal(m1.W, m2.W)
        Xt = uniform_random(60, 8, 11).points
        assert np.array_equal(m1.predict(Xt), m2.predict(Xt))

    def test_early_stopping_cuts_the_run_short(self):
        """A demanding improvement threshold stops at the 10-epoch window."""
        fn = by_name("borehole")
        X = halton(20, 8).points
        Y = fn.eval_unit(X)
        slow = TrainConfig(eta=1e-10, epochs=200, M=10, seed=0, early_stop_rel=0.5)
        m = train(X, Y, matern(2.5), slow)
        assert len(m.trace) < 201
        full = TrainConfig(eta=1e-10, epochs=30, M=10, seed=0, early_stop_rel=0.0)
        m_full = train(X, Y, matern(2.5), full)
        assert len(m_full.trace) == 31

    def test_exploding_eta_flags_divergence(self):
        """A step into non-finite weights aborts to the best finite epoch."""
        X = halton(8, 2).points
        Y = X[:, 0] + X[:, 1]
        cfg = TrainConfig(eta=1e160, epochs=30, M=3, seed=0)
        m = train(X, Y, matern(2.5), cfg)
        assert m.diverged
        assert m.best_epoch == 0
        assert len(m.trace) >= 1
        assert np.all(np.isfinite(m.predict(X)))

    def test_all_epochs_diverged_is_a_training_error(self):
        """No finite loss at all names its cause: the initial weights, which
        no step of eta has touched yet.

        With 1.5e308 the weights are finite but the projections overflow.
        """
        from ppgp import SingularMatrixError

        X = halton(8, 2).points
        Y = X[:, 0] + X[:, 1]
        cfg = TrainConfig(eta=1e-8, epochs=5, M=3, seed=0)
        for w in (1e200, 1.5e308):
            with pytest.raises(TrainingError) as exc:
                train(X, Y, matern(2.5), cfg, W0=np.full((3, 2), w))
            assert "initial weights give no finite loss" in str(exc.value)
            assert isinstance(exc.value.__cause__, SingularMatrixError)
            assert str(exc.value.__cause__) in str(exc.value)

    def test_overflowing_objective_is_a_training_error_without_warnings(self):
        """Responses so large that Y^T alpha overflows stop at the objective,
        before the gradient, with no floating-point warning on the way."""
        import warnings

        from ppgp import SingularMatrixError

        X = halton(12, 2).points
        Y = by_name("xy-plus-x2").eval_unit(X) * 1e200
        cfg = TrainConfig(eta=1e-8, epochs=5, M=3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError, match="objective"):
                loss_and_gradient(init_weights(2, 3, 0), X, Y, matern(2.5))
            with pytest.raises(TrainingError, match="objective is not finite"):
                train(X, Y, matern(2.5), cfg)

    def test_best_loss_equals_refitted_log_likelihood(self):
        """The pair pass builds the Gram matrix of the refitted GP bit for bit."""
        fn = by_name("borehole")
        X = halton(20, 8).points
        Y = fn.eval_unit(X)
        cfg = TrainConfig(eta=1e-8, epochs=10, M=10, seed=3, early_stop_rel=0.0)
        for kernel1d in (matern(2.5), matern(3.5), gaussian(1.0)):
            m = train(X, Y, kernel1d, cfg)
            assert m.trace[m.best_epoch][1] == m.inner.log_likelihood(), (
                f"{kernel1d.family} nu={kernel1d.nu}"
            )

    def test_input_validation(self):
        """Too little data, shape mismatch, and non-finite inputs raise."""
        cfg = TrainConfig(eta=1e-8, epochs=5, M=2)
        with pytest.raises(TrainingError):
            train(np.array([[0.5, 0.5]]), np.array([1.0]), matern(2.5), cfg)
        with pytest.raises(TrainingError):
            train(np.zeros((3, 2)), np.zeros(4), matern(2.5), cfg)
        with pytest.raises(TrainingError):
            train(np.full((3, 2), np.nan), np.zeros(3), matern(2.5), cfg)

    def test_mismatched_w0_rejected(self):
        """W0 must be M x d."""
        cfg = TrainConfig(eta=1e-8, epochs=5, M=3)
        with pytest.raises(TrainingError):
            train(halton(6, 2).points, np.zeros(6), matern(2.5), cfg,
                  W0=np.eye(2))

    def test_batch_predict_equals_single_predicts(self):
        """Predicting 500 sites in one call matches 500 single calls bitwise."""
        fn = by_name("borehole")
        X = halton(20, 8).points
        Y = fn.eval_unit(X)
        cfg = TrainConfig(eta=1e-8, epochs=20, M=10, seed=2)
        m = train(X, Y, matern(2.5), cfg)
        Xt = uniform_random(500, 8, 13).points
        batch = m.predict(Xt)
        singles = np.array([m.predict(x[None, :])[0] for x in Xt])
        assert np.array_equal(batch, singles)

    def test_row_permuted_w0_gives_identical_loss_trace(self):
        """The additive average is symmetric in nodes."""
        rng = np.random.default_rng(14)
        X = uniform_random(10, 3, 8).points
        Y = rng.normal(size=10)
        W0 = init_weights(3, 4, 21)
        perm = np.array([2, 3, 1, 0])
        cfg = TrainConfig(eta=1e-4, epochs=15, M=4, seed=0, early_stop_rel=0.0)
        m1 = train(X, Y, matern(2.5), cfg, W0=W0)
        m2 = train(X, Y, matern(2.5), cfg, W0=W0[perm])
        assert [l for _, l in m1.trace] == [l for _, l in m2.trace]
        Xt = uniform_random(40, 3, 15).points
        assert np.array_equal(m1.predict(Xt), m2.predict(Xt))


class TestGradientRuntime:
    """The finite-difference validation stays cheap."""

    def test_twenty_instances_within_ten_seconds(self):
        """The acceptance-grade gradient check runs in <= 10 s."""
        rng = np.random.default_rng(7)
        start = time.time()
        checked = 0
        for trial in range(10):
            n = int(rng.integers(4, 9))
            d = int(rng.integers(1, 4))
            M = int(rng.integers(1, 6))
            X = uniform_random(n, d, trial + 50).points
            Y = rng.normal(size=n)
            W = init_weights(d, M, trial)
            for kernel1d in (matern(2.5), gaussian(1.0)):
                assert gradient_relative_error(W, X, Y, kernel1d) <= 1e-4
                checked += 1
        elapsed = time.time() - start
        assert checked >= 20
        assert elapsed <= 10.0


class TestGradientMemory:
    """One objective evaluation never builds an n x n x M tensor."""

    def test_peak_traced_memory_at_n_800(self):
        """n=800, M=40, d=8: traced peak <= 256 MB (an n^2 M tensor is 205 MB)."""
        rng = np.random.default_rng(11)
        X = uniform_random(800, 8, 4).points
        Y = rng.normal(size=800)
        W = init_weights(8, 40, 5)
        tracemalloc.start()
        try:
            loss, grad = loss_and_gradient(W, X, Y, matern(2.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert peak <= 256 * 2**20, f"peak {peak / 2**20:.0f} MB"
