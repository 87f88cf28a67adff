"""Projection-pursuit Gaussian-process regression.

The model applies a learned linear map ``W`` (M x d, M typically >= d) to
the inputs and fits a GP with an additive correlation over the M
transformed coordinates.  ``W`` is trained by full-batch gradient descent
on the objective

    l(W) = Y^T (K_W + delta I)^-1 Y + log det(K_W + delta I),

where ``K_W[i, j]`` averages the base correlation over the M projected
lags ``w_k^T (x_i - x_j)``.  ``l`` is minus twice the Gaussian
log-likelihood at unit process variance, up to a constant; it is not the
variance-profiled likelihood, whose data term is
``n log(Y^T (K_W + delta I)^-1 Y)``.  The gradient in each row ``w_k``
follows the standard identity

    dl/dtheta = -alpha^T (dK/dtheta) alpha + tr(K^-1 dK/dtheta),
    alpha = (K + delta I)^-1 Y,

with ``dK/dw_k[i, j] = (1/M) k'(w_k^T (x_i - x_j)) (x_i - x_j)``.

:func:`loss_and_gradient` makes one pass over the pairs ``i < j`` in
blocks of ``max(BLOCK_LAGS // M, n)`` pairs.  Each block evaluates the
kernel value and its derivative at the M projected lags from one shared
``exp``, writes the values' mean, which
:meth:`MultivariateKernel.combine` sums exactly in fixed point, into
``K[i, j]`` and ``K[j, i]`` (bit-identical to
:meth:`MultivariateKernel.gram`), and writes the derivatives straight
into their slice of the stored ones.  Every pair goes through the same
elementwise operations whatever its block, so the block size changes no
bit.  ``K^-1`` and ``alpha alpha^T`` are symmetric and ``k'`` is odd,
so pair ``(i, j)`` enters the gradient with the weight
``2 (K^-1[j, i] - alpha_i alpha_j) / M``, read from the lower triangle of
K^-1 that :func:`~ppgp.linalg.inverse_spd` returns;
after the factorization the gradient is one matrix product per block of
:data:`CONTRACTION_LAGS` lags, whose blocks set the order of its sum.
Memory is the stored derivatives, about
``4 n^2 M`` bytes, plus O(n^2) for ``K``, its inverse and the pair
indices; no n x n x M tensor is built.  The pair indices depend on n
alone, so they are built once per n and cached, read-only, for the last
:data:`PAIR_CACHE_SIZE` values of n used: about 8 n^2 bytes for each n,
1.3 MB at n = 400.

Within an epoch every row is updated from the same factorization
(Jacobi-style); the returned model is the one at the best-loss epoch, not
the last: the GP that epoch's call already fitted, kept with its ``alpha``
and jitter rung.  Training stops early once the relative loss improvement
over a 10-epoch window falls below a threshold.  Divergence has one path:
a ``SingularMatrixError`` from :func:`loss_and_gradient`, whose causes
include an objective that is not finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, SingularMatrixError, TrainingError
# fit goes unused here, but perfbench/tracer.py patches pursuit.fit
from .gp import DEFAULT_NUGGET, GpModel, _training_data, fit
from .kernels import Kernel1d, MultivariateKernel
from .linalg import cholesky_with_jitter, inverse_spd, logdet, solve_spd

__all__ = [
    "TrainConfig",
    "PpgprModel",
    "init_weights",
    "transform",
    "loss_and_gradient",
    "train",
    "default_node_count",
]

EARLY_STOP_WINDOW = 10
# Lag entries (pairs x M) per block of the pair pass in loss_and_gradient,
# which takes max(BLOCK_LAGS // M, n) pairs a block: each float64 temporary
# is at most 64 KiB while n M <= BLOCK_LAGS.  With 128 KiB temporaries at
# those sizes glibc grew and trimmed the heap around every block unless an
# earlier free of a larger block had raised its trim threshold, so an n=40
# call took about 180 minor page faults and up to twice as long.  At 64 KiB
# the calls fault next to nothing in every process state measured.  Above
# that size the stored derivatives, n (n - 1) M / 2 doubles, take over 6 MB
# (25 MB at n=400, M=40), and freeing them raises glibc's thresholds, so
# blocks of n pairs, half as many blocks at n=400, fault no more.  The
# blocks slice pair indices that _pair_indices caches per n (1.3 MB at
# n=400), so no call rebuilds them.
BLOCK_LAGS = 1 << 13
# Lag entries (pairs x d) per block of the gradient contraction.  Its blocks
# set the order in which the gradient's sum is taken, so this constant fixes
# the gradient's last bits; BLOCK_LAGS fixes none, since the pair pass is
# elementwise in the pairs.
CONTRACTION_LAGS = 1 << 13
# Distinct n whose pair indices stay cached (one CV tune uses two).
PAIR_CACHE_SIZE = 4


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for :func:`train`.

    ``M=None`` means :func:`default_node_count` of the training set;
    :func:`train` resolves it, so a trained model's config holds an integer.
    ``early_stop_rel`` 0 disables early stopping.
    """

    eta: float = 1e-9
    epochs: int = 150
    M: int | None = None
    early_stop_rel: float = 0.04
    seed: int = 0
    nugget: float = DEFAULT_NUGGET
    center: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise DomainError("learning rate eta must be finite and non-negative")
        if not (math.isfinite(self.nugget) and self.nugget >= 0):
            raise DomainError("nugget must be finite and non-negative")
        if not math.isfinite(self.early_stop_rel):
            raise DomainError("early_stop_rel must be finite")
        if self.M is not None and self.M < 1:
            raise DomainError("node count M must be at least 1")
        if self.epochs < 1:
            raise DomainError("epochs must be at least 1")
        if self.seed < 0:
            raise DomainError("seed must be non-negative")


@dataclass(frozen=True)
class PpgprModel:
    """A trained projection-pursuit GP."""

    W: np.ndarray
    inner: GpModel
    trace: tuple
    config: TrainConfig
    best_epoch: int
    diverged: bool = False

    @property
    def M(self) -> int:
        return self.W.shape[0]

    @property
    def dim(self) -> int:
        return self.W.shape[1]

    def predict(self, X) -> np.ndarray:
        """Predictions at the rows of ``X``: transform by W, then the inner GP."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.inner.predict(transform(self.W, X))


def init_weights(d: int, M: int, seed: int) -> np.ndarray:
    """Initial M x d weight matrix, entries i.i.d. normal(0, 1/d)."""
    if d < 1 or M < 1:
        raise DomainError("d and M must be at least 1")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / np.sqrt(d), size=(M, d))


def transform(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Project the rows of ``X`` (n x d) onto the rows of ``W``: returns n x M.

    Written as an explicit einsum so each entry is accumulated in the same
    order whatever the batch size; transforming one row at a time matches
    the batched result bit for bit.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if W.shape[1] != X.shape[1]:
        raise DomainError(
            f"W has {W.shape[1]} columns but X has {X.shape[1]}"
        )
    return np.einsum("nd,md->nm", X, W)


def default_node_count(n: int, d: int) -> int:
    """Fallback node count: slightly below the sample size, capped at 5 d."""
    return max(1, min(n - 5, 5 * d))


@functools.lru_cache(maxsize=PAIR_CACHE_SIZE)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, made read-only because it is shared."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _additive_kernel(base: Kernel1d, M: int) -> MultivariateKernel:
    return MultivariateKernel(base=base, structure="additive", dim=M)


def loss_and_gradient(
    W: np.ndarray,
    X: np.ndarray,
    Y: np.ndarray,
    kernel1d: Kernel1d,
    nugget: float = DEFAULT_NUGGET,
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Objective value, its exact gradient in the weight matrix, and the
    fit behind them: ``alpha = (K + delta I)^-1 Y`` and the jitter rung
    ``delta`` its factorization reached.

    ``Y`` is used as given (center beforehand if the model is centered).
    ``K`` has the bits of :meth:`MultivariateKernel.gram` on ``transform(W,
    X)``, so ``alpha`` and ``delta`` have the bits of a fit of the additive
    GP there.
    Raises ``DomainError`` for kernels without a usable derivative (Matérn
    needs nu > 1) and for a ``Y`` that is not one finite response per row
    of ``X``, and ``SingularMatrixError``, which :func:`train` treats
    as divergence, when the weights, the projected lags or the objective
    are not finite or the correlation matrix cannot be factored.  The
    objective is checked before the gradient, so it raises with no warning.
    """
    if not kernel1d.differentiable:
        raise DomainError(
            "weight training needs a differentiable kernel "
            "(matern with nu > 1, or gaussian)"
        )
    W = np.atleast_2d(np.asarray(W, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    if Y.size != X.shape[0]:
        raise DomainError(
            f"Y has shape {Y.shape} but X has {X.shape[0]} rows; "
            "expected one response per row"
        )
    Y = Y.reshape(-1)
    if not np.isfinite(Y).all():
        raise DomainError("responses Y contain non-finite entries")
    if not np.isfinite(W).all():
        # Weights blow up when the step size is too aggressive; surface it
        # as the numeric failure the training loop treats as divergence.
        raise SingularMatrixError("weight matrix contains non-finite entries")
    M = W.shape[0]
    T = transform(W, X)
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.ptp(T, axis=0)
    if not np.isfinite(spread).all():
        # Finite weights can still project the inputs past the float range;
        # every lag is bounded by its column's spread, so this one check
        # covers them all.
        raise SingularMatrixError("projected inputs W x overflow to non-finite lags")

    # One pass over the pairs i < j: K from the kernel values, k' kept
    n = X.shape[0]
    kernel = _additive_kernel(kernel1d, M)
    iu, ju = _pair_indices(n)
    step = max(1, BLOCK_LAGS // M, n)
    dk = np.empty((iu.size, M))
    k_pairs = np.empty(iu.size)
    for start in range(0, iu.size, step):
        block = slice(start, start + step)
        # take gathers rows about twice as fast as T[iu[block]] at these
        # sizes, with the same bits
        lags = T.take(iu[block], axis=0) - T.take(ju[block], axis=0)
        # every lag is bounded by its column's spread, checked finite
        # above; k' is written straight into its slice of dk
        k, _ = kernel1d._value_and_derivative(lags, out=dk[block])
        k_pairs[block] = kernel.combine(k)
    K = np.empty((n, n))
    K[iu, ju] = K[ju, iu] = k_pairs
    np.fill_diagonal(K, 1.0)                          # M ones averaged

    chol = cholesky_with_jitter(K, nugget)
    alpha = solve_spd(chol, Y)
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float(Y @ alpha + logdet(chol))
    if not math.isfinite(loss):
        raise SingularMatrixError(f"objective is not finite ({loss!r})")

    # K^-1 - alpha alpha^T contracts against dK/dw_k; both are symmetric
    # and k' is odd, so the pairs (i, j) and (j, i) share the weight
    # 2 (K^-1[j, i] - alpha_i alpha_j) / M, from K^-1's lower triangle
    pair_weight = inverse_spd(chol)[ju, iu]
    pair_weight -= alpha.take(iu) * alpha.take(ju)
    pair_weight *= 2.0
    pair_weight /= M
    # the contraction's temporaries hold pairs x d entries, not pairs x M
    grad = np.zeros((M, X.shape[1]))
    step = max(1, CONTRACTION_LAGS // X.shape[1])
    for start in range(0, iu.size, step):
        block = slice(start, start + step)
        D = X.take(iu[block], axis=0) - X.take(ju[block], axis=0)
        D *= pair_weight[block, None]
        grad += dk[block].T @ D                       # (M, d)
    return loss, grad, alpha, chol.jitter_used


def train(
    X: np.ndarray,
    Y: np.ndarray,
    kernel1d: Kernel1d,
    cfg: TrainConfig,
    W0: np.ndarray | None = None,
) -> PpgprModel:
    """Gradient-descent training of the projection weights.

    Runs at most ``cfg.epochs`` full-gradient steps, recording the loss at
    every visited weight matrix (epoch 0 is the initial one).  Stops early
    when the relative improvement over the trailing 10-epoch window drops
    below ``cfg.early_stop_rel``.  A ``SingularMatrixError`` from
    :func:`loss_and_gradient` (a non-finite objective among its causes) is
    divergence: the loop falls back to the best weights seen so far
    (flagged ``diverged``), or at epoch 0 raises ``TrainingError``.

    Returns the model at the best-loss epoch, whose config holds the
    resolved node count.  Its inner GP is the one that epoch's
    :func:`loss_and_gradient` call fitted, with that call's ``alpha`` and
    jitter rung.
    """
    X, Y = _training_data(X, Y, TrainingError)
    d = X.shape[1]
    if cfg.M is None:
        cfg = replace(cfg, M=default_node_count(*X.shape))

    W = init_weights(d, cfg.M, cfg.seed) if W0 is None else np.array(W0, dtype=float)
    if W.shape != (cfg.M, d):
        raise TrainingError(f"W0 shape {W.shape} does not match (M={cfg.M}, d={d})")

    mean = float(np.mean(Y)) if cfg.center else 0.0
    yc = Y - mean

    trace: list[tuple[int, float]] = []
    best_loss = np.inf
    best_W = W.copy()
    best_epoch = 0
    best_alpha, best_jitter = None, None
    diverged = False

    for epoch in range(cfg.epochs + 1):
        try:
            loss, grad, alpha, jitter = loss_and_gradient(W, X, yc, kernel1d, cfg.nugget)
        except SingularMatrixError as exc:
            if epoch == 0:
                raise TrainingError(f"the initial weights give no finite loss: {exc}") from exc
            diverged = True
            break
        trace.append((epoch, loss))
        if loss < best_loss:
            best_loss, best_W, best_epoch = loss, W.copy(), epoch
            best_alpha, best_jitter = alpha, jitter
        if epoch >= EARLY_STOP_WINDOW:
            ref = trace[epoch - EARLY_STOP_WINDOW][1]
            if ref - loss < cfg.early_stop_rel * abs(ref):
                break
        if epoch < cfg.epochs:
            # a step that overflows leaves W non-finite, which the next
            # loss_and_gradient call turns into divergence
            with np.errstate(over="ignore", invalid="ignore"):
                W = W - cfg.eta * grad

    inner = GpModel(
        design=transform(best_W, X),
        responses=Y,
        kernel=_additive_kernel(kernel1d, cfg.M),
        nugget=cfg.nugget,
        center=cfg.center,
        center_mean=mean,
        alpha=best_alpha,
        jitter_used=best_jitter,
    )
    return PpgprModel(
        W=best_W,
        inner=inner,
        trace=tuple(trace),
        config=cfg,
        best_epoch=best_epoch,
        diverged=diverged,
    )
