"""Experiment harness: model specs, relative RMSE, train/test runs, cross-validation.

The headline metric is the relative root mean square error

    rmse = sqrt((1/n) sum_i ((yhat_i - y_i) / y_i)^2),

which is undefined when any truth value is zero; an absolute RMSE is
provided as the secondary metric and as the fallback inside the tuner.

A :class:`ModelSpec` names one of the four surrogates (isotropic /
product / additive GP, or the projection-pursuit GP) with its kernel and
training settings, and :func:`make_model` fits it to a training
set.  Every route to a model goes through that pair: ``run_experiment``,
``cross_validate``, ``benchmark_table`` and the command line.

``run_experiment`` reproduces the standard benchmark protocol: Halton
training design of size 5 d (unless overridden), 500 seeded
uniform-random test points, weights seeded from the same master seed.
Its :class:`ExperimentReport`, one per ``benchmark_table`` row, carries
in ``spec`` the :class:`ModelSpec` with ``ppgpr``'s resolved node count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .benchmarks import BenchmarkFn, by_name
from .designs import halton, uniform_random
from .errors import ConfigError, DomainError, MetricError, TrainingError
from .gp import GpModel, fit
from .kernels import Kernel1d, MultivariateKernel
from .pursuit import PpgprModel, TrainConfig, train

__all__ = [
    "METHODS",
    "ModelSpec",
    "make_model",
    "rmse",
    "rmse_absolute",
    "ExperimentReport",
    "run_experiment",
    "TuneGrid",
    "fold_indices",
    "cross_validate",
    "benchmark_table",
]

METHODS = ("gp-iso", "gp-pro", "gp-add", "ppgpr")

_METHOD_STRUCTURE = {"gp-iso": "isotropic", "gp-pro": "product", "gp-add": "additive"}
# uniform-random test points per experiment
_N_TEST = 500


@dataclass(frozen=True)
class ModelSpec:
    """One surrogate: its method, 1-d kernel and training settings.

    The GP methods read only the config's ``nugget`` and ``center``; the
    rest of it trains the projection-pursuit weights, seeded by
    ``config.seed``.
    """

    method: str
    kernel: Kernel1d = Kernel1d("matern", 2.5)
    config: TrainConfig = TrainConfig()

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; valid: {', '.join(METHODS)}"
            )


def make_model(spec: ModelSpec, U: np.ndarray, Y: np.ndarray) -> GpModel | PpgprModel:
    """Fit ``spec``'s surrogate to responses ``Y`` at the rows of ``U``."""
    if spec.method == "ppgpr":
        return train(U, Y, spec.kernel, spec.config)
    kernel = MultivariateKernel(
        base=spec.kernel, structure=_METHOD_STRUCTURE[spec.method], dim=U.shape[1]
    )
    return fit(U, Y, kernel, nugget=spec.config.nugget, center=spec.config.center)


def _vectors(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=float).reshape(-1)
    truth = np.asarray(truth, dtype=float).reshape(-1)
    if pred.shape != truth.shape:
        raise MetricError(f"length mismatch: {pred.shape[0]} vs {truth.shape[0]}")
    if truth.shape[0] == 0:
        raise MetricError("empty vectors")
    return pred, truth


def rmse(pred, truth) -> float:
    """Relative root mean square error; errors when any truth value is 0."""
    pred, truth = _vectors(pred, truth)
    if np.any(truth == 0.0):
        raise MetricError(
            "relative RMSE undefined: truth contains zeros "
            "(use rmse_absolute as a fallback)"
        )
    return float(np.sqrt(np.mean(((pred - truth) / truth) ** 2)))


def rmse_absolute(pred, truth) -> float:
    """Plain root mean square error, the secondary metric."""
    pred, truth = _vectors(pred, truth)
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def _safe_rmse(pred, truth) -> float:
    try:
        return rmse(pred, truth)
    except MetricError:
        return rmse_absolute(pred, truth)


@dataclass(frozen=True)
class ExperimentReport:
    """One (spec, function, seed) evaluation, mirroring a results-table row.

    ``spec`` is the surrogate as built: its config holds the weight seed
    and, for ``ppgpr``, the resolved ``M``.
    """

    spec: ModelSpec
    function: str
    n_train: int
    n_test: int
    seed: int
    rmse: float
    rmse_abs: float
    diverged: bool = False


def _experiment_seeds(seed: int) -> tuple[int, int]:
    """Independent child seeds (test design, weight init) from a master seed."""
    children = np.random.SeedSequence(seed).spawn(2)
    return tuple(int(c.generate_state(1)[0]) for c in children)


def _halton_training(fn: BenchmarkFn, n_train: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The protocol's training set: ``n_train`` Halton points (5 d when
    None) in the unit cube and ``fn``'s values there.  Every model needs
    at least 2 of them."""
    if n_train is not None and n_train < 2:
        raise DomainError(f"the training set needs at least 2 points, got n_train={n_train}")
    U = halton(5 * fn.dim if n_train is None else n_train, fn.dim).points
    return U, fn.eval_unit(U)


def run_experiment(
    method: str,
    function: str,
    n_train: int | None = None,
    n_test: int = _N_TEST,
    seed: int = 0,
    kernel: Kernel1d = ModelSpec.kernel,
    **config,
) -> ExperimentReport:
    """Train/test one model on one benchmark function.

    ``config`` sets :class:`TrainConfig` fields other than ``seed``; the
    rest keep its defaults.  Training design is Halton (deterministic,
    defaults to 5 d points); test design is seeded uniform-random.  The
    seed drives the test design and, for the projection-pursuit model, the
    weight initialization, through independently spawned child seeds.
    """
    spec = ModelSpec(method, kernel, TrainConfig(**config))
    return _experiment(spec, function, n_train, n_test, seed)


def _experiment(spec: ModelSpec, function: str, n_train: int | None,
                n_test: int, seed: int) -> ExperimentReport:
    fn = by_name(function)
    test_seed, weight_seed = _experiment_seeds(seed)
    spec = replace(spec, config=replace(spec.config, seed=weight_seed))
    U_train, Y_train = _halton_training(fn, n_train)
    U_test = uniform_random(n_test, fn.dim, test_seed).points
    Y_test = fn.eval_unit(U_test)

    model = make_model(spec, U_train, Y_train)
    pred = model.predict(U_test)
    ppgpr = isinstance(model, PpgprModel)
    return ExperimentReport(
        spec=replace(spec, config=model.config) if ppgpr else spec,
        function=function,
        n_train=U_train.shape[0],
        n_test=n_test,
        seed=seed,
        rmse=_safe_rmse(pred, Y_test),
        rmse_abs=rmse_absolute(pred, Y_test),
        diverged=ppgpr and model.diverged,
    )


@dataclass(frozen=True)
class TuneGrid:
    """Hyperparameter grid for :func:`cross_validate`.

    ``kernels`` holds :class:`Kernel1d` values.  Selection ties are
    broken lexicographically: smaller M first, then earlier eta, then
    earlier kernel, so tuning runs are reproducible.
    """

    etas: tuple
    Ms: tuple
    kernels: tuple = (ModelSpec.kernel,)
    folds: int = 5

    def __post_init__(self):
        object.__setattr__(self, "etas", tuple(self.etas))
        object.__setattr__(self, "Ms", tuple(self.Ms))
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if not self.etas or not self.Ms or not self.kernels:
            raise ConfigError("tune grid lists must be non-empty")
        if self.folds < 2:
            raise ConfigError("folds must be at least 2")


def fold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Deterministic partition of range(n) into near-equal folds."""
    if folds > n:
        raise ConfigError(f"folds ({folds}) exceeds sample size ({n})")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def cross_validate(
    X: np.ndarray,
    Y: np.ndarray,
    grid: TuneGrid,
    seed: int = 0,
    **config,
) -> tuple[dict, list[dict]]:
    """K-fold tuning of the projection-pursuit model.

    ``config`` sets the :class:`TrainConfig` fields that the grid does not
    (``epochs``, ``early_stop_rel``, ``nugget``, ``center``).  Returns
    (best point, fold table).  The table has one row per (grid point,
    fold), kernel by kernel, then M, then eta, then fold, with the kernel's
    ``family``, ``nu`` (None for a Gaussian) and ``phi`` and the held-out
    RMSE (relative, absolute fallback on exact zeros).  The best point
    (``eta``, ``M``, ``kernel`` and ``mean_rmse``) minimizes the mean fold
    RMSE, ties broken as :class:`TuneGrid` says.  A fold whose training
    fails scores ``inf``; if every grid point has one, a ``TrainingError``
    says how many folds failed.
    """
    clash = sorted(set(config) & {"eta", "M"})
    if clash:
        raise TypeError(f"cross_validate() takes {', '.join(clash)} from the grid, "
                        "not as keywords")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float).reshape(-1)
    fold_seed, weight_seed = _experiment_seeds(seed)
    base = TrainConfig(**config, seed=weight_seed)
    folds = fold_indices(X.shape[0], grid.folds, fold_seed)
    all_idx = np.arange(X.shape[0])

    table: list[dict] = []
    best, best_key = None, None
    points = product(grid.kernels, grid.Ms, enumerate(grid.etas))
    for gi, (kernel, M, (ei, eta)) in enumerate(points):
        spec = ModelSpec("ppgpr", kernel, replace(base, eta=eta, M=M))
        fold_scores = []
        for fi, hold in enumerate(folds):
            train_idx = np.setdiff1d(all_idx, hold)
            try:
                model = make_model(spec, X[train_idx], Y[train_idx])
                score = _safe_rmse(model.predict(X[hold]), Y[hold])
            except TrainingError:
                score = np.inf
            fold_scores.append(score)
            table.append({
                "grid_index": gi, "eta": eta, "M": M,
                "family": kernel.family, "nu": kernel.nu, "phi": kernel.phi,
                "fold": fi, "rmse": score,
            })
        mean_score = float(np.mean(fold_scores))
        # points come kernel by kernel, so on a full tie the earlier kernel stays
        key = (mean_score, M, ei)
        if best_key is None or key < best_key:
            best_key = key
            best = {"eta": eta, "M": M, "kernel": kernel, "mean_rmse": mean_score}
    if not np.isfinite(best["mean_rmse"]):
        failed = sum(np.isinf(row["rmse"]) for row in table)
        raise TrainingError(f"every grid point has a failed fold: {failed} of "
                            f"{len(table)} folds failed to train")
    return best, table


def benchmark_table(
    functions,
    specs,
    seeds,
    *,
    n_train: int | None = None,
) -> list[ExperimentReport]:
    """Reports for every (function, :class:`ModelSpec`, seed), in that
    nested order."""
    return [
        _experiment(spec, function, n_train, _N_TEST, seed)
        for function in functions for spec in specs for seed in seeds
    ]
