"""Tests for the error metrics, tuning loop, and experiment runner."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ppgp import (
    ConfigError,
    DomainError,
    GpModel,
    Kernel1d,
    MetricError,
    ModelSpec,
    PpgprModel,
    TrainConfig,
    TrainingError,
    TuneGrid,
    by_name,
    cross_validate,
    default_node_count,
    fold_indices,
    gaussian,
    halton,
    make_model,
    matern,
    rmse,
    rmse_absolute,
    run_experiment,
)
import ppgp
from ppgp import evaluation
from ppgp.evaluation import POOL_MAX_N, _experiment_seeds, _safe_rmse


class TestRmse:
    """Relative RMSE and its absolute fallback."""

    def test_exact_prediction_is_zero(self):
        truth = np.array([1.0, -2.0, 3.5])
        assert rmse(truth.copy(), truth) == 0.0

    def test_uniform_ten_percent_error(self):
        """pred = 1.1 truth gives relative RMSE 0.1 whatever the scale."""
        truth = np.array([3.0, -40.0, 0.002, 1e6])
        assert np.isclose(rmse(1.1 * truth, truth), 0.1, rtol=1e-12)

    def test_hand_value(self):
        """(2, 3) vs (1, 2): errors 1 and 0.5, rmse sqrt(0.625)."""
        got = rmse(np.array([2.0, 3.0]), np.array([1.0, 2.0]))
        assert np.isclose(got, 0.7905694150420949, rtol=1e-14)

    def test_scale_invariance(self):
        """Scaling pred and truth together leaves the metric unchanged.

        A power-of-two factor cancels exactly in floating point, so that
        case is checked with ==; a general factor to 1e-12.
        """
        rng = np.random.default_rng(3)
        truth = rng.uniform(0.5, 2.0, size=40)
        pred = truth + rng.normal(scale=0.1, size=40)
        base = rmse(pred, truth)
        assert rmse(4.0 * pred, 4.0 * truth) == base
        assert np.isclose(rmse(3.0 * pred, 3.0 * truth), base, rtol=1e-12)

    def test_zero_truth_errors_and_names_fallback(self):
        pred = np.array([1.0, 2.0])
        truth = np.array([0.0, 2.0])
        with pytest.raises(MetricError) as exc:
            rmse(pred, truth)
        assert "rmse_absolute" in str(exc.value)
        assert np.isclose(
            rmse_absolute(pred, truth), np.sqrt(0.5), rtol=1e-14
        )

    def test_absolute_hand_value(self):
        got = rmse_absolute(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        assert np.isclose(got, np.sqrt(2.5), rtol=1e-14)

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricError):
            rmse(np.ones(3), np.ones(4))
        with pytest.raises(MetricError):
            rmse_absolute(np.ones(3), np.ones(4))

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            rmse(np.array([]), np.array([]))
        with pytest.raises(MetricError):
            rmse_absolute(np.array([]), np.array([]))


class TestFoldIndices:
    """Deterministic k-fold partitions."""

    def test_partition_is_disjoint_and_covering(self):
        folds = fold_indices(23, 5, seed=7)
        combined = np.concatenate(folds)
        assert len(combined) == 23
        assert np.array_equal(np.sort(combined), np.arange(23))

    def test_sizes_near_equal(self):
        folds = fold_indices(23, 5, seed=7)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        a = fold_indices(30, 4, seed=11)
        b = fold_indices(30, 4, seed=11)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_seed_changes_assignment(self):
        a = fold_indices(30, 4, seed=0)
        b = fold_indices(30, 4, seed=1)
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_more_folds_than_points_rejected(self):
        with pytest.raises(ConfigError):
            fold_indices(3, 5, seed=0)


class TestTuneGrid:
    """Grid construction and validation."""

    def test_empty_lists_rejected(self):
        with pytest.raises(ConfigError):
            TuneGrid(etas=(), Ms=(10,))
        with pytest.raises(ConfigError):
            TuneGrid(etas=(1e-8,), Ms=())
        with pytest.raises(ConfigError):
            TuneGrid(etas=(1e-8,), Ms=(10,), kernels=())

    def test_too_few_folds_rejected(self):
        with pytest.raises(ConfigError):
            TuneGrid(etas=(1e-8,), Ms=(10,), folds=1)

    def test_points_enumeration(self):
        """cross_validate's table runs kernel, then M, then eta, then fold,
        and records the built kernel's nu (None for a Gaussian)."""
        fn = by_name("xy-plus-x2")
        U = halton(12, 2).points
        grid = TuneGrid(
            etas=(1e-8, 1e-9), Ms=(4, 3), folds=2,
            kernels=(matern(2.5, 1.0), Kernel1d("gaussian", 2.5, 0.5)),
        )
        _, table = cross_validate(U, fn.eval_unit(U), grid, seed=0, epochs=2)
        got = [(r["grid_index"], r["family"], r["nu"], r["phi"], r["M"], r["eta"],
                r["fold"]) for r in table]
        built = (("matern", 2.5, 1.0), ("gaussian", None, 0.5))
        points = [(k, M, eta) for k in built for M in (4, 3) for eta in (1e-8, 1e-9)]
        want = [(gi, *k, M, eta, fold)
                for gi, (k, M, eta) in enumerate(points) for fold in (0, 1)]
        assert got == want


class TestCrossValidate:
    """K-fold selection over small grids."""

    def _borehole_data(self, n):
        fn = by_name("borehole")
        U = halton(n, fn.dim).points
        return U, fn.eval_unit(U)

    def test_single_point_grid_returned(self):
        X, Y = self._borehole_data(20)
        grid = TuneGrid(etas=(1e-8,), Ms=(8,), folds=4)
        best, table = cross_validate(X, Y, grid, seed=0, epochs=10)
        assert best["eta"] == 1e-8
        assert best["M"] == 8
        assert np.isfinite(best["mean_rmse"])
        assert len(table) == 4

    def test_table_covers_grid_times_folds(self):
        X, Y = self._borehole_data(20)
        grid = TuneGrid(etas=(1e-8, 1e-9), Ms=(6,), folds=3)
        best, table = cross_validate(X, Y, grid, seed=1, epochs=8)
        assert len(table) == 6
        assert {row["fold"] for row in table} == {0, 1, 2}
        assert {row["eta"] for row in table} == {1e-8, 1e-9}
        for row in table:
            assert row["rmse"] >= 0.0

    def test_exploding_step_size_never_selected(self):
        """An eta that blows the weights up loses to a sensible one."""
        X, Y = self._borehole_data(25)
        grid = TuneGrid(etas=(1e-7, 1e30), Ms=(10,), folds=5)
        best, table = cross_validate(X, Y, grid, seed=0, epochs=30)
        assert best["eta"] == 1e-7
        bad = [r["rmse"] for r in table if r["eta"] == 1e30]
        good = [r["rmse"] for r in table if r["eta"] == 1e-7]
        assert np.mean(good) < np.mean(bad)

    @pytest.mark.parametrize("etas", [(1e-300, 0.0), (0.0, 1e-300)])
    def test_tie_goes_to_the_earlier_eta(self, etas):
        """A 1e-300 step moves no weight, so both etas train the same
        models; the tie goes to the eta listed first."""
        X, Y = self._borehole_data(12)
        grid = TuneGrid(etas=etas, Ms=(3,), folds=2)
        best, table = cross_validate(X, Y, grid, seed=0, epochs=3)
        assert [r["rmse"] for r in table[:2]] == [r["rmse"] for r in table[2:]]
        assert best["eta"] == etas[0]

    def test_every_grid_point_with_a_failed_fold_is_a_training_error(self):
        """With 3 points and 2 folds one fold trains on a single point, so
        every grid point has an infinite mean RMSE: no best point exists."""
        X, Y = self._borehole_data(3)
        grid = TuneGrid(etas=(1e-7, 1e-8), Ms=(1,), folds=2)
        with pytest.raises(TrainingError, match="2 of 4 folds failed"):
            cross_validate(X, Y, grid, seed=0, epochs=2)

    def test_too_many_folds_rejected(self):
        X, Y = self._borehole_data(4)
        grid = TuneGrid(etas=(1e-8,), Ms=(5,), folds=5)
        with pytest.raises(ConfigError):
            cross_validate(X, Y, grid, seed=0)


_TWO_CPUS = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="cross_validate fans out only with at least 2 CPUs")


class TestParallelFolds:
    """cross_validate trains small folds in forked workers, with the bits,
    failed folds and exceptions of the in-process loop."""

    GRID = TuneGrid(etas=(1e-7, 1e-8), Ms=(6,), kernels=(matern(2.5), gaussian(1.5)),
                    folds=4)

    @staticmethod
    def _data(n):
        fn = by_name("borehole")
        U = halton(n, fn.dim).points
        return U, fn.eval_unit(U)

    @staticmethod
    def _count_parent_trainings(monkeypatch, fail=None):
        """Wrap make_model: the list holds the trainings this process ran
        (a forked worker appends to its own copy), and ``fail(spec, U)``
        may return an exception to raise in place of training."""
        calls = []
        real = evaluation.make_model

        def wrapped(spec, U, Y):
            calls.append(U.shape[0])
            exc = fail(spec, U) if fail else None
            if exc is not None:
                raise exc
            return real(spec, U, Y)

        monkeypatch.setattr(evaluation, "make_model", wrapped)
        return calls

    @_TWO_CPUS
    def test_fanned_out_table_is_the_in_process_folds_bit_for_bit(self, monkeypatch):
        X, Y = self._data(20)
        calls = self._count_parent_trainings(monkeypatch)
        _, table = cross_validate(X, Y, self.GRID, seed=2, epochs=10, early_stop_rel=0.0)
        assert calls == [] and multiprocessing.active_children() == []
        monkeypatch.undo()
        fold_seed, weight_seed = _experiment_seeds(2)
        folds = fold_indices(20, 4, fold_seed)
        expected = []
        for kernel in self.GRID.kernels:
            for eta in self.GRID.etas:
                spec = ModelSpec("ppgpr", kernel, TrainConfig(
                    eta=eta, M=6, epochs=10, early_stop_rel=0.0, seed=weight_seed))
                for hold in folds:
                    train_idx = np.setdiff1d(np.arange(20), hold)
                    model = make_model(spec, X[train_idx], Y[train_idx])
                    expected.append(_safe_rmse(model.predict(X[hold]), Y[hold]))
        assert [row["rmse"].hex() for row in table] == [e.hex() for e in expected]

    @_TWO_CPUS
    def test_training_error_in_a_worker_scores_inf(self, monkeypatch):
        """The fold that holds row 0 out fails for eta 1e-8 only."""
        X, Y = self._data(16)

        def fail(spec, U):
            held_out = not (U == X[0]).all(axis=1).any()
            if spec.config.eta == 1e-8 and held_out:
                return TrainingError("diverged")
            return None

        calls = self._count_parent_trainings(monkeypatch, fail)
        best, table = cross_validate(X, Y, self.GRID, seed=0, epochs=3)
        assert calls == [] and multiprocessing.active_children() == []
        failed = [(row["grid_index"], row["fold"]) for row in table if np.isinf(row["rmse"])]
        assert len(failed) == 2 and {gi for gi, _ in failed} == {1, 3}
        assert all(np.isfinite(row["rmse"]) for row in table if row["eta"] == 1e-7)
        assert best["eta"] == 1e-7

    @_TWO_CPUS
    def test_other_exception_is_reraised_first_in_table_order(self, monkeypatch):
        """Every training of the second and the third grid point raises;
        the parent raises the exception of the second point's first
        fold."""
        X, Y = self._data(16)

        def fail(spec, U):
            if spec.config.eta == 1e-8 and spec.kernel == matern(2.5):
                return ValueError(f"first: {U.shape[0]} rows")
            if spec.config.eta == 1e-7 and spec.kernel == gaussian(1.5):
                return RuntimeError("later")
            return None

        fold_seed, _ = _experiment_seeds(0)
        rows = 16 - fold_indices(16, 4, fold_seed)[0].size
        calls = self._count_parent_trainings(monkeypatch, fail)
        with pytest.raises(ValueError, match=f"^first: {rows} rows$") as raised:
            cross_validate(X, Y, self.GRID, seed=0, epochs=3)
        assert calls == [] and multiprocessing.active_children() == []
        assert "in wrapped" in str(raised.value.__cause__)  # the worker's traceback

    @_TWO_CPUS
    @pytest.mark.parametrize("n, in_process", [(5 * POOL_MAX_N // 4, False),
                                               (5 * POOL_MAX_N // 4 + 1, True)])
    def test_folds_above_pool_max_n_train_in_process(self, monkeypatch, n, in_process):
        """With 5 folds of n rows, training sets of POOL_MAX_N rows fan
        out and one of POOL_MAX_N + 1 keeps every fold in-process."""
        X, Y = self._data(n)
        calls = self._count_parent_trainings(monkeypatch)
        grid = TuneGrid(etas=(1e-7, 1e-8), Ms=(3,), folds=5)
        _, table = cross_validate(X, Y, grid, seed=0, epochs=1)
        assert len(table) == 10 and all(np.isfinite(row["rmse"]) for row in table)
        assert max(calls, default=0) == (POOL_MAX_N + 1 if in_process else 0)
        assert len(calls) == (10 if in_process else 0)


    @_TWO_CPUS
    def test_a_worker_that_dies_raises_broken_process_pool(self):
        """A worker that exits without an exception (os._exit, as when the
        kernel kills it) makes the call raise, not hang, and leaves no
        child behind."""
        out = _fresh_tune("""
def make_model(spec, U, Y):
    if spec.config.eta == 1e-8:
        os._exit(3)
    return real(spec, U, Y)
evaluation.make_model = make_model
from concurrent.futures.process import BrokenProcessPool
try:
    cross_validate(X, Y, grid, seed=0, epochs=3)
    raised = None
except BrokenProcessPool:
    raised = "BrokenProcessPool"
print(json.dumps([raised, len(multiprocessing.active_children())]))
""")
        assert out == ["BrokenProcessPool", 0]

    @_TWO_CPUS
    def test_fans_out_while_another_thread_holds_a_lock(self):
        """A caller thread holds its logging handler's lock for the whole
        fanned-out call; the call returns the in-process table."""
        out = _fresh_tune("""
logging.basicConfig(stream=sys.stderr)
handler = logging.getLogger().handlers[0]
held, release = threading.Event(), threading.Event()
def hold():
    with handler.lock:
        held.set()
        release.wait()
holder = threading.Thread(target=hold)
holder.start()
held.wait()
_, fanned = cross_validate(X, Y, grid, seed=0, epochs=3)
alive = holder.is_alive()
release.set()
holder.join()
evaluation._fold_workers = lambda tasks, rows: 1
_, serial = cross_validate(X, Y, grid, seed=0, epochs=3)
print(json.dumps([alive, [r["rmse"].hex() for r in fanned] == [r["rmse"].hex() for r in serial],
                  len(multiprocessing.active_children())]))
""")
        assert out == [True, True, 0]


_TUNE_PRELUDE = """
import json, logging, multiprocessing, os, sys, threading
from ppgp import TuneGrid, by_name, cross_validate, evaluation, halton
fn = by_name("borehole")
X = halton(16, fn.dim).points
Y = fn.eval_unit(X)
grid = TuneGrid(etas=(1e-7, 1e-8), Ms=(4,), folds=4)
real = evaluation.make_model
"""


def _fresh_tune(script):
    """Run ``script`` after a prelude that sets up a 16-row borehole tune,
    in a new interpreter with a time limit, so that a hang fails; returns
    its JSON output."""
    src = str(Path(ppgp.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run([sys.executable, "-c", _TUNE_PRELUDE + script], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestModelSpec:
    """The one spec and factory behind every model."""

    def test_training_defaults_come_from_train_config(self):
        spec = ModelSpec("ppgpr")
        assert spec.config == TrainConfig()
        assert spec.kernel == matern(2.5)
        assert spec.config.M is None

    def test_kernel_is_checked_when_the_spec_is_made(self):
        """The spec holds a Kernel1d, whose nu is None for a Gaussian; a
        bad method, family, nu or phi is rejected on construction, not at
        fit time."""
        assert ModelSpec("gp-iso", gaussian()).kernel.nu is None
        assert ModelSpec("ppgpr", Kernel1d("gaussian", 1.5)).kernel.nu is None
        assert ModelSpec("ppgpr", matern(1.5)).kernel.nu == 1.5
        with pytest.raises(ConfigError):
            ModelSpec("kriging")
        for bad in ({"family": "foo"}, {"nu": None}, {"nu": -1.0}, {"phi": 0.0}):
            with pytest.raises(DomainError):
                Kernel1d(**{"family": "matern", "nu": 2.5, **bad})

    def test_factory_builds_each_method(self):
        U = halton(12, 2).points
        Y = by_name("xy-plus-x2").eval_unit(U)
        structures = {"gp-iso": "isotropic", "gp-pro": "product", "gp-add": "additive"}
        for method, structure in structures.items():
            model = make_model(ModelSpec(method, config=TrainConfig(nugget=1e-5)), U, Y)
            assert isinstance(model, GpModel)
            assert model.kernel.structure == structure and model.nugget == 1e-5
        model = make_model(ModelSpec("ppgpr", config=TrainConfig(epochs=2, seed=7)), U, Y)
        assert isinstance(model, PpgprModel)
        assert model.M == default_node_count(12, 2)
        assert model.config.seed == 7 and model.config.epochs == 2

    def test_cross_validate_takes_grid_fields_from_the_grid(self):
        U = halton(12, 2).points
        Y = by_name("xy-plus-x2").eval_unit(U)
        grid = TuneGrid(etas=(1e-8,), Ms=(3,), folds=2)
        with pytest.raises(TypeError, match="eta"):
            cross_validate(U, Y, grid, seed=0, eta=1e-9)


class TestRunExperiment:
    """The single-experiment driver."""

    def test_report_fields(self):
        rep = run_experiment("gp-iso", "borehole", n_train=20, n_test=50,
                             seed=3, kernel=gaussian())
        # the spec as built: its config holds the weight seed
        weight_seed = _experiment_seeds(3)[1]
        assert rep.spec == ModelSpec("gp-iso", gaussian(), TrainConfig(seed=weight_seed))
        assert rep.spec.method == "gp-iso"
        assert rep.spec.config.center is True
        assert rep.spec.kernel.nu is None
        assert rep.function == "borehole"
        assert rep.n_train == 20
        assert rep.n_test == 50
        assert rep.seed == 3
        assert rep.rmse >= 0.0 and np.isfinite(rep.rmse)
        assert rep.rmse_abs >= 0.0 and np.isfinite(rep.rmse_abs)
        assert rep.diverged is False
        # ppgpr's node count M is resolved from the data
        rep = run_experiment("ppgpr", "borehole", n_train=20, n_test=20,
                             seed=0, epochs=2)
        assert rep.spec == ModelSpec("ppgpr", config=TrainConfig(
            epochs=2, M=default_node_count(20, 8), seed=_experiment_seeds(0)[1]))

    def test_default_training_size_is_5d(self):
        rep = run_experiment("gp-add", "otl-circuit", n_test=20, seed=0)
        assert rep.n_train == 30

    def test_deterministic_up_to_wall_clock(self):
        """Identical seeds give identical reports; a report holds no timing."""
        a = run_experiment("ppgpr", "borehole", n_train=20, n_test=50,
                           seed=5, eta=1e-8, epochs=15)
        b = run_experiment("ppgpr", "borehole", n_train=20, n_test=50,
                           seed=5, eta=1e-8, epochs=15)
        assert a == b

    def test_seed_moves_the_test_design(self):
        a = run_experiment("gp-iso", "borehole", n_train=20, n_test=50, seed=0)
        b = run_experiment("gp-iso", "borehole", n_train=20, n_test=50, seed=1)
        assert a.rmse != b.rmse

    def test_additive_model_wins_on_additive_function(self):
        add = run_experiment("gp-add", "additive-sine", n_train=30,
                             n_test=200, seed=0)
        iso = run_experiment("gp-iso", "additive-sine", n_train=30,
                             n_test=200, seed=0)
        assert add.rmse_abs < iso.rmse_abs

    def test_isotropic_model_wins_on_interaction_function(self):
        iso = run_experiment("gp-iso", "xy-plus-x2", n_train=25,
                             n_test=200, seed=0)
        add = run_experiment("gp-add", "xy-plus-x2", n_train=25,
                             n_test=200, seed=0)
        assert iso.rmse_abs < add.rmse_abs

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError) as exc:
            run_experiment("kriging", "borehole", n_train=10, n_test=10)
        assert "gp-iso" in str(exc.value)

    def test_unknown_function_rejected(self):
        from ppgp import DomainError
        with pytest.raises(DomainError):
            run_experiment("gp-iso", "ishigami", n_train=10, n_test=10)
