"""Tests for the error metrics, tuning loop, and experiment runner."""

import numpy as np
import pytest

from ppgp import (
    ConfigError,
    GpModel,
    MetricError,
    ModelSpec,
    PpgprModel,
    TrainConfig,
    TuneGrid,
    by_name,
    cross_validate,
    default_node_count,
    fold_indices,
    halton,
    make_model,
    rmse,
    rmse_absolute,
    run_experiment,
)


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
            kernels=(("matern", 2.5, 1.0), ("gaussian", 2.5, 0.5)),
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

    def test_too_many_folds_rejected(self):
        X, Y = self._borehole_data(4)
        grid = TuneGrid(etas=(1e-8,), Ms=(5,), folds=5)
        with pytest.raises(ConfigError):
            cross_validate(X, Y, grid, seed=0)


class TestModelSpec:
    """The one spec and factory behind every model."""

    def test_training_defaults_come_from_train_config(self):
        spec = ModelSpec("ppgpr")
        assert spec.early_stop_rel == TrainConfig.early_stop_rel
        assert spec.nugget == TrainConfig.nugget
        assert spec.center == TrainConfig.center
        assert spec.M is None

    def test_factory_builds_each_method(self):
        U = halton(12, 2).points
        Y = by_name("xy-plus-x2").eval_unit(U)
        structures = {"gp-iso": "isotropic", "gp-pro": "product", "gp-add": "additive"}
        for method, structure in structures.items():
            model = make_model(ModelSpec(method, nugget=1e-5), U, Y, 0)
            assert isinstance(model, GpModel)
            assert model.kernel.structure == structure and model.nugget == 1e-5
        model = make_model(ModelSpec("ppgpr", epochs=2), U, Y, 7)
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
                             seed=3, family="gaussian")
        assert rep.spec == ModelSpec("gp-iso", family="gaussian", nu=None)
        assert rep.spec.method == "gp-iso"
        assert rep.spec.center is True
        assert rep.spec.nu is None
        assert rep.function == "borehole"
        assert rep.n_train == 20
        assert rep.n_test == 50
        assert rep.seed == 3
        assert rep.rmse >= 0.0 and np.isfinite(rep.rmse)
        assert rep.rmse_abs >= 0.0 and np.isfinite(rep.rmse_abs)
        assert rep.diverged is False
        # the spec as built: ppgpr's node count M is resolved from the data
        rep = run_experiment("ppgpr", "borehole", n_train=20, n_test=20,
                             seed=0, epochs=2)
        assert rep.spec == ModelSpec("ppgpr", epochs=2, M=default_node_count(20, 8))

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
