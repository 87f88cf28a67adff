"""Tests for the command-line front end.

All commands run in-process through ``cli.main(argv)`` so exit codes and
output files can be checked directly.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ppgp import (ModelSpec, by_name, cli, dumps_model, halton, load_model, make_model,
                  save_model)
from ppgp.evaluation import _experiment_seeds


def _body_lines(path):
    """Non-comment lines of an output file."""
    with open(path, "r", encoding="utf-8") as fh:
        return [l.rstrip("\n") for l in fh if not l.startswith("#")]


class TestDesign:
    """The design generator subcommand."""

    def test_halton_csv_hand_values(self, tmp_path):
        out = tmp_path / "design.csv"
        rc = cli.main(["design", "--generator", "halton", "--n", "4",
                       "--d", "1", "--out", str(out)])
        assert rc == 0
        lines = _body_lines(out)
        assert lines[0] == "x1"
        values = [float(l) for l in lines[1:]]
        assert values == [0.5, 0.25, 0.75, 0.125]

    def test_stdout_when_no_out(self, capsys):
        rc = cli.main(["design", "--generator", "halton", "--n", "3",
                       "--d", "2"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "# ppgp design" in text
        data = [l for l in text.splitlines() if not l.startswith("#")]
        assert data[0] == "x1,x2"
        assert len(data) == 4

    def test_unknown_generator(self, capsys):
        rc = cli.main(["design", "--generator", "sobol", "--n", "4",
                       "--d", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "halton" in err and "randomized-lhs" in err

    def test_seeded_generator_reproducible(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            rc = cli.main(["design", "--generator", "randomized-lhs",
                           "--n", "10", "--d", "3", "--seed", "7",
                           "--out", str(out)])
            assert rc == 0
        assert _body_lines(a) == _body_lines(b)


class TestConfigResolution:
    """key=value files, flag overrides, and validation messages."""

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# design setup\ngenerator=halton\nn=4\nd=2\n")
        out = tmp_path / "design.csv"
        rc = cli.main(["design", "--config", str(cfg), "--n", "6",
                       "--out", str(out)])
        assert rc == 0
        assert len(_body_lines(out)) == 7  # header + six points

    def test_unknown_key_lists_valid_ones(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("generator=halton\nn=4\nd=2\nnpoints=9\n")
        rc = cli.main(["design", "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "npoints" in err
        assert "generator" in err and "seed" in err

    def test_missing_required_key_shows_example(self, capsys):
        rc = cli.main(["design", "--n", "4", "--d", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "generator" in err
        assert "generator=halton" in err  # example snippet

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("generator halton\n")
        rc = cli.main(["design", "--config", str(cfg)])
        assert rc == 1
        assert "key=value" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        rc = cli.main(["design", "--config", "/nonexistent/run.cfg"])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err

    def test_byte_order_mark_is_ignored(self, tmp_path):
        """A config file saved as UTF-8 with BOM reads its first key."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("generator=halton\nn=4\nd=2\n", encoding="utf-8-sig")
        out = tmp_path / "design.csv"
        assert cli.main(["design", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(_body_lines(out)) == 5

    def test_file_that_is_not_utf8_is_usage_error(self, tmp_path, served, capsys):
        """A config or points file with a byte that is not UTF-8 exits 1."""
        model_path, _ = served
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"generator=halton\n0.5,0.5\xff\n")
        assert cli.main(["design", "--config", str(bad)]) == 1
        assert "cannot read config file" in capsys.readouterr().err
        assert cli.main(["predict", "--model", str(model_path), "--points", str(bad)]) == 1
        assert "cannot read points file" in capsys.readouterr().err

    def test_bad_value_type(self, capsys):
        rc = cli.main(["design", "--generator", "halton", "--n", "four",
                       "--d", "1"])
        assert rc == 1
        assert "n" in capsys.readouterr().err


class TestFitPredict:
    """Model persistence through the CLI."""

    def test_round_trip_predictions_match_loaded_model(self, tmp_path):
        model_path = tmp_path / "model.txt"
        rc = cli.main(["fit", "--function", "borehole", "--method", "gp-iso",
                       "--n-train", "15", "--model-out", str(model_path),
                       "--out", str(tmp_path / "fit.csv")])
        assert rc == 0
        assert model_path.exists()

        points_path = tmp_path / "points.csv"
        rc = cli.main(["design", "--generator", "uniform-random", "--n", "8",
                       "--d", "8", "--seed", "4", "--out", str(points_path)])
        assert rc == 0

        pred_path = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--model", str(model_path),
                       "--points", str(points_path), "--out", str(pred_path)])
        assert rc == 0

        rows = [l.split(",") for l in _body_lines(pred_path)[1:]]
        pts = np.array([[float(v) for v in r[:8]] for r in rows])
        preds = np.array([float(r[8]) for r in rows])
        model = load_model(model_path)
        assert np.array_equal(preds, model.predict(pts))

    def test_fit_reports_summary_row(self, tmp_path):
        out = tmp_path / "fit.csv"
        rc = cli.main(["fit", "--function", "xy-plus-x2", "--method", "ppgpr",
                       "--epochs", "5", "--eta", "1e-8",
                       "--model-out", str(tmp_path / "m.txt"),
                       "--trace-out", str(tmp_path / "trace.csv"),
                       "--out", str(out)])
        assert rc == 0
        lines = _body_lines(out)
        assert lines[0].startswith("method,function,n_train,M")
        cells = lines[1].split(",")
        assert cells[0] == "ppgpr" and cells[1] == "xy-plus-x2"
        trace = _body_lines(tmp_path / "trace.csv")
        assert trace[0] == "epoch,loss"
        assert len(trace) == 7  # header + epochs 0..5

    def test_predict_column_mismatch(self, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        assert cli.main(["fit", "--function", "xy-plus-x2",
                         "--method", "gp-add",
                         "--model-out", str(model_path),
                         "--out", str(tmp_path / "f.csv")]) == 0
        points_path = tmp_path / "points.csv"
        points_path.write_text("x1\n0.5\n0.25\n")
        rc = cli.main(["predict", "--model", str(model_path),
                       "--points", str(points_path)])
        assert rc == 1
        assert "2" in capsys.readouterr().err

    def test_predict_rejects_non_numeric_data_row(self, tmp_path, capsys):
        """Only the first data line may be a header; a later bad row is an
        error naming its line, not a silently dropped row."""
        model_path = tmp_path / "model.txt"
        assert cli.main(["fit", "--function", "xy-plus-x2",
                         "--method", "gp-add",
                         "--model-out", str(model_path),
                         "--out", str(tmp_path / "f.csv")]) == 0
        points_path = tmp_path / "points.csv"
        points_path.write_text("# points\nx1,x2\n0.5,0.5\n\n0.25,abc\n0.75,0.1\n")
        pred_path = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--model", str(model_path),
                       "--points", str(points_path), "--out", str(pred_path)])
        assert rc == 1
        assert "line 5" in capsys.readouterr().err
        assert not pred_path.exists()

        points_path.write_text("x1,x2\n0.5,0.5\n0.25,0.3\n")
        rc = cli.main(["predict", "--model", str(model_path),
                       "--points", str(points_path), "--out", str(pred_path)])
        assert rc == 0
        assert len(_body_lines(pred_path)) == 3

    @pytest.mark.parametrize("method", ["gp-iso", "gp-pro", "gp-add", "ppgpr"])
    def test_model_file_is_the_library_factory_model(self, tmp_path, method):
        """`ppgp fit` builds its model with make_model and the weight seed
        of the experiment harness: the file matches byte for byte."""
        model_path = tmp_path / "model.txt"
        assert cli.main(["fit", "--function", "xy-plus-x2", "--method", method,
                         "--n-train", "12", "--epochs", "5", "--eta", "1e-8",
                         "--seed", "3", "--model-out", str(model_path),
                         "--out", str(tmp_path / "fit.csv")]) == 0
        U = halton(12, 2).points
        Y = by_name("xy-plus-x2").eval_unit(U)
        spec = ModelSpec(method, eta=1e-8, epochs=5)
        model = make_model(spec, U, Y, _experiment_seeds(3)[1])
        assert model_path.read_text(encoding="ascii") == dumps_model(model)

    def test_corrupt_number_in_model_file_is_usage_error(self, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        assert cli.main(["fit", "--function", "xy-plus-x2", "--method", "gp-add",
                         "--model-out", str(model_path),
                         "--out", str(tmp_path / "f.csv")]) == 0
        text = model_path.read_text(encoding="ascii")
        model_path.write_text(text.replace("\nphi 1.0\n", "\nphi abc\n"),
                              encoding="ascii")
        points_path = tmp_path / "points.csv"
        points_path.write_text("0.5,0.5\n")
        rc = cli.main(["predict", "--model", str(model_path),
                       "--points", str(points_path)])
        assert rc == 1
        assert "abc" in capsys.readouterr().err

    def test_predict_rejects_points_outside_unit_cube(self, tmp_path, capsys):
        """A point outside [0, 1]^d is a usage error naming its data row and
        column, not an extrapolated prediction."""
        model_path = tmp_path / "model.txt"
        assert cli.main(["fit", "--function", "xy-plus-x2", "--method", "gp-add",
                         "--model-out", str(model_path),
                         "--out", str(tmp_path / "f.csv")]) == 0
        points_path = tmp_path / "points.csv"
        pred_path = tmp_path / "pred.csv"
        for row, where in (("2.0,-1", "data row 2, column x1"),
                           ("0.5,-1", "data row 2, column x2"),
                           ("0.5,nan", "data row 2, column x2")):
            points_path.write_text(f"x1,x2\n0.5,0.5\n{row}\n")
            rc = cli.main(["predict", "--model", str(model_path),
                           "--points", str(points_path), "--out", str(pred_path)])
            assert rc == 1
            err = capsys.readouterr().err
            assert where in err and "unit cube" in err
            assert not pred_path.exists()

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path, served):
        """A headerless points file saved as UTF-8 with BOM keeps all its
        rows: the mark is not part of the first cell."""
        model_path, points_path = served
        points_path.write_text("0.1,0.2\n0.3,0.4\n0.5,0.6\n", encoding="utf-8-sig")
        assert cli._read_points_csv(str(points_path)).tolist() == [
            [0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]
        pred_path = tmp_path / "pred.csv"
        assert cli.main(["predict", "--model", str(model_path),
                         "--points", str(points_path), "--out", str(pred_path)]) == 0
        assert len(_body_lines(pred_path)) == 4  # header + three predictions

    def test_misshapen_model_file_is_usage_error(self, tmp_path, served, capsys):
        """An alpha shorter than the design is rejected when the file is
        read, not left to fail inside predict."""
        model_path, points_path = served
        lines = model_path.read_text(encoding="ascii").splitlines()
        i = lines.index("vector alpha 12")
        lines[i:i + 2] = ["vector alpha 11", lines[i + 1].rsplit(" ", 1)[0]]
        model_path.write_text("\n".join(lines) + "\n", encoding="ascii")
        rc = cli.main(["predict", "--model", str(model_path), "--points", str(points_path)])
        assert rc == 1
        assert "error: vector alpha has 11 entries for 12 design rows" in capsys.readouterr().err

    def test_non_ascii_model_file_is_usage_error(self, served, capsys):
        """One byte that is not ASCII makes the model file unreadable: exit 1,
        not a UnicodeDecodeError."""
        model_path, points_path = served
        data = model_path.read_bytes()
        model_path.write_bytes(data.replace(b"\nphi ", b"\nphi \xff", 1))
        rc = cli.main(["predict", "--model", str(model_path), "--points", str(points_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: cannot read model file")

    def test_predict_missing_model_file(self, tmp_path, capsys):
        points_path = tmp_path / "points.csv"
        points_path.write_text("0.5,0.5\n")
        rc = cli.main(["predict", "--model", str(tmp_path / "absent.txt"),
                       "--points", str(points_path)])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err


class TestGivenValuesAreNotDefaults:
    """Only an absent key takes its default: a given 0 is validated."""

    @pytest.mark.parametrize("argv", [
        ["fit", "--function", "xy-plus-x2", "--n-train", "0"],
        ["fit", "--function", "xy-plus-x2", "--method", "ppgpr", "--M", "0"],
        ["tune", "--function", "xy-plus-x2", "--n-train", "0"],
        ["tune", "--function", "xy-plus-x2", "--Ms", ""],
        ["bench-table", "--functions", "xy-plus-x2", "--methods", "gp-iso",
         "--n-train", "0"],
    ])
    def test_zero_or_empty_is_usage_error(self, tmp_path, capsys, argv):
        model_path = tmp_path / "model.txt"
        out = tmp_path / "out.csv"
        if argv[0] == "fit":
            argv = argv + ["--model-out", str(model_path)]
        rc = cli.main(argv + ["--epochs", "2", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists() and not model_path.exists()


class TestEvalGrid:
    """Dense tabulation of a 2-input function."""

    def test_resolution_controls_row_count(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = cli.main(["eval-grid", "--function", "xy-plus-x2",
                       "--resolution", "5", "--out", str(out)])
        assert rc == 0
        lines = _body_lines(out)
        assert lines[0] == "x1,x2,value"
        assert len(lines) == 1 + 25

    def test_corner_and_center_values(self, tmp_path):
        """Unit corners map to physical corners of [-1, 1]^2."""
        out = tmp_path / "grid.csv"
        assert cli.main(["eval-grid", "--function", "xy-plus-x2",
                         "--resolution", "3", "--out", str(out)]) == 0
        rows = {tuple(l.split(",")[:2]): float(l.split(",")[2])
                for l in _body_lines(out)[1:]}
        assert rows[("0.0", "0.0")] == 2.0   # (-1, -1): xy + x^2 = 1 + 1
        assert rows[("1.0", "1.0")] == 2.0   # (1, 1)
        assert rows[("0.5", "0.5")] == 0.0   # (0, 0)

    def test_wrong_dimension_rejected(self, capsys):
        rc = cli.main(["eval-grid", "--function", "borehole"])
        assert rc == 1
        assert "2" in capsys.readouterr().err

    def test_tiny_resolution_rejected(self, capsys):
        rc = cli.main(["eval-grid", "--function", "xy-plus-x2",
                       "--resolution", "1"])
        assert rc == 1


class TestBenchTable:
    """The benchmark comparison table."""

    ARGS = ["bench-table", "--functions", "xy-plus-x2",
            "--methods", "gp-iso,gp-add,ppgpr", "--seeds", "1,2",
            "--n-train", "12", "--epochs", "8", "--eta", "1e-8"]

    def test_row_count_and_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert cli.main(self.ARGS + ["--out", str(out)]) == 0
        la, lb = _body_lines(a), _body_lines(b)
        assert la == lb
        assert len(la) == 1 + 3 * 2  # header + methods x seeds
        assert la[0].startswith("function,method,seed")

    def test_gaussian_nu_cell_is_empty(self, tmp_path):
        """A Gaussian kernel has no nu: the cell is empty, as in ``tune``,
        not the unused ModelSpec default."""
        out = tmp_path / "g.csv"
        assert cli.main(["bench-table", "--functions", "xy-plus-x2",
                         "--methods", "gp-iso,ppgpr", "--n-train", "10",
                         "--epochs", "2", "--eta", "1e-8", "--family", "gaussian",
                         "--out", str(out)]) == 0
        lines = _body_lines(out)
        nu = lines[0].split(",").index("nu")
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[1], r[5], r[nu]) for r in rows] == [
            ("gp-iso", "gaussian", ""), ("ppgpr", "gaussian", "")]

    def test_unknown_method_rejected(self, capsys):
        rc = cli.main(["bench-table", "--functions", "xy-plus-x2",
                       "--methods", "boosting", "--seeds", "0"])
        assert rc == 1
        assert "gp-iso" in capsys.readouterr().err


class TestTune:
    """Cross-validation through the CLI."""

    def test_tiny_grid(self, tmp_path):
        out = tmp_path / "tune.csv"
        rc = cli.main(["tune", "--function", "xy-plus-x2",
                       "--n-train", "20", "--etas", "1e-8", "--Ms", "4",
                       "--folds", "3", "--epochs", "5", "--out", str(out)])
        assert rc == 0
        lines = _body_lines(out)
        assert len(lines) == 1 + 3 + 1  # header, three folds, best row
        assert lines[-1].startswith("best,")
        best_cells = lines[-1].split(",")
        assert float(best_cells[2]) == 1e-8
        assert int(best_cells[3]) == 4

    def test_no_trainable_grid_point_exits_two(self, tmp_path, capsys):
        """Every grid point has a fold trained on one point: no best row."""
        out = tmp_path / "tune.csv"
        rc = cli.main(["tune", "--function", "xy-plus-x2", "--n-train", "3",
                       "--folds", "2", "--epochs", "2", "--out", str(out)])
        assert rc == 2
        assert "4 of 8 folds failed" in capsys.readouterr().err
        assert not out.exists()

    def test_gaussian_nu_cell_is_empty(self, tmp_path):
        """Fold and best rows carry the built kernel's nu, None for a Gaussian."""
        out = tmp_path / "tune.csv"
        assert cli.main(["tune", "--function", "xy-plus-x2", "--n-train", "12",
                         "--etas", "1e-8", "--Ms", "3", "--folds", "2", "--epochs", "3",
                         "--kernels", "gaussian:2.5:0.5", "--out", str(out)]) == 0
        lines = _body_lines(out)
        nu = lines[0].split(",").index("nu")
        assert [line.split(",")[nu] for line in lines[1:]] == ["", "", ""]


class TestTheoryCheck:
    """Rate measurement through the CLI."""

    def test_skip_draws_when_trials_zero(self, tmp_path):
        out = tmp_path / "rates.csv"
        rc = cli.main(["theory-check", "--structures", "additive",
                       "--d", "1", "--n-list", "8,16", "--trials", "0",
                       "--out", str(out)])
        assert rc == 0
        lines = _body_lines(out)
        curves = [l for l in lines if l.startswith("curve,")]
        fits = [l for l in lines if l.startswith("fit,")]
        assert len(curves) == 2
        assert len(fits) == 1  # max_p only; sup_err skipped
        assert ",sup_err," not in fits[0]

    def test_dimension_cap_is_usage_error(self, capsys):
        rc = cli.main(["theory-check", "--d", "4", "--n-list", "8,16"])
        assert rc == 1
        assert cli.main(["theory-check", "--d", "0", "--n-list", "8,16"]) == 1
        assert "1 <= d <= 3" in capsys.readouterr().err
        assert cli.main(["theory-check", "--d", "1", "--n-list", "1,4"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestExitCodes:
    """The documented 0/1/2 contract."""

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out.lower() or True

    def test_no_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_numerical_failure_exits_two(self, tmp_path, capsys):
        for nugget in ("-1", "nan", "inf"):
            rc = cli.main(["fit", "--function", "xy-plus-x2",
                           "--method", "gp-iso", "--nugget", nugget,
                           "--model-out", str(tmp_path / "m.txt")])
            assert rc == 2
            assert "numerical error" in capsys.readouterr().err


def _config_lines(path):
    """The ``# config key=value`` lines of an output file, without the prefix."""
    with open(path, "r", encoding="utf-8") as fh:
        return [l[len("# config "):] for l in fh if l.startswith("# config ")]


@pytest.fixture
def served(tmp_path):
    """A 2-input model file and a points file with a header line."""
    model_path = tmp_path / "model.txt"
    assert cli.main(["fit", "--function", "xy-plus-x2", "--method", "gp-add",
                     "--n-train", "12", "--model-out", str(model_path),
                     "--out", str(tmp_path / "fit.csv")]) == 0
    points_path = tmp_path / "points.csv"
    points_path.write_text("x1,x2\n0.5,0.5\n0.25,0.75\n")
    return model_path, points_path


class TestConfigReplay:
    """The ``# config`` lines of any output, written as a ``--config``
    file, reproduce the same body; every output records its wall time."""

    @pytest.mark.parametrize("argv", [
        ["design", "--generator", "randomized-lhs", "--n", "6", "--d", "2",
         "--seed", "3"],
        ["fit", "--function", "xy-plus-x2", "--method", "ppgpr", "--n-train", "12",
         "--epochs", "3", "--eta", "1e-8", "--family", "gaussian", "--phi", "0.5",
         "--model-out", "{tmp}/m.txt", "--trace-out", "{tmp}/trace.csv"],
        ["predict", "--model", "{model}", "--points", "{points}"],
        ["eval-grid", "--function", "xy-plus-x2", "--resolution", "3",
         "--model", "{model}"],
        ["bench-table", "--functions", "xy-plus-x2", "--methods", "gp-iso,ppgpr",
         "--seeds", "0,1", "--n-train", "12", "--epochs", "3", "--eta", "1e-8"],
        ["tune", "--function", "xy-plus-x2", "--n-train", "12", "--etas", "1e-8",
         "--Ms", "3", "--folds", "2", "--epochs", "3",
         "--kernels", "matern:2.5:1.0;gaussian:-:0.5", "--center", "no"],
        ["theory-check", "--structures", "additive", "--d", "1",
         "--n-list", "8,16", "--trials", "1"],
    ], ids=lambda argv: argv[0])
    def test_config_lines_replay_the_body(self, tmp_path, served, argv):
        model_path, points_path = served
        argv = [a.format(tmp=tmp_path, model=model_path, points=points_path)
                for a in argv]
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        assert cli.main(argv + ["--out", str(first)]) == 0
        cfg = tmp_path / "replay.cfg"
        cfg.write_text("".join(_config_lines(first)), encoding="utf-8")
        assert cli.main([argv[0], "--config", str(cfg), "--out", str(again)]) == 0
        assert _body_lines(again) == _body_lines(first)
        assert _config_lines(again) == [
            l.replace(str(first), str(again)) for l in _config_lines(first)]
        assert first.read_text(encoding="utf-8").count("\n# wall_ms=") == 1
        # a seed is recorded once, as a config line like every other key
        text = first.read_text(encoding="utf-8")
        assert "\n# master" not in text
        assert argv[0] in ("predict", "eval-grid") or "\n# config seed" in text


class TestOutputPaths:
    """Every output path is written or reported as a usage error."""

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        out = tmp_path / "missing" / "design.csv"
        rc = cli.main(["design", "--generator", "halton", "--n", "3", "--d", "1",
                       "--out", str(out)])
        assert rc == 1
        assert "cannot write" in capsys.readouterr().err

    def test_unwritable_trace_out_exits_one(self, tmp_path, capsys):
        rc = cli.main(["fit", "--function", "xy-plus-x2", "--epochs", "2",
                       "--model-out", str(tmp_path / "m.txt"),
                       "--trace-out", str(tmp_path / "missing" / "trace.csv"),
                       "--out", str(tmp_path / "fit.csv")])
        assert rc == 1
        assert "cannot write" in capsys.readouterr().err
        assert not (tmp_path / "fit.csv").exists()
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("method", ["gp-iso", "gp-pro", "gp-add"])
    def test_trace_out_rejected_for_gp_methods(self, tmp_path, capsys, method):
        """A GP fit has no epochs to trace: the key is an error, not ignored."""
        rc = cli.main(["fit", "--function", "xy-plus-x2", "--method", method,
                       "--model-out", str(tmp_path / "m.txt"),
                       "--trace-out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "trace_out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["eval-grid", "--function", "xy-plus-x2", "--resolution", "3", "--model", ""],
        ["fit", "--function", "xy-plus-x2", "--epochs", "2", "--trace-out", ""],
        ["design", "--generator", "halton", "--n", "3", "--d", "1", "--config", ""],
    ], ids=["model", "trace-out", "config"])
    def test_empty_path_is_not_absent(self, tmp_path, capsys, argv):
        """A given empty path is an error, not the key left unset."""
        if argv[0] == "fit":
            argv = argv + ["--model-out", str(tmp_path / "m.txt")]
        assert cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out.csv").exists()


class TestRejectedValues:
    """Bad key values exit 1 (usage) or 2 (numerical), never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["design", "--generator", "randomized-lhs", "--n", "4", "--d", "2",
         "--seed", "-5"],
        ["fit", "--function", "xy-plus-x2", "--seed", "-1"],
        ["bench-table", "--functions", "xy-plus-x2", "--methods", "gp-iso",
         "--seeds", "0,-1"],
    ], ids=["design-seed", "fit-seed", "bench-seeds"])
    def test_negative_integer_is_usage_error(self, tmp_path, capsys, argv):
        if argv[0] == "fit":
            argv = argv + ["--model-out", str(tmp_path / "m.txt")]
        assert cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 1
        assert "non-negative" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("argv", [
        ["fit", "--function", "xy-plus-x2", "--family", "foo"],
        ["tune", "--function", "xy-plus-x2", "--kernels", "foo:2.5:1.0"],
        ["tune", "--function", "xy-plus-x2", "--kernels", "matern:-:1.0"],
    ], ids=["fit-family", "tune-family", "tune-matern-without-nu"])
    def test_bad_kernel_is_usage_error(self, tmp_path, capsys, argv):
        if argv[0] == "fit":
            argv = argv + ["--model-out", str(tmp_path / "m.txt")]
        rc = cli.main(argv + ["--epochs", "2", "--out", str(tmp_path / "out.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["bench-table", "--functions", "xy-plus-x2", "--methods", "gp-iso",
         "--seeds", ","],
        ["bench-table", "--functions", ",", "--methods", "gp-iso"],
        ["bench-table", "--functions", "xy-plus-x2", "--methods", " , "],
        ["theory-check", "--structures", ","],
    ], ids=["bench-seeds", "bench-functions", "bench-methods", "theory-structures"])
    def test_empty_list_is_usage_error(self, tmp_path, capsys, argv):
        assert cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 1
        assert "expected at least one item" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["predict", "--model", "{model}", "--points", "{tmp}/ragged.csv"], "ragged rows"),
        (["predict", "--model", "{model}", "--points", "{tmp}/header.csv"],
         "no numeric rows"),
        (["fit", "--function", "xy-plus-x2", "--center", "maybe"], "expected a boolean"),
        (["tune", "--function", "xy-plus-x2", "--kernels", "matern:2.5"],
         "is not family:nu:phi"),
    ], ids=["ragged-points", "no-numeric-row", "center-maybe", "kernel-pair"])
    def test_malformed_value_is_usage_error(self, tmp_path, served, capsys, argv, message):
        model_path, _ = served
        (tmp_path / "ragged.csv").write_text("0.5,0.5\n0.25\n")
        (tmp_path / "header.csv").write_text("x1,x2\n# no data\n")
        argv = [a.format(tmp=tmp_path, model=model_path) for a in argv]
        if argv[0] == "fit":
            argv = argv + ["--model-out", str(tmp_path / "m.txt")]
        assert cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out.csv").exists()
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("argv", [
        ["--early-stop-rel", "nan"],
        ["--early-stop-rel", "inf"],
        ["--nu", "1e308"],
        ["--method", "gp-iso", "--nu", "200"],
    ], ids=["early-stop-nan", "early-stop-inf", "nu-overflow", "nu-bessel-nan"])
    def test_unusable_training_value_is_usage_error(self, tmp_path, capsys, argv):
        """A value that would train on nan or raise OverflowError is refused
        before any training, and no model file is written."""
        model_path = tmp_path / "m.txt"
        rc = cli.main(["fit", "--function", "xy-plus-x2", "--n-train", "10",
                       "--epochs", "3", "--M", "3", *argv,
                       "--model-out", str(model_path), "--out", str(tmp_path / "f.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not model_path.exists()

    def test_help_shows_defaults_next_to_help_text(self, capsys):
        assert cli.main(["fit", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "0 disables early stop (default 0.04)" in text
        assert "gp-iso | gp-pro | gp-add | ppgpr (default ppgpr)" in text


@pytest.fixture(scope="module")
def small_ppgpr(tmp_path_factory):
    """A 2-input ppgpr model, in memory and saved, and a scratch directory."""
    U = halton(10, 2).points
    model = make_model(ModelSpec("ppgpr", eta=1e-8, epochs=3), U,
                       by_name("xy-plus-x2").eval_unit(U), weight_seed=0)
    workdir = tmp_path_factory.mktemp("round-trip")
    save_model(model, workdir / "model.txt")
    return model, workdir


@st.composite
def _points_files(draw):
    """Unit-cube points, and a points file holding them in ``repr``, with an
    optional header, '#' and blank lines, BOM and CRLF line ends."""
    m = draw(st.integers(1, 6))
    pts = draw(hnp.arrays(np.float64, (m, 2), elements=st.floats(0.0, 1.0)))
    filler = st.lists(st.sampled_from(["", "   ", "# a comment"]), max_size=2)
    lines = draw(filler)
    if draw(st.booleans()):
        lines.append("x1,x2")
    for row in pts:
        lines.append(",".join(repr(float(v)) for v in row))
        lines += draw(filler)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(line + newline for line in lines)
    return pts, text, draw(st.sampled_from(["utf-8", "utf-8-sig"]))


@settings(max_examples=25, deadline=None, database=None)
@given(case=_points_files())
def test_points_file_round_trips_through_predict(small_ppgpr, case):
    """`ppgp predict` echoes every point as the same double and predicts
    each bit for bit as the in-memory model does."""
    model, workdir = small_ppgpr
    pts, text, encoding = case
    points_path, pred_path = workdir / "points.csv", workdir / "pred.csv"
    points_path.write_bytes(text.encode(encoding))
    assert cli.main(["predict", "--model", str(workdir / "model.txt"),
                     "--points", str(points_path), "--out", str(pred_path)]) == 0
    header, *rows = _body_lines(pred_path)
    assert header == "x1,x2,prediction"
    out = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert out.shape == (pts.shape[0], 3)
    assert out[:, :2].tobytes() == pts.tobytes()
    assert out[:, 2].tobytes() == model.predict(pts).tobytes()


@pytest.fixture(scope="module")
def model_files(small_ppgpr):
    """The text of a 10-point ppgpr and an 8-point gp-iso model file, a
    points file, and a scratch directory."""
    _, workdir = small_ppgpr
    U = halton(8, 2).points
    gp = make_model(ModelSpec("gp-iso"), U, by_name("xy-plus-x2").eval_unit(U),
                    weight_seed=0)
    points = workdir / "probe.csv"
    points.write_text("x1,x2\n0.1,0.2\n0.5,0.5\n0.9,0.3\n")
    texts = {"ppgpr": (workdir / "model.txt").read_text(encoding="ascii"),
             "gp": dumps_model(gp)}
    return texts, points, workdir


_TOKENS = ["nan", "inf", "-inf", "1e308", "-1", "0", "", "oops",
           "12345678901234567890", "4000000000"]


def _mutate(text, mutation, line, col, where, token):
    """``text`` with one token replaced, one line deleted or duplicated,
    cut short, or a 0xff byte inserted; returns bytes."""
    lines = text.splitlines()
    i = line % len(lines)
    if mutation == "replace":
        words = lines[i].split(" ")
        words[col % len(words)] = token
        lines[i] = " ".join(words)
    elif mutation == "delete":
        del lines[i]
    elif mutation == "duplicate":
        lines.insert(i, lines[i])
    data = ("\n".join(lines) + "\n").encode("ascii")
    if mutation == "truncate":
        data = data[:where % len(data)]
    elif mutation == "byte":
        k = where % (len(data) + 1)
        data = data[:k] + b"\xff" + data[k:]
    return data


# line 3 of a gp file is 'nu 2.5' and line 11 'matrix design 8 2'
@example(kind="gp", mutation="replace", line=3, col=1, where=0, token="1e308")
@example(kind="gp", mutation="replace", line=11, col=2, where=0, token="4000000000")
@example(kind="ppgpr", mutation="byte", line=0, col=0, where=100, token="")
@settings(max_examples=300, deadline=None, database=None)
@given(kind=st.sampled_from(["ppgpr", "gp"]),
       mutation=st.sampled_from(["replace", "delete", "duplicate", "truncate", "byte"]),
       line=st.integers(0, 10**4), col=st.integers(0, 10**4),
       where=st.integers(0, 10**6), token=st.sampled_from(_TOKENS))
def test_mutated_model_file_never_escapes_predict(model_files, kind, mutation, line,
                                                  col, where, token):
    """Whatever one mutation does to a model file, in-process `ppgp predict`
    returns 0, 1 or 2; it never raises, and a failure says why on stderr."""
    texts, points, workdir = model_files
    model_path = workdir / "mutated.txt"
    model_path.write_bytes(_mutate(texts[kind], mutation, line, col, where, token))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["predict", "--model", str(model_path), "--points", str(points),
                       "--out", str(workdir / "pred.csv")])
    assert rc in (0, 1, 2)
    if rc:
        assert err.getvalue().startswith(("error: ", "numerical error: "))
