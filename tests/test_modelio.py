"""Tests for model serialization round trips."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppgp import (
    DomainError,
    ModelFormatError,
    MultivariateKernel,
    TrainConfig,
    by_name,
    dumps_model,
    fit,
    halton,
    load_model,
    loads_model,
    matern,
    save_model,
    train,
    uniform_random,
)


def _borehole_data(n):
    fn = by_name("borehole")
    U = halton(n, fn.dim).points
    return U, fn.eval_unit(U)


class TestGpRoundTrip:
    """Plain GP models through text and back."""

    def test_predictions_identical(self):
        """Serialized floats round-trip exactly, so predictions match
        bit for bit without refitting."""
        X, Y = _borehole_data(20)
        kernel = MultivariateKernel(base=matern(2.5, 1.0),
                                    structure="isotropic", dim=8)
        model = fit(X, Y, kernel, nugget=1e-6)
        back = loads_model(dumps_model(model))
        probe = uniform_random(60, 8, seed=5).points
        assert np.array_equal(back.predict(probe), model.predict(probe))
        assert np.array_equal(back.p_squared(probe), model.p_squared(probe))

    def test_fields_preserved(self):
        X, Y = _borehole_data(15)
        kernel = MultivariateKernel(base=matern(1.5, 0.4),
                                    structure="additive", dim=8)
        model = fit(X, Y, kernel, nugget=1e-5, center=False)
        back = loads_model(dumps_model(model))
        assert back.nugget == model.nugget
        assert back.center is False
        assert back.center_mean == model.center_mean
        assert back.sigma2_hat == model.sigma2_hat
        assert back.chol.jitter_used == model.chol.jitter_used
        assert np.array_equal(back.design, model.design)
        assert np.array_equal(back.responses, model.responses)
        assert np.array_equal(back.alpha, model.alpha)
        assert back.kernel.as_config() == model.kernel.as_config()

    def test_gaussian_family_round_trips(self):
        from ppgp import gaussian
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(12, 3))
        Y = rng.normal(size=12)
        kernel = MultivariateKernel(base=gaussian(0.8), structure="product",
                                    dim=3)
        model = fit(X, Y, kernel, nugget=1e-6)
        back = loads_model(dumps_model(model))
        assert np.array_equal(back.predict(X), model.predict(X))


class TestPpgprRoundTrip:
    """Projection-pursuit models keep their training record."""

    def test_predictions_and_record(self):
        X, Y = _borehole_data(20)
        cfg = TrainConfig(eta=1e-8, epochs=12, M=10, seed=3,
                          early_stop_rel=0.0)
        model = train(X, Y, matern(2.5, 1.0), cfg)
        back = loads_model(dumps_model(model))
        probe = uniform_random(40, 8, seed=2).points
        assert np.array_equal(back.predict(probe), model.predict(probe))
        assert np.array_equal(back.W, model.W)
        assert back.trace == model.trace
        assert back.best_epoch == model.best_epoch
        assert back.diverged == model.diverged
        assert back.config == model.config


def _small_ppgpr():
    X, Y = _borehole_data(12)
    cfg = TrainConfig(eta=1e-8, epochs=3, M=4, seed=1, early_stop_rel=0.0)
    return train(X, Y, matern(2.5, 1.0), cfg)


_PPGPR = _small_ppgpr()
_finite = st.floats(allow_nan=False, allow_infinity=False)
_non_negative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, database=None)
@given(
    eta=_non_negative, early_stop_rel=_finite, nugget=_non_negative,
    epochs=st.integers(1, 2**62), M=st.integers(1, 2**62),
    seed=st.integers(0, 2**64 - 1), center=st.booleans(),
)
def test_train_config_round_trips(eta, early_stop_rel, nugget, epochs, M, seed, center):
    """Every TrainConfig field survives dumps/loads exactly."""
    cfg = TrainConfig(eta=eta, epochs=epochs, M=M, early_stop_rel=early_stop_rel,
                      seed=seed, nugget=nugget, center=center)
    model = dataclasses.replace(_PPGPR, config=cfg)
    assert loads_model(dumps_model(model)).config == cfg


def _replace_line(text, key, value):
    """Set the first ``key ...`` line of a model file to ``key value``."""
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.split(" ", 1)[0] == key)
    lines[i] = f"{key} {value}"
    return "\n".join(lines) + "\n"


def _corrupt_row_after(text, header):
    """Make the first number below a vector/matrix header unparseable."""
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(header)) + 1
    lines[i] = "1.0x " + lines[i].split(" ", 1)[-1]
    return "\n".join(lines) + "\n"


class TestMalformedNumbers:
    """A number that does not parse is a ModelFormatError, never a bare
    ValueError; a parsed value outside its domain stays a DomainError."""

    @pytest.mark.parametrize("corrupt", [
        lambda t: _replace_line(t, "eta", "oops"),
        lambda t: _replace_line(t, "epochs", "2.5"),
        lambda t: _replace_line(t, "cfg_center", "yes"),
        lambda t: _replace_line(t, "phi", "abc"),
        lambda t: _replace_line(t, "jitter_used", "abc"),
        lambda t: _corrupt_row_after(t, "vector trace_losses"),
        lambda t: _corrupt_row_after(t, "vector alpha"),
        lambda t: _corrupt_row_after(t, "matrix W"),
        lambda t: _corrupt_row_after(t, "matrix chol"),
        lambda t: t.replace("matrix W 4 8", "matrix W four 8"),
        lambda t: t.replace("ppgp-model 1", "ppgp-model one"),
    ])
    def test_unparseable_number_is_format_error(self, corrupt):
        text = corrupt(dumps_model(_PPGPR))
        assert text != dumps_model(_PPGPR)
        with pytest.raises(ModelFormatError, match="line"):
            loads_model(text)

    def test_value_outside_domain_stays_domain_error(self):
        text = _replace_line(dumps_model(_PPGPR), "phi", "-1.0")
        with pytest.raises(DomainError):
            loads_model(text)


class TestFileAndErrors:
    """Disk persistence and malformed inputs."""

    def test_save_load_file(self, tmp_path):
        X, Y = _borehole_data(12)
        kernel = MultivariateKernel(base=matern(2.5, 1.0),
                                    structure="isotropic", dim=8)
        model = fit(X, Y, kernel)
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.predict(X), model.predict(X))

    def test_bad_magic_rejected(self):
        with pytest.raises(ModelFormatError):
            loads_model("something-else 1\nkind gp\n")

    def test_unsupported_version_rejected(self):
        with pytest.raises(ModelFormatError):
            loads_model("ppgp-model 99\nkind gp\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ModelFormatError):
            loads_model("ppgp-model 1\nkind forest\n")

    def test_truncated_file_rejected(self):
        X, Y = _borehole_data(12)
        kernel = MultivariateKernel(base=matern(2.5, 1.0),
                                    structure="isotropic", dim=8)
        text = dumps_model(fit(X, Y, kernel))
        truncated = "\n".join(text.splitlines()[:10])
        with pytest.raises(ModelFormatError):
            loads_model(truncated)

    def test_unserializable_object_rejected(self):
        with pytest.raises(ModelFormatError):
            dumps_model({"not": "a model"})
