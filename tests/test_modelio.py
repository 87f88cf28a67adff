"""Tests for model serialization round trips."""

import dataclasses
import json
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ppgp import (
    DomainError,
    GpModel,
    ModelFormatError,
    MultivariateKernel,
    PpgprModel,
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
    transform,
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
        assert back.chol.jitter_used == model.chol.jitter_used
        assert np.array_equal(back.design, model.design)
        assert np.array_equal(back.responses, model.responses)
        assert np.array_equal(back.alpha, model.alpha)
        assert back.kernel == model.kernel

    def test_gaussian_family_round_trips(self):
        from ppgp import gaussian
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(12, 3))
        Y = rng.normal(size=12)
        kernel = MultivariateKernel(base=gaussian(0.8), structure="product",
                                    dim=3)
        model = fit(X, Y, kernel, nugget=1e-6)
        back = loads_model(dumps_model(model))
        assert back.kernel == model.kernel
        assert np.array_equal(back.predict(X), model.predict(X))

    def test_unknown_family_is_domain_error(self):
        """An unknown family is rejected, not read as a Gaussian."""
        X, Y = _borehole_data(10)
        kernel = MultivariateKernel(base=matern(2.5), structure="product", dim=8)
        text = dumps_model(fit(X, Y, kernel))
        bad = text.replace("family matern\nnu 2.5\n", "family foo\n")
        assert bad != text
        with pytest.raises(DomainError, match="foo"):
            loads_model(bad)


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


def _small_ppgpr(M=4):
    X, Y = _borehole_data(12)
    cfg = TrainConfig(eta=1e-8, epochs=3, M=M, seed=1, early_stop_rel=0.0)
    return train(X, Y, matern(2.5, 1.0), cfg)


_PPGPR = _small_ppgpr()
# version-1 files, which also stored sigma2_hat and the Cholesky factor,
# with predictions recorded when they were written
_FIXTURES = Path(__file__).parent / "fixtures"
_V1_RECORD = json.loads((_FIXTURES / "v1_predictions.json").read_text(encoding="ascii"))
_V1_PPGPR = (_FIXTURES / "v1_ppgpr.txt").read_text(encoding="ascii")
# a file's M must match the rows of its W, so M is drawn from these models
_PPGPR_BY_M = {M: _small_ppgpr(M) for M in (1, 2, 3)} | {4: _PPGPR}
_finite = st.floats(allow_nan=False, allow_infinity=False)
_non_negative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, database=None)
@given(
    eta=_non_negative, early_stop_rel=_finite, nugget=_non_negative,
    epochs=st.integers(1, 2**62), M=st.sampled_from(sorted(_PPGPR_BY_M)),
    seed=st.integers(0, 2**64 - 1), center=st.booleans(),
)
def test_train_config_round_trips(eta, early_stop_rel, nugget, epochs, M, seed, center):
    """Every TrainConfig field survives dumps/loads exactly."""
    cfg = TrainConfig(eta=eta, epochs=epochs, M=M, early_stop_rel=early_stop_rel,
                      seed=seed, nugget=nugget, center=center)
    model = dataclasses.replace(_PPGPR_BY_M[M], config=cfg)
    assert loads_model(dumps_model(model)).config == cfg


@st.composite
def _gp_models(draw):
    """A GpModel whose arrays and scalars are arbitrary finite doubles."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def array(*shape):
        return draw(hnp.arrays(np.float64, shape, elements=_finite))

    kernel = MultivariateKernel(base=matern(2.5, 0.7), structure="product", dim=d)
    nugget = draw(_non_negative)
    return GpModel(
        design=array(n, d), responses=array(n), kernel=kernel,
        nugget=nugget, center=draw(st.booleans()),
        center_mean=draw(_finite), alpha=array(n),
        jitter_used=draw(st.floats(min_value=nugget, allow_nan=False, allow_infinity=False)),
    )


def _bits(x):
    """Shape and raw bytes: equal only for bit-identical doubles (-0.0 too)."""
    x = np.asarray(x, dtype=np.float64)
    return x.shape, x.tobytes()


@settings(max_examples=200, deadline=None, database=None)
@given(model=_gp_models())
def test_gp_model_round_trips_bit_for_bit(model):
    """dumps/loads keeps every array and scalar field bit for bit, and
    dumping the loaded model gives the same bytes."""
    text = dumps_model(model)
    back = loads_model(text)
    for name in ("design", "responses", "alpha", "jitter_used", "center_mean", "nugget"):
        get = operator.attrgetter(name)
        assert _bits(get(back)) == _bits(get(model)), name
    assert back.center == model.center
    assert dumps_model(back) == text


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
        lambda t: _corrupt_row_after(_V1_PPGPR, "matrix chol"),
        lambda t: t.replace("matrix W 4 8", "matrix W four 8"),
        lambda t: t.replace(t.split("\n", 1)[0], "ppgp-model one"),
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

    def test_negative_seed_is_domain_error(self):
        """A seed init_weights cannot draw from is rejected at load, not
        left for a retraining to fail on."""
        text = _replace_line(dumps_model(_PPGPR), "seed", "-1")
        with pytest.raises(DomainError, match="seed"):
            loads_model(text)


def _shrink_vector(text, name):
    """Drop the last entry of vector ``name``, header included."""
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f"vector {name} "))
    lines[i] = f"vector {name} {int(lines[i].split()[2]) - 1}"
    lines[i + 1] = lines[i + 1].rsplit(" ", 1)[0]
    return "\n".join(lines) + "\n"


def _drop_matrix_row(text, name):
    """Drop the last row of matrix ``name``, header included."""
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f"matrix {name} "))
    _, _, rows, cols = lines[i].split()
    lines[i] = f"matrix {name} {int(rows) - 1} {cols}"
    del lines[i + int(rows)]
    return "\n".join(lines) + "\n"


class TestArrayShapes:
    """Arrays whose shapes disagree with the design, or with W and the
    config, are a ModelFormatError at load time, not a failure in predict."""

    @pytest.mark.parametrize("corrupt, match", [
        (lambda t: _shrink_vector(t, "responses"), "responses has 11 entries for 12"),
        (lambda t: _shrink_vector(t, "alpha"), "alpha has 11 entries for 12"),
        (lambda t: _replace_line(t, "M", "3"), "W has 4 rows, config M is 3"),
        (lambda t: _replace_line(_drop_matrix_row(t, "W"), "M", "3"),
         "inner design has 4 columns for 3 rows of W"),
        (lambda t: _shrink_vector(t, "trace_losses"),
         "trace_losses has 3 entries for 4 trace epochs"),
    ], ids=["responses", "alpha", "W-vs-M", "inner-vs-W", "trace"])
    def test_ppgpr_shape_mismatch_rejected(self, corrupt, match):
        text = corrupt(dumps_model(_PPGPR))
        with pytest.raises(ModelFormatError, match=match):
            loads_model(text)

    def test_gp_shape_mismatch_rejected(self):
        X, Y = _borehole_data(10)
        kernel = MultivariateKernel(base=matern(2.5, 1.0), structure="product", dim=8)
        text = dumps_model(fit(X, Y, kernel))
        with pytest.raises(ModelFormatError, match="alpha has 9 entries for 10"):
            loads_model(_shrink_vector(text, "alpha"))
        # the unedited file still loads
        assert dumps_model(loads_model(text)) == text


class TestVersion1Files:
    """Version-1 files still load: their sigma2_hat and chol entries are
    parsed and dropped, and the model rebuilds its factor from the design."""

    @pytest.mark.parametrize("name", sorted(_V1_RECORD))
    def test_predictions_match_the_recorded_values(self, name):
        text = (_FIXTURES / name).read_text(encoding="ascii")
        assert text.startswith("ppgp-model 1\n") and "\nmatrix chol " in text
        model = loads_model(text)
        record = _V1_RECORD[name]
        points = np.array(record["points"])
        np.testing.assert_allclose(model.predict(points), record["predictions"],
                                   rtol=1e-12, atol=0.0)
        gp = model.inner if isinstance(model, PpgprModel) else model
        inputs = transform(model.W, points) if gp is not model else points
        np.testing.assert_allclose(gp.p_squared(inputs), record["p_squared"],
                                   rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("name", sorted(_V1_RECORD))
    def test_dump_writes_version_2(self, name):
        model = load_model(_FIXTURES / name)
        text = dumps_model(model)
        assert text.startswith("ppgp-model 2\n")
        assert not any(line.startswith(("sigma2_hat ", "matrix chol "))
                       for line in text.splitlines())
        points = np.array(_V1_RECORD[name]["points"])
        assert np.array_equal(loads_model(text).predict(points), model.predict(points))


class TestLoadChecks:
    """The rebuilt factor's jitter ladder starts at jitter_used, which fit
    never leaves below the nugget: a file breaking either rule is a
    DomainError when it is read."""

    @pytest.mark.parametrize("key, value", [
        ("nugget", "-1.0"), ("nugget", "inf"), ("nugget", "nan"),
        ("jitter_used", "nan"), ("jitter_used", "-5.0"), ("jitter_used", "inf"),
        ("jitter_used", "1e-07"),
    ])
    @pytest.mark.parametrize("version", [1, 2])
    def test_rejected(self, key, value, version):
        text = _V1_PPGPR if version == 1 else dumps_model(_PPGPR)
        with pytest.raises(DomainError, match=key):
            loads_model(_replace_line(text, key, value))


class TestHostileFiles:
    """A file that cannot be decoded, sized or evaluated raises a typed
    error: ModelFormatError, or DomainError for a parsed value outside its
    domain; never UnicodeDecodeError, MemoryError or OverflowError."""

    def test_non_ascii_byte_is_format_error(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_bytes(dumps_model(_PPGPR).encode("ascii").replace(
            b"\nphi ", b"\nphi \xff", 1))
        with pytest.raises(ModelFormatError, match="cannot read model file"):
            load_model(path)

    @pytest.mark.parametrize("header", ["matrix W 4000000000 8", "matrix W 4 4000000000"],
                             ids=["rows", "cols"])
    def test_matrix_larger_than_file_is_format_error(self, header):
        """The header's shape is checked against the file before any
        allocation, so no MemoryError."""
        text = dumps_model(_PPGPR).replace("matrix W 4 8", header)
        with pytest.raises(ModelFormatError, match="does not fit"):
            loads_model(text)

    @pytest.mark.parametrize("epoch", ["inf", "0.5"])
    def test_trace_epoch_must_be_whole(self, epoch):
        """inf is no epoch, and 0.5 must not be truncated to epoch 0."""
        lines = dumps_model(_PPGPR).splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("vector trace_epochs"))
        lines[i + 1] = " ".join([epoch, *lines[i + 1].split()[1:]])
        with pytest.raises(ModelFormatError, match="whole epoch"):
            loads_model("\n".join(lines) + "\n")

    @pytest.mark.parametrize("nu", ["1e308", "200.0"])
    def test_overflowing_nu_is_domain_error(self, nu):
        """No kernel is built whose Bessel form overflows (1e308) or
        evaluates to nan (200)."""
        with pytest.raises(DomainError, match="normalizer"):
            loads_model(_replace_line(dumps_model(_PPGPR), "nu", nu))


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

    def test_missing_inner_section_rejected(self):
        text = dumps_model(_PPGPR)
        assert text.count("\ninner\n") == 1
        with pytest.raises(ModelFormatError, match="expected 'inner' section"):
            loads_model(text.replace("\ninner\n", "\n"))

    def test_unwritable_path_is_format_error(self, tmp_path):
        path = tmp_path / "missing" / "model.txt"
        with pytest.raises(ModelFormatError, match="cannot write model file"):
            save_model(_PPGPR, path)
        assert not path.parent.exists()
