"""Versioned text serialization of fitted models.

The format is line oriented: one ``key value`` pair per line, with
matrices and vectors introduced by ``matrix NAME ROWS COLS`` /
``vector NAME LEN`` headers followed by rows of space-separated numbers.
Floats are written with ``repr``, which round-trips IEEE doubles exactly,
so a loaded model reproduces the original's predictions bit for bit
without refitting.

A GP section holds what a prediction reads: the kernel, the nugget, the
centering, the jitter ``fit`` reached, the design, the responses and the
weights ``alpha``.  Version 2, the one written, holds exactly that.
Version 1 also held ``sigma2_hat`` and the n x n Cholesky factor; it is
still read, and those two entries are parsed and dropped.  A model
rebuilds its factor from the design when the predictive variance or the
likelihood first asks for it (:attr:`ppgp.gp.GpModel.chol`).
"""

from __future__ import annotations

import io
from dataclasses import fields

import numpy as np

from .errors import DomainError, ModelFormatError, PpgpError
from .gp import GpModel
from .kernels import Kernel1d, MultivariateKernel
from .pursuit import PpgprModel, TrainConfig

__all__ = ["save_model", "load_model", "dumps_model", "loads_model"]

_MAGIC = "ppgp-model"
_VERSION = 2
# TrainConfig fields are written in declaration order under their own
# names, except these two, which keep a prefix on disk
_CONFIG_KEYS = {"nugget": "cfg_nugget", "center": "cfg_center"}


def _fmt(x: float) -> str:
    return repr(float(x))


# annotated type of a TrainConfig field -> (format, parse)
_FIELD_CODECS = {
    "float": (_fmt, float),
    "int": (str, int),
    "int | None": (str, int),      # M, which train resolves to an int
    "bool": (lambda b: str(int(b)), lambda text: bool(int(text))),
}


def _write_vector(out, name: str, v) -> None:
    v = np.asarray(v, dtype=float).reshape(-1)
    out.write(f"vector {name} {v.shape[0]}\n")
    out.write(" ".join(_fmt(x) for x in v) + "\n")


def _write_matrix(out, name: str, A) -> None:
    A = np.asarray(A, dtype=float)
    out.write(f"matrix {name} {A.shape[0]} {A.shape[1]}\n")
    for row in A:
        out.write(" ".join(_fmt(x) for x in row) + "\n")


def _write_gp(out, model: GpModel) -> None:
    base = model.kernel.base
    out.write(f"family {base.family}\n")
    if base.family == "matern":
        out.write(f"nu {_fmt(base.nu)}\n")
    out.write(f"phi {_fmt(base.phi)}\n")
    out.write(f"structure {model.kernel.structure}\n")
    out.write(f"nugget {_fmt(model.nugget)}\n")
    out.write(f"center {int(model.center)}\n")
    out.write(f"center_mean {_fmt(model.center_mean)}\n")
    out.write(f"jitter_used {_fmt(model.jitter_used)}\n")
    _write_matrix(out, "design", model.design)
    _write_vector(out, "responses", model.responses)
    _write_vector(out, "alpha", model.alpha)


def dumps_model(model) -> str:
    """Serialize a GpModel or PpgprModel to text."""
    out = io.StringIO()
    out.write(f"{_MAGIC} {_VERSION}\n")
    if isinstance(model, PpgprModel):
        out.write("kind ppgpr\n")
        for f in fields(TrainConfig):
            text = _FIELD_CODECS[f.type][0](getattr(model.config, f.name))
            out.write(f"{_CONFIG_KEYS.get(f.name, f.name)} {text}\n")
        out.write(f"best_epoch {model.best_epoch}\n")
        out.write(f"diverged {int(model.diverged)}\n")
        _write_matrix(out, "W", model.W)
        _write_vector(out, "trace_epochs", [e for e, _ in model.trace])
        _write_vector(out, "trace_losses", [l for _, l in model.trace])
        out.write("inner\n")
        _write_gp(out, model.inner)
    elif isinstance(model, GpModel):
        out.write("kind gp\n")
        _write_gp(out, model)
    else:
        raise ModelFormatError(f"cannot serialize object of type {type(model)!r}")
    out.write("end\n")
    return out.getvalue()


def save_model(model, path) -> None:
    """Write a model to ``path`` in the versioned text format."""
    text = dumps_model(model)
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise ModelFormatError(f"cannot write model file {path!r}: {exc}") from None


class _Reader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next_line(self) -> str:
        if self.pos >= len(self.lines):
            raise ModelFormatError("unexpected end of model file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def key_value(self, expected: str) -> str:
        line = self.next_line()
        parts = line.split(maxsplit=1)
        if len(parts) != 2 or parts[0] != expected:
            raise ModelFormatError(f"expected '{expected} <value>', got {line!r}")
        return parts[1]

    def vector(self, expected: str) -> np.ndarray:
        header = self.next_line().split()
        if len(header) != 3 or header[0] != "vector" or header[1] != expected:
            raise ModelFormatError(f"expected vector {expected}, got {header!r}")
        n = int(header[2])
        vals = [float(x) for x in self.next_line().split()]
        if len(vals) != n:
            raise ModelFormatError(f"vector {expected}: expected {n} values")
        return np.array(vals)

    def matrix(self, expected: str) -> np.ndarray:
        header = self.next_line().split()
        if len(header) != 4 or header[0] != "matrix" or header[1] != expected:
            raise ModelFormatError(f"expected matrix {expected}, got {header!r}")
        rows, cols = int(header[2]), int(header[3])
        # the header sizes the allocation only if the rest of the file can
        # hold it: one line per row, each at least cols characters long
        if rows > len(self.lines) - self.pos or (
                rows > 0 and cols > len(self.lines[self.pos])):
            raise ModelFormatError(
                f"matrix {expected}: {rows}x{cols} does not fit in the rest of the file"
            )
        A = np.empty((rows, cols))
        for i in range(rows):
            vals = [float(x) for x in self.next_line().split()]
            if len(vals) != cols:
                raise ModelFormatError(f"matrix {expected}: row {i} has {len(vals)} values")
            A[i] = vals
        return A


def _read_gp(r: _Reader, version: int) -> GpModel:
    family = r.key_value("family")
    nu = float(r.key_value("nu")) if family == "matern" else None
    phi = float(r.key_value("phi"))
    structure = r.key_value("structure")
    nugget = float(r.key_value("nugget"))
    center = bool(int(r.key_value("center")))
    center_mean = float(r.key_value("center_mean"))
    # version 1 also holds sigma2_hat and the factor: parsed, then dropped
    if version == 1:
        float(r.key_value("sigma2_hat"))
    jitter_used = float(r.key_value("jitter_used"))
    design = r.matrix("design")
    responses = r.vector("responses")
    alpha = r.vector("alpha")
    if version == 1:
        r.matrix("chol")
    # the factor's jitter ladder starts at jitter_used, and fit never
    # leaves it below the nugget
    if not (np.isfinite(nugget) and nugget >= 0):
        raise DomainError(f"nugget must be finite and non-negative (got {nugget})")
    if not (np.isfinite(jitter_used) and jitter_used >= nugget):
        raise DomainError(
            f"jitter_used must be finite and at least the nugget {nugget} (got {jitter_used})"
        )
    n = design.shape[0]
    for name, v in (("responses", responses), ("alpha", alpha)):
        if v.shape[0] != n:
            raise ModelFormatError(
                f"vector {name} has {v.shape[0]} entries for {n} design rows"
            )
    kernel = MultivariateKernel(
        base=Kernel1d(family, nu, phi), structure=structure, dim=design.shape[1]
    )
    return GpModel(
        design=design,
        responses=responses,
        kernel=kernel,
        nugget=nugget,
        center=center,
        center_mean=center_mean,
        alpha=alpha,
        jitter_used=jitter_used,
    )


def loads_model(text: str):
    """Parse a serialized model; returns a GpModel or PpgprModel.

    A malformed file, a number that does not parse or an array whose shape
    disagrees with the others included, raises ``ModelFormatError``; a
    well-formed value outside its domain raises ``DomainError``.
    """
    r = _Reader(text)
    try:
        return _parse(r)
    except PpgpError:
        raise
    except ValueError as exc:
        raise ModelFormatError(f"line {r.pos}: {exc}") from None


def _parse(r: _Reader):
    header = r.next_line().split()
    if len(header) != 2 or header[0] != _MAGIC:
        raise ModelFormatError("not a model file (bad magic line)")
    version = int(header[1])
    if version not in (1, _VERSION):
        raise ModelFormatError(f"unsupported model version {header[1]}")
    kind = r.key_value("kind")
    if kind == "gp":
        model = _read_gp(r, version)
    elif kind == "ppgpr":
        config = {
            f.name: _FIELD_CODECS[f.type][1](r.key_value(_CONFIG_KEYS.get(f.name, f.name)))
            for f in fields(TrainConfig)
        }
        best_epoch = int(r.key_value("best_epoch"))
        diverged = bool(int(r.key_value("diverged")))
        W = r.matrix("W")
        if W.shape[0] != config["M"]:
            raise ModelFormatError(
                f"matrix W has {W.shape[0]} rows, config M is {config['M']}"
            )
        trace_epochs = r.vector("trace_epochs")
        trace_losses = r.vector("trace_losses")
        if trace_losses.shape != trace_epochs.shape:
            raise ModelFormatError(
                f"vector trace_losses has {trace_losses.shape[0]} entries for "
                f"{trace_epochs.shape[0]} trace epochs"
            )
        if r.next_line() != "inner":
            raise ModelFormatError("expected 'inner' section")
        inner = _read_gp(r, version)
        if inner.dim != W.shape[0]:
            raise ModelFormatError(
                f"inner design has {inner.dim} columns for {W.shape[0]} rows of W"
            )
        if not np.all(np.isfinite(trace_epochs) & (trace_epochs == np.round(trace_epochs))):
            raise ModelFormatError("vector trace_epochs must hold whole epoch numbers")
        trace = tuple(
            (int(e), float(l)) for e, l in zip(trace_epochs, trace_losses)
        )
        model = PpgprModel(
            W=W, inner=inner, trace=trace, config=TrainConfig(**config),
            best_epoch=best_epoch, diverged=diverged,
        )
    else:
        raise ModelFormatError(f"unknown model kind {kind!r}")
    if r.next_line() != "end":
        raise ModelFormatError("missing 'end' terminator")
    return model


def load_model(path):
    """Read a model written by :func:`save_model`."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"cannot read model file {path!r}: {exc}") from None
    return loads_model(text)
