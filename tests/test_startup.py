"""SciPy stays unloaded until a command factors a matrix or evaluates a
Bessel function.

Each check starts a fresh interpreter, as every ``ppgp`` call does, and
reads ``sys.modules`` after running commands through ``cli.main``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ppgp
from ppgp import cli

_SRC = str(Path(ppgp.__file__).resolve().parents[1])

_SCIPY_LOADED = "sorted(m for m in sys.modules if m.startswith('scipy'))"

_SERVE = f"""
import json, sys
from ppgp import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print(json.dumps({_SCIPY_LOADED}))
"""

_TRAIN = f"""
import json, sys
import numpy as np
from ppgp import cli, matern
loaded = {{"import": {_SCIPY_LOADED}}}
assert cli.main(json.loads(sys.argv[1])) == 0
loaded["fit"] = {_SCIPY_LOADED}
matern(1.2, 1.0)(np.array([0.3]))
loaded["general nu"] = {_SCIPY_LOADED}
print(json.dumps(loaded))
"""


def _fresh(script, argv):
    """Run ``script`` in a new interpreter that imports this ppgp; returns
    its JSON output."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=_SRC if not path else _SRC + os.pathsep + path)
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 2-input ppgpr model file and a points file."""
    workdir = tmp_path_factory.mktemp("startup")
    model, points = workdir / "model.txt", workdir / "points.csv"
    assert cli.main(["fit", "--function", "xy-plus-x2", "--n-train", "8", "--epochs", "2",
                     "--model-out", str(model), "--out", str(workdir / "fit.csv")]) == 0
    points.write_text("x1,x2\n0.1,0.2\n0.3,0.4\n")
    return workdir, model, points


def test_serving_commands_load_no_scipy(files):
    """Import, --help, predict and eval-grid, with and without a model."""
    workdir, model, points = files
    out = str(workdir / "out.csv")
    loaded = _fresh(_SERVE, [
        ["--help"],
        ["predict", "--model", str(model), "--points", str(points), "--out", out],
        ["eval-grid", "--function", "xy-plus-x2", "--resolution", "3", "--out", out],
        ["eval-grid", "--function", "xy-plus-x2", "--resolution", "3",
         "--model", str(model), "--out", out],
    ])
    assert loaded == []


def test_scipy_loads_at_first_use(files):
    """A fit loads scipy.linalg at its first factor; only a Matérn kernel of
    general smoothness loads scipy.special."""
    workdir, _, _ = files
    loaded = _fresh(_TRAIN, [
        "fit", "--function", "xy-plus-x2", "--n-train", "8", "--epochs", "2",
        "--model-out", str(workdir / "fresh.txt"), "--out", str(workdir / "fit2.csv")])
    assert loaded["import"] == []
    assert "scipy.linalg" in loaded["fit"]
    assert "scipy.special" not in loaded["fit"]
    assert "scipy.special" in loaded["general nu"]


_NU_RANGE = f"""
import json, sys
from ppgp import DomainError, matern
rejected = []
for nu in (1e308, 2000.0, 200.0, 151.2, 151.0):
    try:
        matern(nu)
    except DomainError as exc:
        rejected.append(nu)
        assert "normalizer" in str(exc), exc
print(json.dumps({{"rejected": rejected, "scipy": {_SCIPY_LOADED}}}))
"""


def test_overflowing_bessel_normalizer_rejected_without_scipy():
    """A Matérn nu whose gamma(nu) * 2^(nu - 1) is not a finite double is a
    DomainError at construction, not an OverflowError or a kernel of nan
    values; the check loads no SciPy."""
    out = _fresh(_NU_RANGE, [])
    assert out == {"rejected": [1e308, 2000.0, 200.0, 151.2], "scipy": []}


_PHI_RANGE = f"""
import json, sys
from ppgp import DomainError, gaussian, matern
rejected = []
for name, make in (("matern 1e308", lambda: matern(2.5, 1e308)),
                   ("matern 1e160", lambda: matern(2.5, 1e160)),
                   ("matern 1e-300", lambda: matern(5.3, 1e-300)),
                   ("matern 1/2 1e308", lambda: matern(0.5, 1e308)),
                   ("gaussian 1e-200", lambda: gaussian(1e-200)),
                   ("gaussian 1e155", lambda: gaussian(1e155)),
                   ("gaussian 1e-150", lambda: gaussian(1e-150))):
    try:
        make()
    except DomainError as exc:
        rejected.append(name)
        assert "phi" in str(exc), exc
print(json.dumps({{"rejected": rejected, "scipy": {_SCIPY_LOADED}}}))
"""


def test_out_of_range_scale_rejected_without_scipy():
    """A phi whose scale constants are not usable doubles is a DomainError
    at construction: Matérn's lag scale 2 sqrt(nu) phi or derivative factor
    2 nu phi^2 / (nu - 1) overflowing, or a Gaussian's 2 phi^2 overflowing
    or underflowing to 0, where evaluation raised OverflowError or divided
    by zero.  The check loads no SciPy."""
    out = _fresh(_PHI_RANGE, [])
    assert out == {"rejected": ["matern 1e308", "matern 1e160", "gaussian 1e-200",
                                "gaussian 1e155"], "scipy": []}
