"""Gaussian-process surrogates for deterministic computer experiments.

The package provides plain GP regression with isotropic, product, and
additive Matérn/Gaussian correlations, a projection-pursuit GP that
learns an M x d linear transformation of the inputs by likelihood
gradient descent, experimental designs (Halton, randomized Latin
hypercube), standard benchmark functions, an RMSE/cross-validation
harness, and an empirical convergence-rate checker.
"""

# Each module's __all__ is its public API; the package re-exports them all.
from . import (benchmarks, designs, errors, evaluation, gp, kernels, linalg, modelio,
               pursuit, ratecheck)
from .benchmarks import *  # noqa: F403
from .designs import *  # noqa: F403
from .errors import *  # noqa: F403
from .evaluation import *  # noqa: F403
from .gp import *  # noqa: F403
from .kernels import *  # noqa: F403
from .linalg import *  # noqa: F403
from .modelio import *  # noqa: F403
from .pursuit import *  # noqa: F403
from .ratecheck import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (benchmarks, designs, errors, evaluation, gp, kernels, linalg,
                   modelio, pursuit, ratecheck)
    for name in module.__all__
] + ["__version__"]
