"""Deterministic test functions with their physical input ranges.

Each function carries its conventional box of physical ranges and an affine
pullback from the unit cube, so surrogate code can work on [0, 1]^d
throughout.  Formula sources:

* Borehole water-flow model (Harper & Gupta 1983), 8 inputs.
* OTL circuit mid-point voltage (Ben-Ari & Steinberg 2007), 6 inputs.
* Light-aircraft wing weight (Forrester, Sobester & Keane 2008), 10 inputs.
* ``xy + x^2`` on [-1, 1]^2, the canonical function an additive surrogate
  cannot represent.
* A sum of per-coordinate sines on [0, 1]^5, exactly additive by
  construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = ["BenchmarkFn", "by_name", "BENCHMARKS"]


@dataclass(frozen=True)
class BenchmarkFn:
    """A named deterministic function with per-input physical ranges."""

    name: str
    ranges: np.ndarray  # (d, 2) of (lo, hi), lo < hi
    _fn: Callable[[np.ndarray], np.ndarray]

    @property
    def dim(self) -> int:
        return self.ranges.shape[0]

    def to_physical(self, u: np.ndarray) -> np.ndarray:
        """Affine map from the unit cube to the physical box."""
        u = np.atleast_2d(np.asarray(u, dtype=float))
        lo, hi = self.ranges[:, 0], self.ranges[:, 1]
        return lo + u * (hi - lo)

    def eval_unit(self, u) -> np.ndarray:
        """Evaluate at unit-cube inputs (rows of ``u``) via the affine pullback.

        A row of the wrong width, or an entry outside [0, 1] (nan included),
        raises :class:`DomainError` naming the function; an entry is reported
        with its row, column and value.
        """
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if u.shape[1] != self.dim:
            raise DomainError(f"{self.name} takes {self.dim} inputs, got {u.shape[1]}")
        bad = ~((u >= 0.0) & (u <= 1.0))
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise DomainError(
                f"{self.name} unit-cube input {j} = {float(u[i, j])!r} outside [0, 1] "
                f"at row {i}"
            )
        return self._fn(self.to_physical(u))


def _borehole(x: np.ndarray) -> np.ndarray:
    rw, r, Tu, Hu, Tl, Hl, L, Kw = (x[:, i] for i in range(8))
    lnr = np.log(r / rw)
    num = 2.0 * np.pi * Tu * (Hu - Hl)
    den = lnr * (1.0 + 2.0 * L * Tu / (lnr * rw**2 * Kw) + Tu / Tl)
    return num / den


def _otl_circuit(x: np.ndarray) -> np.ndarray:
    Rb1, Rb2, Rf, Rc1, Rc2, beta = (x[:, i] for i in range(6))
    Vb1 = 12.0 * Rb2 / (Rb1 + Rb2)
    bRc9 = beta * (Rc2 + 9.0)
    denom = bRc9 + Rf
    return (
        (Vb1 + 0.74) * bRc9 / denom
        + 11.35 * Rf / denom
        + 0.74 * Rf * bRc9 / (denom * Rc1)
    )


def _wing_weight(x: np.ndarray) -> np.ndarray:
    Sw, Wfw, A, Lam, q, lam, tc, Nz, Wdg, Wp = (x[:, i] for i in range(10))
    cosL = np.cos(np.deg2rad(Lam))
    return (
        0.036
        * Sw**0.758
        * Wfw**0.0035
        * (A / cosL**2) ** 0.6
        * q**0.006
        * lam**0.04
        * (100.0 * tc / cosL) ** -0.3
        * (Nz * Wdg) ** 0.49
        + Sw * Wp
    )


def _xy_plus_x2(x: np.ndarray) -> np.ndarray:
    return x[:, 0] * x[:, 1] + x[:, 0] ** 2


def _additive_sine(x: np.ndarray) -> np.ndarray:
    return np.sum(np.sin(2.0 * np.pi * x), axis=1)


BENCHMARKS = {
    "borehole": BenchmarkFn(
        "borehole",
        np.array(
            [
                (0.05, 0.15),       # rw
                (100.0, 50000.0),   # r
                (63070.0, 115600.0),  # Tu
                (900.0, 1110.0),    # Hu
                (63.1, 116.0),      # Tl
                (700.0, 820.0),     # Hl
                (1120.0, 1680.0),   # L
                (9855.0, 12045.0),  # Kw
            ]
        ),
        _borehole,
    ),
    "otl-circuit": BenchmarkFn(
        "otl-circuit",
        np.array(
            [
                (50.0, 150.0),   # Rb1
                (25.0, 70.0),    # Rb2
                (0.5, 3.0),      # Rf
                (1.2, 2.5),      # Rc1
                (0.25, 1.2),     # Rc2
                (50.0, 300.0),   # beta
            ]
        ),
        _otl_circuit,
    ),
    "wing-weight": BenchmarkFn(
        "wing-weight",
        np.array(
            [
                (150.0, 200.0),    # Sw
                (220.0, 300.0),    # Wfw
                (6.0, 10.0),       # A
                (-10.0, 10.0),     # Lambda (degrees)
                (16.0, 45.0),      # q
                (0.5, 1.0),        # lambda
                (0.08, 0.18),      # tc
                (2.5, 6.0),        # Nz
                (1700.0, 2500.0),  # Wdg
                (0.025, 0.08),     # Wp
            ]
        ),
        _wing_weight,
    ),
    "xy-plus-x2": BenchmarkFn(
        "xy-plus-x2",
        np.array([(-1.0, 1.0), (-1.0, 1.0)]),
        _xy_plus_x2,
    ),
    "additive-sine": BenchmarkFn(
        "additive-sine",
        np.array([(0.0, 1.0)] * 5),
        _additive_sine,
    ),
}


def by_name(name: str) -> BenchmarkFn:
    """Look up a benchmark function by its kebab-case name."""
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise DomainError(
            f"unknown benchmark {name!r}; available: {sorted(BENCHMARKS)}"
        ) from None
