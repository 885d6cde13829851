"""Globally Lipschitz nonlinear terms with machine-checkable constants.

Rather than accepting arbitrary user code, the library restricts the
nonlinearity to forms whose L2 Lipschitz constant has a closed-form upper
bound: the zero term, linear non-local integral operators with smooth
kernels, and gain-saturated functionals of finitely many inner products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import profiles as pf
from .errors import GridMismatch, InvalidSpec
from .grids import trapezoid_weights

__all__ = [
    "NonlinearTerm",
    "ZeroTerm",
    "LinearNonlocalTerm",
    "GainSaturatedTerm",
    "nonlinearity_from_spec",
]


class NonlinearTerm:
    """Interface: the low-rank form f(u) = phi(rows @ u) @ cols on a fixed
    grid, plus its declared L2 Lipschitz bound.

    ``rows`` holds r quadrature functionals of u and ``cols`` the r spatial
    profiles they drive; the base class is the rank-0 (zero) term and
    ``phi`` the identity.
    """

    lipschitz_R: float = 0.0  # L2 -> L2 bound

    def factors(self, nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols), both of shape (r, nodes)."""
        return np.zeros((0, nodes)), np.zeros((0, nodes))

    @staticmethod
    def phi(z: np.ndarray) -> np.ndarray:
        return z

    def apply(self, u: np.ndarray) -> np.ndarray:
        rows, cols = self.factors(u.size)
        return self.phi(rows @ u) @ cols


@dataclass(frozen=True)
class ZeroTerm(NonlinearTerm):
    """The zero term f(u) = 0, with R = 0: the base class's rank-0 form."""


def _sampled_factors(term: NonlinearTerm, nodes: int, rows: np.ndarray, cols: np.ndarray):
    """``term``'s factors, sampled on its own grid, which must have ``nodes`` points."""
    if nodes != term.grid.size:
        raise GridMismatch(f"{type(term).__name__} is sampled on {term.grid.size} nodes, not {nodes}")
    return rows, cols


class LinearNonlocalTerm(NonlinearTerm):
    """f(u)(x) = int_0^1 G(x, s) u(s) ds with a smooth separable kernel
    G(x, s) = gain * a(x) b(s); the declared R is the Hilbert-Schmidt norm,
    an upper bound for the induced L2 operator norm."""

    def __init__(self, grid: np.ndarray, a, b, gain: float = 1.0):
        self.grid = np.asarray(grid, dtype=float)
        self.a = pf.as_profile(a, self.grid)
        self.b = pf.as_profile(b, self.grid)
        self.gain = float(gain)
        w = trapezoid_weights(self.grid)
        self._rows = (self.gain * self.b.values(self.grid) * w)[None, :]  # quadrature in s
        self._cols = self.a.values(self.grid)[None, :]
        norm_a = float(np.sqrt(np.dot(w, self._cols[0] ** 2)))
        norm_b = pf.norm_l2(self.b, self.grid)
        self.lipschitz_R = abs(self.gain) * norm_a * norm_b

    def factors(self, nodes: int) -> tuple[np.ndarray, np.ndarray]:
        return _sampled_factors(self, nodes, self._rows, self._cols)


class GainSaturatedTerm(NonlinearTerm):
    """f(u)(x) = sum_r amp_r(x) tanh(<w_r, u>); globally Lipschitz by
    construction since tanh is 1-Lipschitz and the functionals are bounded."""

    def __init__(self, grid: np.ndarray, weights, amplitudes):
        self.grid = np.asarray(grid, dtype=float)
        self.weight_profiles = tuple(pf.as_profile(p, self.grid) for p in weights)
        self.amp_profiles = tuple(pf.as_profile(p, self.grid) for p in amplitudes)
        if len(self.weight_profiles) != len(self.amp_profiles):
            raise InvalidSpec("need one amplitude per weight functional")
        w = trapezoid_weights(self.grid)
        self._rows = np.array([p.values(self.grid) * w for p in self.weight_profiles])
        self._amps = np.array([p.values(self.grid) for p in self.amp_profiles])
        amp_l2 = np.sqrt(np.sum(w * self._amps**2, axis=1))
        wgt_l2 = np.array([pf.norm_l2(p, self.grid) for p in self.weight_profiles])
        self.lipschitz_R = float(np.dot(amp_l2, wgt_l2))

    phi = staticmethod(np.tanh)

    def factors(self, nodes: int) -> tuple[np.ndarray, np.ndarray]:
        return _sampled_factors(self, nodes, self._rows, self._amps)


def nonlinearity_from_spec(spec: dict | None, grid: np.ndarray) -> NonlinearTerm:
    if spec is None:
        return ZeroTerm()
    kind = pf.spec_kind(spec, "zero")
    if kind == "zero":
        return ZeroTerm()

    def profile(s):
        return pf.as_profile(s, grid)

    def profiles(s):
        return [profile(p) for p in s]

    if kind == "linear_nonlocal":
        return LinearNonlocalTerm(
            grid, pf.spec_field(spec, "a", profile), pf.spec_field(spec, "b", profile),
            gain=pf.spec_field(spec, "gain", default=1.0),
        )
    if kind == "gain_saturated":
        return GainSaturatedTerm(
            grid,
            pf.spec_field(spec, "weights", profiles),
            pf.spec_field(spec, "amplitudes", profiles),
        )
    raise InvalidSpec(f"unknown nonlinearity kind {kind!r}")
