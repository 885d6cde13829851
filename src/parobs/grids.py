"""Uniform grids on [0, 1] and trapezoid-rule inner products.

The trapezoid weights here define the discrete L2 pairing used everywhere:
measured outputs, modal projections and the predictor dynamics all share it,
so the discrete integration-by-parts identity of the finite-difference
operator holds exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "uniform_grid",
    "trapezoid_weights",
    "trapz_inner",
    "l2_norm",
    "sup_norm",
    "snapshot_norms",
    "end_derivatives",
]


def uniform_grid(nodes: int) -> np.ndarray:
    if nodes < 3:
        raise ValueError("need at least 3 grid nodes")
    return np.linspace(0.0, 1.0, int(nodes))


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    dx = grid[1] - grid[0]
    w = np.full(grid.shape, dx)
    w[0] = w[-1] = dx / 2.0
    return w


def trapz_inner(f: np.ndarray, g: np.ndarray, weights: np.ndarray) -> float:
    return float(np.dot(weights, f * g))


def l2_norm(f: np.ndarray, weights: np.ndarray) -> float:
    return float(np.sqrt(np.dot(weights, f * f)))


def sup_norm(f: np.ndarray) -> float:
    return float(np.max(np.abs(f)))


def snapshot_norms(fields: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid L2 norm and grid sup norm of each row of ``fields``."""
    l2 = np.sqrt(np.maximum((fields**2) @ weights, 0.0))
    return l2, np.max(np.abs(fields), axis=1)


def end_derivatives(f: np.ndarray, dx: float) -> tuple[float, float]:
    """Second-order one-sided derivatives at x = 0 and x = 1."""
    left = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    right = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return float(left), float(right)
