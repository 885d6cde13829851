"""Uniform grids on [0, 1], trapezoid-rule inner products and the CSV writer.

The trapezoid weights here define the discrete L2 pairing used everywhere:
measured outputs, modal projections and the predictor dynamics all share it,
so the discrete integration-by-parts identity of the finite-difference
operator holds exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSpec

__all__ = [
    "uniform_grid",
    "trapezoid_weights",
    "snapshot_norms",
    "cumulative_trapezoid",
    "end_derivatives",
    "format_row",
    "write_csv",
]

# 17 significant digits read back bit for bit, so reruns are byte-identical
_CSV_CELL = "%.17g"
# rows rendered per write: bounds the Python copy of the table held at once
_CSV_BLOCK_ROWS = 256
# rows per block of a pass over a (snapshots, n) array (see _row_blocks)
_BLOCK_ROWS = 256


def uniform_grid(nodes: int) -> np.ndarray:
    if nodes < 3:
        raise InvalidSpec(f"need at least 3 grid nodes, got {nodes}")
    return np.linspace(0.0, 1.0, int(nodes))


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    dx = grid[1] - grid[0]
    w = np.full(grid.shape, dx)
    w[0] = w[-1] = dx / 2.0
    return w


def snapshot_norms(fields: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid L2 norm and grid sup norm of each row of ``fields``."""
    l2 = np.sqrt(np.maximum((fields**2) @ weights, 0.0))
    return l2, np.max(np.abs(fields), axis=1)


def _row_blocks(count: int) -> list[slice]:
    """Slices of _BLOCK_ROWS consecutive rows that cover ``count`` rows, the
    remainder joined to the last one. Each block starts at a multiple of
    _BLOCK_ROWS and none is shorter than min(count, _BLOCK_ROWS): a 1-row
    block would take another BLAS routine (gemv for gemm, dot for gemv) than
    the whole array. With one BLAS thread, or below its threading size,
    these blocks gave every row of a product the bits it has in the product
    of the whole array, except products with 2 or 3 columns."""
    edges = list(range(0, count, _BLOCK_ROWS))[: max(count // _BLOCK_ROWS, 1)] + [count]
    return [slice(start, stop) for start, stop in zip(edges[:-1], edges[1:])]


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over the grid x along the last axis,
    starting at 0; scipy.integrate.cumulative_trapezoid(y, x, axis=-1,
    initial=0) bit for bit."""
    cum = np.cumsum(np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)
    return np.concatenate([np.zeros((*cum.shape[:-1], 1), dtype=cum.dtype), cum], axis=-1)


def end_derivatives(f: np.ndarray, dx: float):
    """Second-order one-sided derivatives at x = 0 and x = 1 along the last
    axis: two numbers for one field, two arrays for a stack of fields."""
    left = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * dx)
    right = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * dx)
    return left, right


def format_row(values) -> str:
    """The values on one comma-separated line, 17 significant digits each."""
    values = np.ravel(values).tolist()
    return ",".join([_CSV_CELL] * len(values)) % tuple(values)


def write_csv(path, header, columns) -> None:
    """Write the ``header`` lines as given, then one row per index of the
    equal-length ``columns`` (1-D arrays, or 2-D arrays taken column by
    column), every value with 17 significant digits; a bool column prints
    as 1/0."""
    table = np.column_stack(columns)
    row = ",".join([_CSV_CELL] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in header))
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start : start + _CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
