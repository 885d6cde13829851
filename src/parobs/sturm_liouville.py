"""Sturm-Liouville operators -p u'' + q(x) u with separated Robin ends.

Provides the spectral machinery the observer designs rest on: closed-form
eigenpairs for the four standard constant-reaction cases, the lowest
eigenpairs of the second-order finite-difference operator for any other
plant, all of that operator's eigenpairs (``DiscreteSLOperator.eigenpairs``,
the modes the simulator runs in), the reduction of variable-coefficient
operators to constant-diffusion normal form, the tail-summability
diagnostic, and modal projections.

The finite-difference eigenpairs come from numpy alone: Rayleigh-Ritz on the
standard plant's discrete cosines or sines seeds each mode, and
Rayleigh-quotient iteration on a twisted factorization finds it; each mode
returned is verified by its residual and by Sturm counts with IEEE
arithmetic (Demmel, Dhillon & Ren, ETNA 3, 1995), which also bracket any
mode whose seed fails.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import profiles as pf
from .errors import (
    GridMismatch,
    InvalidM,
    InvalidSpec,
    NonPositiveCoefficient,
    ResolutionTooCoarse,
    UnsupportedAnalyticCase,
    UnverifiedEigenpair,
)
from .grids import cumulative_trapezoid, end_derivatives, format_row, trapezoid_weights
from .grids import uniform_grid, write_csv

__all__ = [
    "SLProblem",
    "GeneralSLProblem",
    "SpectralBasis",
    "DiscreteSLOperator",
    "CoordinateMap",
    "H1Report",
    "problem_from_spec",
    "analytic_eigensystem",
    "numeric_eigensystem",
    "check_h1",
    "liouville_transform",
    "project",
    "basis_to_csv",
    "basis_from_csv",
]


@dataclass(frozen=True)
class SLProblem:
    """Constant-diffusion operator B u = -p u'' + q(x) u on [0, 1] with
    Robin ends a0 u(0) + b0 u'(0) = 0, a1 u(1) + b1 u'(1) = 0."""

    p: float
    q: object  # spatial profile; numbers are coerced
    a0: float
    b0: float
    a1: float
    b1: float

    def __post_init__(self):
        object.__setattr__(self, "q", pf.as_profile(self.q))
        if not self.p > 0:
            raise InvalidSpec(f"diffusion constant must be positive, got {self.p}")
        if self.a0**2 + self.b0**2 <= 0 or self.a1**2 + self.b1**2 <= 0:
            raise InvalidSpec("each boundary condition needs a nonzero coefficient pair")

    @property
    def dirichlet_left(self) -> bool:
        return self.b0 == 0.0

    @property
    def dirichlet_right(self) -> bool:
        return self.b1 == 0.0

    def constant_q(self) -> float | None:
        """Reaction value when q is a constant closed-form profile, else None."""
        q = self.q
        if isinstance(q, pf.Profile) and not q.trig and len(q.poly) <= 1:
            return q.poly[0] if q.poly else 0.0
        return None

    def standard_q(self) -> float | None:
        """The constant q when q is constant and each end is pure Neumann
        (a = 0) or Dirichlet (b = 0), the four cases whose eigenpairs have a
        closed form, both of B and of its grid operator B_h; else None."""
        if (self.a0 != 0.0 and self.b0 != 0.0) or (self.a1 != 0.0 and self.b1 != 0.0):
            return None
        return self.constant_q()

    def boundary_residual(self, u: np.ndarray, du0: float, du1: float) -> float:
        scale = max(np.max(np.abs(u)), abs(du0), abs(du1), 1e-300)
        r0 = abs(self.a0 * u[0] + self.b0 * du0) / (abs(self.a0) + abs(self.b0)) / scale
        r1 = abs(self.a1 * u[-1] + self.b1 * du1) / (abs(self.a1) + abs(self.b1)) / scale
        return max(r0, r1)

    def spec(self) -> dict:
        """The plant as a config's ``problem`` section."""
        bc = {"a0": self.a0, "b0": self.b0, "a1": self.a1, "b1": self.b1}
        return {"p": self.p, "q": self.q.spec(), "bc": bc}


def problem_from_spec(spec: dict) -> SLProblem:
    """The plant of a ``problem`` section, as ``SLProblem.spec`` writes it;
    q is any profile spec or number and defaults to 0. A missing p, bc or bc
    entry, a p or bc entry that is not a number, or a q that is not a
    profile raises InvalidSpec naming its key."""
    def entry(node, path, cast=pf.as_number):
        key = path.rpartition(".")[2]
        if not isinstance(node, dict) or key not in node:
            raise InvalidSpec(f"{path}: missing field")
        return pf.cast_field(path, cast, node[key])

    bc = entry(spec, "problem.bc", lambda value: value)
    return SLProblem(
        p=entry(spec, "problem.p"),
        q=pf.cast_field("problem.q", pf.as_profile, spec.get("q", 0.0)),
        **{key: entry(bc, f"problem.bc.{key}") for key in ("a0", "b0", "a1", "b1")},
    )


@dataclass(frozen=True)
class GeneralSLProblem:
    """Variable-coefficient operator -(p(x) u')'/r(x) + q(x) u / r(x)."""

    p: object
    r: object
    q: object
    a0: float
    b0: float
    a1: float
    b1: float

    def __post_init__(self):
        object.__setattr__(self, "p", pf.as_profile(self.p))
        object.__setattr__(self, "r", pf.as_profile(self.r))
        object.__setattr__(self, "q", pf.as_profile(self.q))
        if self.a0**2 + self.b0**2 <= 0 or self.a1**2 + self.b1**2 <= 0:
            raise InvalidSpec("each boundary condition needs a nonzero coefficient pair")


class DiscreteSLOperator:
    """Second-order central-difference matrix of B with ghost-node Robin rows.

    The matrix is self-adjoint with respect to the trapezoid weights, so
    ``<c, B_h u>_h == <B_h c, u>_h`` holds to roundoff; the inter-sample
    predictor relies on this identity.
    """

    def __init__(self, problem: SLProblem, nodes: int):
        self.problem = problem
        self.grid = uniform_grid(nodes)
        self.dx = self.grid[1] - self.grid[0]
        self.weights = trapezoid_weights(self.grid)
        n = self.grid.size
        dx, p = self.dx, problem.p
        qv = pf.as_profile(problem.q).values(self.grid)

        diag = np.full(n, 2.0 * p / dx**2) + qv
        sub = np.full(n - 1, -p / dx**2)
        sup = np.full(n - 1, -p / dx**2)

        if problem.dirichlet_left:
            diag[0] = 0.0
            sup[0] = 0.0
        else:
            diag[0] = 2.0 * p / dx**2 - 2.0 * p * problem.a0 / (problem.b0 * dx) + qv[0]
            sup[0] = -2.0 * p / dx**2
        if problem.dirichlet_right:
            diag[-1] = 0.0
            sub[-1] = 0.0
        else:
            diag[-1] = 2.0 * p / dx**2 + 2.0 * p * problem.a1 / (problem.b1 * dx) + qv[-1]
            sub[-1] = -2.0 * p / dx**2

        self.diag, self.sub, self.sup = diag, sub, sup
        self.i0 = 1 if problem.dirichlet_left else 0
        self.i1 = n - 1 if problem.dirichlet_right else n

    @property
    def free(self) -> slice:
        return slice(self.i0, self.i1)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """B_h u along the last axis, so u may be a stack of fields, with
        pinned entries mapped to zero."""
        out = self.diag * u
        out[..., :-1] += self.sup * u[..., 1:]
        out[..., 1:] += self.sub * u[..., :-1]
        if self.problem.dirichlet_left:
            out[..., 0] = 0.0
        if self.problem.dirichlet_right:
            out[..., -1] = 0.0
        return out

    def pin(self, u: np.ndarray) -> np.ndarray:
        if self.problem.dirichlet_left:
            u[0] = 0.0
        if self.problem.dirichlet_right:
            u[-1] = 0.0
        return u

    def free_tridiagonals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sub, diag, sup) restricted to non-pinned nodes."""
        s = self.free
        return self.sub[s.start : s.stop - 1], self.diag[s], self.sup[s.start : s.stop - 1]

    def symmetric_tridiagonals(self) -> tuple[np.ndarray, np.ndarray]:
        """(diag, off) of W^{1/2} B_h W^{-1/2} on the non-pinned nodes, W the
        trapezoid weights there: a symmetric tridiagonal, since B_h is
        self-adjoint in W, with B_h's eigenvalues and eigenvectors W^{1/2} times
        B_h's."""
        _, diag, sup = self.free_tridiagonals()
        w = self.weights[self.free]
        return diag, sup * np.sqrt(w[:-1] / w[1:])

    def rayleigh_quotients(self, rows: np.ndarray) -> np.ndarray:
        """Each row's Rayleigh quotient x^T S x, S = W B_h on the free nodes,
        for rows on the whole grid of unit norm in the trapezoid weights, as
        sum_i -S_i,i+1 (x_i+1 - x_i)^2 + sum_i x_i^2 (row sum i of S): an
        eigenvalue to relative accuracy, where a tridiagonal eigensolver's
        own eigenvalues carry an absolute error of eps |B_h| (the Neumann
        mean mode on 101 nodes: -2.3e-12 by ``numpy.linalg.eigh``, 1e-26 by
        this sum)."""
        sub, diag, sup = self.free_tridiagonals()
        w = self.weights[self.free]
        link = w[:-1] * sup
        sums = w * diag
        sums[:-1] += link
        sums[1:] += w[1:] * sub
        x = rows[:, self.free]
        return (np.diff(x, axis=1) ** 2) @ -link + (x**2) @ sums

    def _grid_rows(self, vectors: np.ndarray) -> np.ndarray:
        """B_h's eigenvectors from those of ``symmetric_tridiagonals``: each
        row of ``vectors`` (its free-node values) times W^{-1/2}, as a row on
        the whole grid, zero at pinned nodes."""
        rows = np.zeros((vectors.shape[0], self.grid.size))
        rows[:, self.free] = vectors
        rows[:, self.free] /= np.sqrt(self.weights[self.free])
        return rows

    def _wave_values(self, waves: np.ndarray) -> np.ndarray:
        """(4 p / dx^2) sin^2(theta_k / 2), theta_k = w_k pi / (2M) on M
        intervals: B_h's eigenvalues for q = 0 at the standard waves w_k
        (``_standard_waves``) of its pinned ends."""
        theta = waves * (math.pi / (4 * (self.grid.size - 1)))
        return (4.0 * self.problem.p / self.dx**2) * np.sin(theta) ** 2

    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All of B_h's eigenvalues, ascending, and its eigenvectors as rows
        on the whole grid, zero at pinned nodes and of unit norm in the
        trapezoid weights.

        When ``problem.standard_q()`` holds they are closed forms: the
        eigenvectors are the plant's modes sampled at the free nodes
        (``_standard_waves``), and with theta_k = w_k pi / (2M) on M = n - 1
        intervals lam_k = q + (4 p / dx^2) sin^2(theta_k / 2): the discrete
        cosine and sine bases (Strang, "The discrete cosine transform", SIAM
        Review 41, 1999). For any other plant one ``numpy.linalg.eigh`` of
        ``symmetric_tridiagonals`` gives the modes, and each eigenvalue is
        its mode's Rayleigh quotient (``rayleigh_quotients``). For the J
        lowest modes alone, ``numeric_eigensystem`` is the cheaper solver.
        """
        q = self.problem.standard_q()
        if q is not None:
            count = self.i1 - self.i0
            waves, values = _standard_waves(self.problem, count, self.grid.size,
                                            np.arange(self.i0, self.i1))
            rows = np.zeros((count, self.grid.size))
            rows[:, self.free] = values
            rows /= np.sqrt((rows * rows) @ self.weights)[:, None]
            return q + self._wave_values(waves), rows
        diag, off = self.symmetric_tridiagonals()
        sym = np.diag(diag)
        i = np.arange(off.size)
        sym[i, i + 1] = sym[i + 1, i] = off
        vectors = np.linalg.eigh(sym)[1]
        del sym
        rows = self._grid_rows(vectors.T)
        del vectors
        return self.rayleigh_quotients(rows), rows


def _standard_waves(problem: SLProblem, count: int, nodes: int, index, shift: int = 0):
    """The first ``count`` modes of a plant whose ``standard_q()`` holds:
    their wavenumbers w_k = 2k + s in units of pi / 2, and their values at
    the node indices ``index`` of the uniform grid of ``nodes`` nodes, a
    (count, len(index)) block.

    Mode k is cos(w_k pi x / 2) from a Neumann left end and sin(w_k pi x / 2)
    from a Dirichlet one, with s = 0 for two Neumann ends, 1 for mixed ends
    and 2 for two Dirichlet ends. On M = nodes - 1 intervals the angle at
    node i is w_k i + ``shift`` in units of pi / (2M), an integer reduced to
    one period 4M in integers, so every value reads one table of the 4M
    values of cos or sin over a period; a ``shift`` of M, a quarter period,
    reads the derivative's wave. A wave at or past the grid's Nyquist
    limit, w_k >= 2M, aliases a lower one.
    """
    left, right = problem.dirichlet_left, problem.dirichlet_right
    waves = 2 * np.arange(count) + (2 if left and right else int(left != right))
    period = 4 * (nodes - 1)
    # int32 where the products fit: its % takes a third of int64's time
    dtype = np.int32 if (waves[-1] + 1) * (nodes - 1) < 2**31 else np.int64
    angles = np.multiply.outer(waves.astype(dtype), np.asarray(index, dtype=dtype))
    angles += shift
    angles %= period
    table = (np.sin if left else np.cos)(np.arange(period) * (2.0 * math.pi / period))
    return waves, table[angles]


@dataclass(frozen=True)
class SpectralBasis:
    """First J eigenpairs sampled on a uniform grid, unit L2 norm,
    eigenvalues strictly ascending."""

    grid: np.ndarray
    eigenvalues: np.ndarray
    functions: np.ndarray  # shape (J, nodes)
    end_derivs: np.ndarray  # shape (J, 2)
    problem: SLProblem | None = None
    closed_form: bool = False  # analytic_eigensystem's modes of ``problem``

    @property
    def size(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.grid)

    def orthonormality_defect(self) -> float:
        g = self.functions * self.weights
        gram = g @ self.functions.T
        return float(np.max(np.abs(gram - np.eye(self.size))))

    def boundary_defect(self) -> float:
        if self.problem is None:
            return math.nan
        worst = 0.0
        for k in range(self.size):
            worst = max(
                worst,
                self.problem.boundary_residual(
                    self.functions[k], self.end_derivs[k, 0], self.end_derivs[k, 1]
                ),
            )
        return worst

    def resample(self, nodes: int, modes: int | None = None) -> "SpectralBasis":
        """Same modes on a different uniform grid, only the first ``modes``
        of them when given; a closed-form basis is ``analytic_eigensystem``
        on the new grid, and numeric modes interpolate, one mode at a time,
        so a mode's samples do not depend on ``modes``. A basis already on
        ``nodes`` points is returned whole."""
        if nodes == self.grid.size:
            return self
        J = slice(modes)
        if self.closed_form:
            return _closed_form(self.problem, self.eigenvalues[J].size, nodes)[1]
        grid = uniform_grid(nodes)
        funcs = np.array([np.interp(grid, self.grid, f) for f in self.functions[J]])
        w = trapezoid_weights(grid)
        funcs /= np.sqrt(np.sum(w * funcs**2, axis=1))[:, None]
        return SpectralBasis(
            grid=grid,
            eigenvalues=self.eigenvalues[J].copy(),
            functions=funcs,
            end_derivs=self.end_derivs[J].copy(),
            problem=self.problem,
        )


def analytic_eigensystem(problem: SLProblem, J: int, nodes: int = 1001) -> SpectralBasis:
    """Exact eigenpairs for constant q and pure Neumann/Dirichlet ends.

    Mode k is sqrt(2) times the wave of ``_standard_waves`` (the Neumann
    mean mode 1), with wavenumber kappa_k = w_k pi / 2 and eigenvalue
    p kappa_k^2 + q; its end derivatives read the same table a quarter
    period on. Raises InvalidSpec when J < 1, ResolutionTooCoarse when mode
    J reaches the grid's Nyquist limit (w_{J-1} >= 2M on M = nodes - 1
    intervals), where the sampled modes alias lower ones and are no longer
    orthonormal, and UnsupportedAnalyticCase when q is non-constant or an
    end is genuinely Robin; callers fall back to :func:`numeric_eigensystem`.
    """
    waves, basis = _closed_form(problem, J, nodes)
    if waves[-1] >= 2 * (nodes - 1):
        raise ResolutionTooCoarse(
            f"closed-form mode {J} has wavenumber {waves[-1]} pi / 2, at or past the Nyquist "
            f"limit {nodes - 1} pi of the grid of {nodes} nodes")
    return basis


def _closed_form(problem: SLProblem, J: int, nodes: int) -> tuple[np.ndarray, SpectralBasis]:
    """The waves w_k and the basis of ``analytic_eigensystem``, on any grid
    of at least 3 nodes, however coarse: ``SpectralBasis.resample`` samples
    a closed-form basis's modes on the grid it is asked for."""
    if J < 1:
        raise InvalidSpec(f"need at least one mode, got J = {J}")
    qc = problem.standard_q()
    if qc is None:
        raise UnsupportedAnalyticCase(
            "closed-form eigenpairs need constant q and pure Neumann or Dirichlet ends")
    waves, funcs = _standard_waves(problem, J, nodes, np.arange(nodes))
    _, ends = _standard_waves(problem, J, nodes, [0, nodes - 1], shift=nodes - 1)
    kappa = waves * (math.pi / 2.0)
    amp = np.where(waves == 0, 1.0, math.sqrt(2.0))
    funcs *= amp[:, None]
    return waves, SpectralBasis(
        grid=uniform_grid(nodes),
        eigenvalues=np.array([problem.p * k**2 + qc for k in kappa.tolist()]),
        functions=funcs,
        end_derivs=(amp * kappa)[:, None] * ends,
        problem=problem,
        closed_form=True,
    )


# -- the numeric eigensolver --------------------------------------------------

_SEED_EXTRA = 16  # standard waves beyond the J modes in the Rayleigh-Ritz seed
_NARROW = 8  # a bracket this many times narrower than the gaps to its neighbours' is isolated
_REFINE_CAP = 40  # repair passes, each quartering every bracket that is not isolated
_RQI_CAP = 8  # Rayleigh-quotient iterations per try; unsettled after a bracketed try is an error


class _Twisted:
    """A symmetric tridiagonal T (diagonal ``diag``, off-diagonal ``off``)
    factored from both ends towards its middle row: row j is eliminated
    together with row n-1-j, so one Python loop over m = (n - 1) / 2 pairs
    of rows factors T - s for every shift s at once, and the middle row's
    pivot closes the twisted factorization (Parlett & Dhillon, "Fernando's
    solution to Wilkinson's problem", Linear Algebra Appl. 267, 1997). An
    even n gets a decoupled last row at 2 |T|_1, above every shift."""

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        rims = np.abs(off)
        self.norm = float(np.max(np.abs(diag) + np.r_[0.0, rims] + np.r_[rims, 0.0]))  # |T|_1
        self.size = n = diag.size
        if n % 2 == 0:
            diag, off, n = np.r_[diag, 2.0 * self.norm], np.r_[off, 0.0], n + 1
        self.m = m = (n - 1) // 2
        self.middle = diag[m]
        self.ends = np.column_stack([diag[:m], diag[:m:-1]])
        # each paired row's off-diagonal towards the middle
        self.links = np.column_stack([off[:m], off[n - 2 : m - 1 : -1]])

    def pivots(self, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pivots of T - s for the S ``shifts``: an (m, 2S) array whose
        row j holds rows j and n-1-j, and the middle row's (S,). A zero pivot
        makes the next one -inf and the one after it finite again, so the
        count of negative pivots needs no test (Demmel, Dhillon & Ren, "On
        the correctness of some bisection-like parallel eigenvalue
        algorithms in floating point arithmetic", ETNA 3, 1995)."""
        S = shifts.size
        piv = (self.ends[:, :, None] - shifts).reshape(self.m, 2 * S)
        squares = np.repeat(self.links**2, S, axis=1)
        ratio = np.empty(2 * S)
        rows = list(piv)
        with np.errstate(divide="ignore"):
            for square, prev, row in zip(squares, rows, rows[1:]):
                np.divide(square, prev, ratio)
                np.subtract(row, ratio, row)
            inner = squares[-1] / piv[-1]
        return piv, self.middle - shifts - inner[:S] - inner[S:]

    @staticmethod
    def _below(piv: np.ndarray, centre: np.ndarray) -> np.ndarray:
        """The number of eigenvalues of T below each shift of ``pivots``
        (Sylvester's law of inertia: the negative pivots)."""
        neg = np.signbit(piv).sum(axis=0, dtype=np.int32)
        return neg[: centre.size] + neg[centre.size :] + np.signbit(centre)

    def counts(self, shifts: np.ndarray) -> np.ndarray:
        """The number of eigenvalues of T below each shift."""
        return self._below(*self.pivots(shifts))

    def solve(self, shifts: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, ...]:
        """x_k = (T - s_k)^{-1} b_k for each row b_k of ``rhs`` (k, n) and
        shift s_k, as rows, with the shifts used and the Sturm count
        (``counts``) at each, which the factorization's pivots give for
        free. A shift at which a pivot vanishes, an eigenvalue of T or of a
        block at either end (the Neumann mean mode's 0), moves up by
        eps |T|_1: the solve is then as good a step of inverse iteration."""
        m, k = self.m, shifts.size
        piv, centre = self.pivots(shifts)
        finite = np.isfinite(piv).all(axis=0).reshape(2, k).all(axis=0)
        broken = ~(finite & (centre != 0) & np.isfinite(centre))
        if broken.any():
            shifts = shifts + broken * (np.finfo(float).eps * self.norm)
            piv, centre = self.pivots(shifts)
        mult = np.repeat(self.links, k, axis=1) / piv
        b = rhs if self.size % 2 else np.column_stack([rhs, np.zeros(k)])
        x = np.concatenate([b[:, :m].T, b[:, :m:-1].T], axis=1)
        step = np.empty(2 * k)
        rows, mults = list(x), list(mult)
        for mu, prev, row in zip(mults, rows, rows[1:]):  # elimination, inwards
            np.multiply(mu, prev, step)
            np.subtract(row, step, row)
        middle = (b[:, m] - mult[-1, :k] * x[-1, :k] - mult[-1, k:] * x[-1, k:]) / centre
        x /= piv
        inner = np.concatenate([middle, middle])
        for mu, row in zip(mults[::-1], rows[::-1]):  # back substitution, outwards
            np.multiply(mu, inner, step)
            np.subtract(row, step, row)
            inner = row
        out = np.empty((k, 2 * m + 1))
        out[:, :m], out[:, m], out[:, :m:-1] = x[:, :k].T, middle, x[:, k:].T
        return out[:, : self.size], shifts, self._below(piv, centre)


def _brackets(shifts: list, counts: list, modes: int) -> tuple[np.ndarray, np.ndarray]:
    """For each k < ``modes`` the highest shift with at most k eigenvalues
    below it and the lowest with more: the k-th eigenvalue lies between."""
    shifts, counts = np.concatenate(shifts), np.concatenate(counts)
    below = counts[:, None] <= np.arange(modes)
    lo = np.where(below, shifts[:, None], -np.inf).max(axis=0)
    hi = np.where(below, np.inf, shifts[:, None]).min(axis=0)
    return lo, hi


def _isolate(T: _Twisted, modes: np.ndarray, K: int, shifts: list, counts: list):
    """Brackets of the eigenvalues ``modes`` (of the K lowest), each
    isolated from its neighbours', from the Sturm ``counts`` at ``shifts``
    so far: quartering every bracket that is not isolated, of ``modes`` and
    of their neighbours, whose brackets bound the gaps."""
    near = np.zeros(K, dtype=bool)
    near[np.r_[modes - 1, modes, modes + 1].clip(0, K - 1)] = True
    for _ in range(_REFINE_CAP):
        lo, hi = _brackets(shifts, counts, K)
        gaps = lo[1:] - hi[:-1]
        wide = (hi - lo) * _NARROW > np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])
        if not wide[modes].any():
            return lo[modes], hi[modes]
        split = wide & near
        shifts.append(np.unique(lo[split, None] + (hi - lo)[split, None] * [0.25, 0.5, 0.75]))
        counts.append(T.counts(shifts[-1]))
    k = modes[np.argmax(wide[modes])]
    raise UnverifiedEigenpair(f"eigenvalue {k + 1} is not isolated in [{lo[k]!r}, {hi[k]!r}]")


def _ritz_seeds(op: DiscreteSLOperator, diag: np.ndarray, J: int):
    """Rayleigh-Ritz on the first J + _SEED_EXTRA discrete cosines or sines
    of the standard plant with the same pinned ends (``_standard_waves``):
    the J lowest Ritz values of T (``symmetric_tridiagonals``, of diagonal
    ``diag``) and their Ritz vectors as rows. Scaled by W^{1/2} and
    normalised, the waves Y are eigenvectors of T0, T for q = 0 with each
    Robin end made Neumann, and orthonormal to roundoff, so they take no
    orthonormalisation; T - T0 is diagonal, so Y T Y^T is T0's closed-form
    eigenvalues plus Y (T - T0) Y^T."""
    count = min(J + _SEED_EXTRA, diag.size)
    waves, y = _standard_waves(op.problem, count, op.grid.size, np.arange(op.i0, op.i1))
    y *= np.sqrt(op.weights[op.free])
    y /= np.sqrt(np.einsum("ij,ij->i", y, y))[:, None]
    ritz = (y * (diag - 2.0 * op.problem.p / op.dx**2)) @ y.T  # T0's diagonal is 2 p / dx^2
    ritz[np.diag_indices(count)] += op._wave_values(waves)
    values, c = np.linalg.eigh(ritz)
    return values[:J], c[:, :J].T @ y


def _rayleigh_iterations(op, T, modes, shift, y, lo, hi, vecs, shifts, counts) -> np.ndarray:
    """Rayleigh-quotient iteration for the eigenvalues ``modes`` from the
    rows ``y`` at ``shift``, each mode until its quotient
    (``rayleigh_quotients``) changes by at most 8 eps |T|_1, when its row
    goes into ``vecs``; a quotient outside its bracket [lo, hi] (by more
    than roundoff) restarts from the bracket's midpoint. Each solve's shifts
    and Sturm counts join ``shifts`` and ``counts``. Returns the modes left
    over: those still moving after _RQI_CAP solves, and those with a shift
    that the counts place outside (lam_{k-1}, lam_{k+1}], where the
    iteration may be drawn to a neighbour."""
    eps = np.finfo(float).eps
    bound = T.size * eps * T.norm
    active, last, left = modes, shift, []
    for _ in range(_RQI_CAP):
        x, used, below = T.solve(shift, y)
        shifts.append(used)
        counts.append(below)
        y = x / np.linalg.norm(x, axis=1)[:, None]
        quotients = op.rayleigh_quotients(op._grid_rows(y))
        clear = (below == active) | (below == active + 1)
        settled = clear & (np.abs(quotients - last) <= 8.0 * eps * T.norm)
        vecs[active[settled]] = y[settled]
        left.append(active[~clear])
        keep = clear & ~settled
        active, y, lo, hi, last = active[keep], y[keep], lo[keep], hi[keep], quotients[keep]
        if not active.size:
            break
        shift = np.where((lo - bound <= last) & (last <= hi + bound), last, (lo + hi) / 2)
    return np.sort(np.concatenate([active, *left]))


def _lowest_eigenpairs(op: DiscreteSLOperator, J: int) -> tuple[np.ndarray, np.ndarray]:
    """B_h's J lowest eigenvalues, ascending, and its eigenvectors as rows on
    the whole grid, zero at pinned nodes and of unit norm in the trapezoid
    weights, from the symmetric tridiagonal T of ``symmetric_tridiagonals``.

    Rayleigh-Ritz on the standard plant's waves (``_ritz_seeds``) seeds
    every mode, and Rayleigh-quotient iteration on a twisted factorization
    (``_rayleigh_iterations``) refines it; no eigenvalue is bracketed first
    (Parlett, "The Symmetric Eigenvalue Problem", ch. 4 and 11). Each
    eigenvalue returned is verified against the bound n eps |T|_1: its
    residual |T y - lam y| is within the bound, so an eigenvalue of T lies
    that close, and the Sturm counts at lam -/+ the bound are k and k + 1,
    so that eigenvalue is the k-th. Brackets are the repair: a mode whose
    seed the Sturm counts of its solves call ambiguous, that does not
    settle, or that fails verification is bracketed from the counts so far
    and by quartering until isolated from its neighbours, and iterated
    again from its Ritz vector at its bracket's midpoint. A mode that then
    does not settle within the iteration cap or fails either check raises
    UnverifiedEigenpair.
    """
    diag, off = op.symmetric_tridiagonals()
    T = _Twisted(diag, off)
    n, K = T.size, J + 1  # mode J bounds the last mode's gap from above
    bound = n * np.finfo(float).eps * T.norm
    # Gershgorin: no eigenvalue lies beyond |T|_1 either side of 0
    shifts, counts = [np.r_[-2.0, 2.0] * T.norm], [np.array([0, n])]
    theta, seeds = _ritz_seeds(op, diag, J)
    vecs = np.empty((J, n))
    reach = np.full(J, 2.0 * T.norm)
    retry = _rayleigh_iterations(op, T, np.arange(J), theta, seeds, -reach, reach, vecs,
                                 shifts, counts)
    order = np.arange(J)
    for _ in range(2):  # the modes the seeds left, then those that failed verification
        if retry.size:
            lo, hi = _isolate(T, retry, K, shifts, counts)
            unsettled = _rayleigh_iterations(op, T, retry, (lo + hi) / 2, seeds[retry], lo, hi,
                                             vecs, shifts, counts)
            if unsettled.size:
                raise UnverifiedEigenpair(f"eigenvalue {unsettled[0] + 1} did not settle in "
                                          f"{_RQI_CAP} Rayleigh-quotient iterations")
        # independent solves leave the modes orthogonal only to about 1e-12; one
        # symmetric (Lowdin) step, I - (G - I) / 2 for their Gram matrix G, takes
        # that to roundoff and moves each mode by no more
        rows = op._grid_rows(vecs - 0.5 * (vecs @ vecs.T - np.eye(J)) @ vecs)
        lams = op.rayleigh_quotients(rows)
        # |T y - lam y| is the norm of B_h x - lam x in the trapezoid weights
        misfit = op.apply(rows) - lams[:, None] * rows
        residual = np.sqrt(misfit**2 @ op.weights)
        shifts.append(np.r_[lams - bound, lams + bound])
        counts.append(T.counts(shifts[-1]))
        below = counts[-1]
        ok = (residual <= bound) & (below[:J] == order) & (below[J:] == order + 1)
        if ok.all():
            return lams, rows
        retry = order[~ok]
    k = int(np.argmin(ok))
    raise UnverifiedEigenpair(
        f"eigenvalue {k + 1} ({lams[k]!r}) is not verified: residual {residual[k]:.3g} "
        f"against the bound {bound:.3g}, or Sturm counts place it elsewhere")


def numeric_eigensystem(problem: SLProblem, J: int, nodes: int) -> SpectralBasis:
    """First J eigenpairs of the central-difference discretization.

    The eigenpairs of its symmetric tridiagonal form come from
    Rayleigh-quotient iteration seeded by Rayleigh-Ritz on the standard
    plant's waves, and are verified by Sturm counts, with the IEEE-robust
    count of Demmel, Dhillon & Ren (ETNA 3, 1995), which bracket a mode only
    when its seed fails (``_lowest_eigenpairs``); each eigenvalue is its
    mode's Rayleigh quotient, accurate relative to its own size.
    Eigenfunctions are orthonormal in the trapezoid inner product and carry
    the deterministic sign convention (first nonzero value or derivative at
    x = 0 is positive). Raises InvalidSpec when J < 1,
    ResolutionTooCoarse when the grid has fewer than 8 nodes per mode, or
    when the estimated discretization error is too large to separate
    adjacent modes, and UnverifiedEigenpair when a mode fails its residual
    or Sturm-count check.
    """
    if J < 1:
        raise InvalidSpec(f"need at least one mode, got J = {J}")
    if nodes < 8 * J:
        raise ResolutionTooCoarse(f"need nodes >= 8*J = {8 * J}, got {nodes}")
    op = DiscreteSLOperator(problem, nodes)
    lams, funcs = _lowest_eigenpairs(op, J)

    dx = op.dx
    # sign convention: the first nonzero of the value or derivative at x = 0
    d0, d1 = end_derivatives(funcs, dx)
    scale = np.max(np.abs(funcs), axis=1)
    anchor = np.where(np.abs(funcs[:, 0]) > 1e-8 * scale, funcs[:, 0], d0)
    sign = np.where(anchor < 0, -1.0, 1.0)
    funcs *= sign[:, None]
    ders = np.column_stack([d0, d1]) * sign[:, None]

    qmin = float(np.min(pf.as_profile(problem.q).values(op.grid)))
    est_err = (np.maximum(lams - qmin, 0.0) ** 2) * dx**2 / (12.0 * problem.p)
    gaps = np.diff(lams)
    bad = gaps < 10.0 * np.maximum(est_err[:-1], est_err[1:])
    if np.any(bad):
        n_bad = int(np.argmax(bad)) + 1
        raise ResolutionTooCoarse(
            f"modes {n_bad} and {n_bad + 1} are separated by {gaps[n_bad - 1]:.3g} "
            f"but the discretization error estimate is {est_err[n_bad]:.3g}"
        )
    return SpectralBasis(
        grid=op.grid,
        eigenvalues=lams,
        functions=funcs,
        end_derivs=ders,
        problem=problem,
    )


@dataclass(frozen=True)
class H1Report:
    """Summability diagnostic for sum_n lambda_n^{-1} max|phi_n|."""

    sufficient_condition: bool
    terms: np.ndarray
    partial_sum: float
    decay_exponent: float
    convergent: bool
    M: int
    J_tail: int


def check_h1(problem: SLProblem, basis: SpectralBasis, M: int, J_tail: int) -> H1Report:
    """Certificate of the sign-pattern sufficient condition plus a tail-decay
    diagnostic over modes M..M+J_tail (1-based).

    The sufficient condition (b0, a1, b1 >= 0 and a0 <= 0) is checked up to
    the per-end sign normalization of the Robin pairs, which leaves the
    boundary condition unchanged.
    """
    if basis.size < M + J_tail:
        raise ValueError(f"basis has {basis.size} modes, need {M + J_tail}")
    if M < 1 or basis.eigenvalues[M - 1] <= 0.0:
        raise InvalidM(f"lambda_M must be positive, got index M={M}")
    sufficient = (problem.a0 * problem.b0 <= 0.0) and (problem.a1 * problem.b1 >= 0.0)
    idx = np.arange(M, M + J_tail + 1)
    lams = basis.eigenvalues[idx - 1]
    sups = np.max(np.abs(basis.functions[idx - 1]), axis=1)
    terms = sups / lams
    slope, _ = np.polyfit(np.log(idx.astype(float)), np.log(terms), 1)
    convergent = bool(slope <= -1.8)  # "at least like n^-2", with fit slack
    return H1Report(
        sufficient_condition=bool(sufficient),
        terms=terms,
        partial_sum=float(np.sum(terms)),
        decay_exponent=float(slope),
        convergent=convergent,
        M=M,
        J_tail=J_tail,
    )


@dataclass(frozen=True)
class CoordinateMap:
    """Monotone change of variable x -> xi with amplitude factor (r p)^{1/4}."""

    x_nodes: np.ndarray
    xi_nodes: np.ndarray
    amplitude_samples: np.ndarray
    epsilon: float

    def forward(self, x) -> np.ndarray:
        return np.interp(x, self.x_nodes, self.xi_nodes)

    def amplitude(self, x) -> np.ndarray:
        return np.interp(x, self.x_nodes, self.amplitude_samples)


def liouville_transform(
    gproblem: GeneralSLProblem, nodes: int = 1001
) -> tuple[SLProblem, CoordinateMap]:
    """Reduce -(p u')'/r + (q/r) u to constant-diffusion normal form.

    New coordinate xi = sqrt(eps) * int_0^x sqrt(r/p), eps =
    (int_0^1 sqrt(r/p))^{-2}; amplitude factor (r p)^{1/4}. The transformed
    reaction profile and Robin coefficients come out on a uniform xi grid.
    """
    x = uniform_grid(nodes)
    pv = pf.as_profile(gproblem.p).values(x)
    rv = pf.as_profile(gproblem.r).values(x)
    qv = pf.as_profile(gproblem.q).values(x)
    if np.min(pv) <= 0.0 or np.min(rv) <= 0.0:
        raise NonPositiveCoefficient("p and r must be strictly positive on the grid")

    s = np.sqrt(rv / pv)
    integral = cumulative_trapezoid(s, x)
    total = integral[-1]
    eps = total**-2
    xi = integral / total

    mu = (rv * pv) ** 0.25
    dmu = np.gradient(mu, x, edge_order=2)
    inner = pv * dmu / mu**2
    q_normal = qv / rv + (pv / mu**3) * np.gradient(inner, x, edge_order=2)

    xi_grid = uniform_grid(nodes)
    q_uniform = np.interp(xi_grid, xi, q_normal)

    sqrt_eps = 1.0 / total
    a0 = gproblem.a0 - gproblem.b0 * dmu[0] / mu[0]
    b0 = gproblem.b0 * sqrt_eps * s[0]
    a1 = gproblem.a1 - gproblem.b1 * dmu[-1] / mu[-1]
    b1 = gproblem.b1 * sqrt_eps * s[-1]

    normal = SLProblem(
        p=eps, q=pf.SampledProfile(xi_grid, q_uniform), a0=a0, b0=b0, a1=a1, b1=b1
    )
    cmap = CoordinateMap(x_nodes=x, xi_nodes=xi, amplitude_samples=mu, epsilon=eps)
    return normal, cmap


def project(f, basis: SpectralBasis, J: int | None = None) -> np.ndarray:
    """Trapezoid inner products <f, phi_1..J> on the basis grid."""
    J = basis.size if J is None else J
    if J > basis.size:
        raise ValueError(f"basis holds {basis.size} modes, asked for {J}")
    if isinstance(f, np.ndarray) or (
        isinstance(f, (list, tuple)) and f and isinstance(f[0], (int, float))
    ):
        vals = np.asarray(f, dtype=float)
        if vals.shape != basis.grid.shape:
            raise GridMismatch(
                f"samples have {vals.size} points, basis grid has {basis.grid.size}"
            )
    else:
        vals = pf.as_profile(f).values(basis.grid)
    return (basis.functions[:J] * basis.weights) @ vals


# -- CSV interchange ----------------------------------------------------------

def basis_to_csv(basis: SpectralBasis, path) -> None:
    """One row per node, columns x, phi_1..phi_J; eigenvalues and endpoint
    derivatives in the leading comment block. Written by
    ``grids.write_csv``, so ``basis_from_csv`` reads every number back bit
    for bit."""
    header = [
        "# parobs-basis-version: 1",
        "# eigenvalues: " + format_row(basis.eigenvalues),
        "# end_derivatives_left: " + format_row(basis.end_derivs[:, 0]),
        "# end_derivatives_right: " + format_row(basis.end_derivs[:, 1]),
        "x," + ",".join(f"phi_{k + 1}" for k in range(basis.size)),
    ]
    write_csv(path, header, [basis.grid, basis.functions.T])


_BASIS_VECTORS = ("eigenvalues", "end_derivatives_left", "end_derivatives_right")


def basis_from_csv(path, problem: SLProblem | None = None) -> SpectralBasis:
    """The basis a ``basis_to_csv`` file holds. Raises ``InvalidSpec``
    naming the file when a ``#`` vector line or the ``x,phi_*`` header is
    missing, a row is ragged or not numeric, the eigenvalue, end-derivative
    and mode-column counts disagree, or the x column is not the uniform grid
    of its row count within 1e-12 (as in a truncated file). The modes come
    back as contiguous rows, the layout of the eigensystems, so a design
    made from the file is the one made from the basis written, bit for bit."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta: dict[str, str] = {}
    for n, line in enumerate(lines):
        if line.startswith("x,"):
            break
        if line.startswith("#"):
            key, _, payload = line[1:].partition(":")
            meta[key.strip()] = payload
    else:
        raise InvalidSpec(f"{path}: no 'x,phi_*' header line")
    missing = [key for key in _BASIS_VECTORS if key not in meta]
    if missing:
        raise InvalidSpec(f"{path}: no '# {missing[0]}:' line")
    try:
        lams, left, right = (
            np.array([float(v) for v in meta[key].split(",")]) for key in _BASIS_VECTORS
        )
        data = np.loadtxt(lines[n + 1 :], delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InvalidSpec(f"{path}: {exc}") from None
    rows, modes = data.shape[0], data.shape[1] - 1
    if not lams.size == left.size == right.size == modes:
        raise InvalidSpec(
            f"{path}: {lams.size} eigenvalues, {left.size} and {right.size} end "
            f"derivatives, {modes} mode columns"
        )
    if rows < 3 or not np.allclose(data[:, 0], uniform_grid(rows), rtol=0.0, atol=1e-12):
        raise InvalidSpec(f"{path}: the x column is not the uniform grid of its {rows} rows")
    return SpectralBasis(
        grid=data[:, 0],
        eigenvalues=lams,
        functions=np.ascontiguousarray(data[:, 1:].T),
        end_derivs=np.column_stack([left, right]),
        problem=problem,
    )
